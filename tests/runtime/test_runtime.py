"""Unit and integration tests for the parallel runtime."""

import inspect

import pytest

from repro.core import CFLEngine, EngineConfig, IncrementalAnalysis, JumpMap, Query
from repro.core.engine import POINTS_TO
from repro.errors import RuntimeConfigError
from repro.pag.extended import FinishedJump
from repro.runtime import (
    BACKENDS,
    BatchResult,
    ConcurrentJumpMap,
    CostModel,
    ParallelCFL,
    RuntimeConfig,
    SimulatedExecutor,
    ThreadedExecutor,
)
from repro.runtime.executor import EXECUTORS, HYBRID_DEMAND_BACKEND


class TestCostModel:
    def test_contention_grows_with_threads(self):
        cm = CostModel(kappa=0.1, kappa_inter=0.1, socket_size=8)
        assert cm.contention(1) == pytest.approx(1.0)
        assert cm.contention(16) == pytest.approx(2.5)

    def test_cross_socket_slope_steeper(self):
        cm = CostModel()  # calibrated defaults: 2 x 8-core sockets
        intra_step = cm.contention(8) - cm.contention(7)
        inter_step = cm.contention(9) - cm.contention(8)
        assert inter_step > intra_step

    def test_contention_monotone(self):
        cm = CostModel()
        values = [cm.contention(t) for t in (1, 2, 4, 8, 16)]
        assert values == sorted(values)

    def test_query_time_components(self):
        from repro.core.query import QueryCosts

        cm = CostModel(w_step=1, w_query=10, w_take=2, w_look=3, w_ins=4, kappa=0.0)
        costs = QueryCosts(steps=0, work=5, jmp_taken=1, jmp_lookups=2, jmp_inserts=1)
        assert cm.query_time(costs, 1) == pytest.approx(10 + 5 + 2 + 6 + 4)

    def test_fetch_time_scales(self):
        cm = CostModel(w_fetch=10, kappa_lock=0.5)
        assert cm.fetch_time(1) == pytest.approx(10)
        assert cm.fetch_time(3) == pytest.approx(20)

    def test_negative_weights_rejected(self):
        with pytest.raises(RuntimeConfigError):
            CostModel(kappa=-1)
        with pytest.raises(RuntimeConfigError):
            CostModel(w_step=-1)


class TestSimulatedExecutor:
    def test_results_match_sequential_engine(self, fig2):
        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()]
        seq = CFLEngine(b.pag)
        expected = {q.var: seq.run_query(q).points_to for q in queries}
        ex = SimulatedExecutor(b.pag, RuntimeConfig(mode="D", n_threads=4))
        batch = ex.run_units([[q] for q in queries])
        assert batch.n_queries == len(queries)
        for e in batch.executions:
            assert e.result.points_to == expected[e.result.query.var]

    def test_deterministic(self, fig2):
        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()]

        def run():
            ex = SimulatedExecutor(b.pag, RuntimeConfig(mode="D", n_threads=3))
            batch = ex.run_units([[q] for q in queries])
            return (
                batch.makespan,
                [(e.result.query.var, e.worker, e.start) for e in batch.executions],
            )

        assert run() == run()

    def test_makespan_shrinks_with_threads(self, fig2):
        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()] * 4
        m1 = SimulatedExecutor(
            b.pag,
            RuntimeConfig(mode="naive", n_threads=1),
        ).run_units([[q] for q in queries]).makespan
        m4 = SimulatedExecutor(
            b.pag,
            RuntimeConfig(mode="naive", n_threads=4),
        ).run_units([[q] for q in queries]).makespan
        assert m4 < m1

    def test_contention_slows_many_threads(self, fig2):
        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()]
        cm = CostModel(kappa=0.5)
        m1 = SimulatedExecutor(
            b.pag,
            RuntimeConfig(mode="naive", n_threads=1, cost_model=cm),
        ).run_units([[q] for q in queries])
        m16 = SimulatedExecutor(
            b.pag,
            RuntimeConfig(mode="naive", n_threads=16, cost_model=cm),
        ).run_units([[q] for q in queries])
        # 16 workers, heavy contention: far from linear speedup.
        assert m1.makespan / m16.makespan < 8

    def test_workers_record_busy_time(self, fig2):
        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()]
        batch = SimulatedExecutor(
            b.pag,
            RuntimeConfig(mode="naive", n_threads=2),
        ).run_units([[q] for q in queries])
        assert len(batch.worker_busy) == 2
        assert sum(batch.worker_busy) > 0
        assert 0 < batch.utilisation <= 1.0

    def test_sharing_commits_to_shared_map(self, fig2):
        b, _ = fig2
        ex = SimulatedExecutor(
            b.pag,
            RuntimeConfig(mode="D", n_threads=2),
            engine_config=EngineConfig(tau_f=0, tau_u=0),
        )
        jumps = JumpMap()
        batch = ex.run_units([[Query(v)] for v in b.pag.app_locals()], jumps)
        assert batch.n_jumps > 0
        assert jumps.n_jumps == batch.n_jumps

    def test_sharing_reduces_total_work(self, fig2):
        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()] * 3
        cfg = EngineConfig(tau_f=0, tau_u=0)
        off = SimulatedExecutor(
            b.pag,
            RuntimeConfig(mode="naive", n_threads=2),
            engine_config=cfg,
        ).run_units([[q] for q in queries])
        on = SimulatedExecutor(
            b.pag,
            RuntimeConfig(mode="D", n_threads=2),
            engine_config=cfg,
        ).run_units([[q] for q in queries])
        assert on.total_work < off.total_work
        assert on.total_saved > 0
        assert on.saved_ratio > 0

    def test_memory_proxy_positive(self, fig2):
        b, _ = fig2
        batch = SimulatedExecutor(
            b.pag,
            RuntimeConfig(mode="D", n_threads=2),
        ).run_units([[Query(v)] for v in b.pag.app_locals()])
        assert batch.peak_memory_proxy > 0

    def test_zero_threads_rejected(self, fig2):
        b, _ = fig2
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(n_threads=0)

    def test_empty_batch(self, fig2):
        b, _ = fig2
        batch = SimulatedExecutor(
            b.pag,
            RuntimeConfig(n_threads=2),
        ).run_units([])
        assert batch.n_queries == 0
        assert batch.makespan == 0.0


class TestThreadedExecutor:
    def test_results_match_sequential(self, fig2):
        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()]
        seq = CFLEngine(b.pag)
        expected = {q.var: seq.run_query(q).points_to for q in queries}
        batch = ThreadedExecutor(
            b.pag,
            RuntimeConfig(mode="D", n_threads=4, backend="threads"),
        ).run_units([[q] for q in queries])
        assert batch.n_queries == len(queries)
        for e in batch.executions:
            assert e.result.points_to == expected[e.result.query.var]

    def test_all_queries_processed_once(self, fig2):
        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()]
        batch = ThreadedExecutor(
            b.pag,
            RuntimeConfig(mode="naive", n_threads=8, backend="threads"),
        ).run_units([[q] for q in queries])
        got = sorted(e.result.query.var for e in batch.executions)
        assert got == sorted(q.var for q in queries)

    def test_concurrent_jumpmap_semantics(self):
        m = ConcurrentJumpMap(n_stripes=4)
        key = (1, (), POINTS_TO)
        assert m.insert_unfinished(key, 10)
        assert not m.insert_unfinished(key, 20)
        assert m.unfinished(key) == 10
        assert m.insert_finished(key, (FinishedJump(2, (), 5),))
        assert m.unfinished(key) is None
        assert m.n_jumps == 1

    def test_concurrent_jumpmap_rejects_bad_stripes(self):
        with pytest.raises(RuntimeConfigError):
            ConcurrentJumpMap(n_stripes=0)

    def test_failed_unit_keeps_partial_results(self, fig2):
        # Regression: a unit that raised used to discard every
        # completed execution and re-raise.  Now the good units'
        # results survive and the failure is reported per unit.
        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()]
        units = [[q] for q in queries] + [[object()]]  # poison unit last
        batch = ThreadedExecutor(
            b.pag,
            RuntimeConfig(mode="naive", n_threads=4, backend="threads"),
        ).run_units(units)
        assert batch.n_queries == len(queries)
        got = sorted(e.result.query.var for e in batch.executions)
        assert got == sorted(q.var for q in queries)
        assert batch.chunk_status[-1] == "quarantined"
        assert all(s == "completed" for s in batch.chunk_status[:-1])
        assert batch.n_chunk_retries == 1
        assert batch.errors

    def test_every_failure_reported_not_just_first(self, fig2):
        # Regression: only the first captured error used to surface.
        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()]
        units = [[object()], [[q] for q in queries][0], [object()]]
        batch = ThreadedExecutor(
            b.pag,
            RuntimeConfig(mode="naive", n_threads=2, backend="threads"),
        ).run_units(units)
        assert batch.chunk_status[0] == batch.chunk_status[2] == "quarantined"
        assert batch.chunk_status[1] == "completed"
        # each poison unit reports twice: thread failure + failed retry
        assert sum("unit 0 " in e for e in batch.errors) == 2
        assert sum("unit 2 " in e for e in batch.errors) == 2


class TestOneConstructionPath:
    @pytest.mark.parametrize("backend", sorted(EXECUTORS))
    def test_executor_is_made_from_the_runtime(self, backend):
        params = inspect.signature(EXECUTORS[backend]).parameters
        assert list(params) == ["pag", "runtime", "engine_config", "recorder"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_mode_is_the_runtime_mode(self, fig2, backend):
        b, _ = fig2
        rt = RuntimeConfig(mode="D", n_threads=2, backend=backend)
        assert ParallelCFL(b, runtime=rt).run().mode == rt.mode
        if backend == "hybrid":
            backend = HYBRID_DEMAND_BACKEND
        units = [[Query(v)] for v in b.pag.app_locals()]
        if backend == "local":  # a demand store, told the runtime per batch
            batch = IncrementalAnalysis(b.pag).run_units(units, rt)
        else:
            batch = EXECUTORS[backend](b.pag, rt).run_units(units)
        assert batch.mode == rt.mode


class TestParallelCFL:
    @pytest.mark.parametrize("mode", ["seq", "naive", "D", "DQ"])
    def test_modes_agree_on_answers(self, fig2, mode):
        b, _ = fig2
        seq = CFLEngine(b.pag)
        queries = [Query(v) for v in b.pag.app_locals()]
        expected = {q.var: seq.run_query(q).objects for q in queries}
        runner = ParallelCFL(b, runtime=RuntimeConfig(mode=mode, n_threads=4))
        batch = runner.run(queries)
        for e in batch.executions:
            assert e.result.objects == expected[e.result.query.var]

    def test_seq_mode_forces_one_thread(self, fig2):
        b, _ = fig2
        runner = ParallelCFL(
            b,
            runtime=RuntimeConfig(mode="seq", n_threads=16),
        )
        assert runner.runtime.effective_threads == 1
        assert not runner.runtime.sharing

    @pytest.mark.parametrize("backend", ["sim", "local", "mp"])
    def test_runs_share_the_resident_map(self, fig2, backend):
        # A runner keeps its executor, so a second run of a query takes
        # the shortcuts the first one committed.
        b, n = fig2
        runner = ParallelCFL(
            b,
            runtime=RuntimeConfig(mode="D", n_threads=2, backend=backend),
            engine=EngineConfig(tau_f=0, tau_u=0),
        )
        first, second = (runner.run([Query(n["s1"])]) for _ in range(2))
        assert first.executions[0].result.costs.jmp_taken == 0
        assert second.executions[0].result.costs.jmp_taken > 0

    @pytest.mark.parametrize("backend", ["sim", "local", "mp", "hybrid"])
    def test_warm_from_without_a_session(self, fig2, backend):
        b, _ = fig2
        cfg = EngineConfig(tau_f=0, tau_u=0)
        donor = ParallelCFL(b, runtime=RuntimeConfig(mode="D"), engine=cfg)
        donor.run()
        log = donor.resident_jumps().export_log()
        runner = ParallelCFL(
            b,
            runtime=RuntimeConfig(mode="D", n_threads=2, backend=backend),
            engine=cfg,
        )
        # A runner's one map is its demand store's, warmed through it.
        assert runner.executor("local").warm_from(log) == len(log) > 0
        keys = {(tag, key) for tag, key, _ in log}
        held = runner.resident_jumps().export_log()
        assert {(tag, key) for tag, key, _ in held} == keys
        batch = runner.run()
        assert sum(e.result.costs.jmp_taken for e in batch.executions) > 0

    def test_default_queries_are_app_locals(self, fig2):
        b, _ = fig2
        runner = ParallelCFL(b, runtime=RuntimeConfig(mode="seq"))
        assert len(runner.default_queries()) == len(b.pag.app_locals())

    def test_dq_builds_groups(self, fig2):
        b, _ = fig2
        runner = ParallelCFL(b, runtime=RuntimeConfig(mode="DQ"))
        units = runner.work_units(runner.default_queries())
        # scheduling coalesces queries into multi-query units
        assert any(len(u) > 1 for u in units)

    def test_naive_units_are_singletons(self, fig2):
        b, _ = fig2
        runner = ParallelCFL(b, runtime=RuntimeConfig(mode="naive"))
        units = runner.work_units(runner.default_queries())
        assert all(len(u) == 1 for u in units)

    def test_speedup_ordering_on_fig2(self, fig2):
        # Even on the tiny Fig. 2 graph: parallel beats sequential.
        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()] * 8
        seq = ParallelCFL(b, runtime=RuntimeConfig(mode="seq")).run(queries)
        naive = ParallelCFL(
            b,
            runtime=RuntimeConfig(mode="naive", n_threads=4),
        ).run(queries)
        assert naive.speedup_over(seq) > 1.5

    def test_threads_backend(self, fig2):
        b, _ = fig2
        runner = ParallelCFL(
            b, runtime=RuntimeConfig(mode="D", n_threads=4, backend="threads")
        )
        batch = runner.run()
        assert batch.n_queries == len(b.pag.app_locals())

    def test_invalid_mode_rejected(self, fig2):
        b, _ = fig2
        with pytest.raises(RuntimeConfigError):
            ParallelCFL(b, runtime=RuntimeConfig(mode="turbo"))
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(backend="gpu")

    def test_accepts_raw_pag(self, fig2):
        b, _ = fig2
        runner = ParallelCFL(
            b.pag,
            runtime=RuntimeConfig(mode="naive", n_threads=2),
        )
        batch = runner.run()
        assert batch.n_queries > 0


class TestIntraQueryModel:
    def test_speedup_capped_by_frontier(self, fig2):
        from repro.runtime import intra_query_speedup

        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()]
        seq = ParallelCFL(b, runtime=RuntimeConfig(mode="seq")).run(queries)
        s16 = intra_query_speedup(seq, 16)
        # the Fig. 2 traversals have tiny frontiers: 16 threads buy
        # almost nothing over 1
        s1 = intra_query_speedup(seq, 1)
        assert s16 < 4
        # one "intra" thread ~ sequential (modulo work-list fetch costs,
        # which the single-query-at-a-time design does not pay)
        assert 0.9 < s1 < 1.35

    def test_sync_overhead_can_make_it_slower(self, fig2):
        from repro.runtime import intra_query_speedup

        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()]
        seq = ParallelCFL(b, runtime=RuntimeConfig(mode="seq")).run(queries)
        heavy_sync = intra_query_speedup(seq, 16, w_sync=1.0)
        assert heavy_sync < 1.0  # worse than sequential

    def test_inter_query_wins(self, fig2):
        from repro.runtime import intra_query_speedup

        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()] * 4
        seq = ParallelCFL(b, runtime=RuntimeConfig(mode="seq")).run(queries)
        naive = ParallelCFL(
            b,
            runtime=RuntimeConfig(mode="naive", n_threads=16),
        ).run(queries)
        assert naive.speedup_over(seq) > intra_query_speedup(seq, 16)

    def test_invalid_args_rejected(self, fig2):
        from repro.runtime import intra_query_makespan

        b, _ = fig2
        seq = ParallelCFL(
            b,
            runtime=RuntimeConfig(mode="seq"),
        ).run([Query(b.pag.app_locals()[0])])
        with pytest.raises(RuntimeConfigError):
            intra_query_makespan(seq, 0)
        with pytest.raises(RuntimeConfigError):
            intra_query_makespan(seq, 4, w_sync=-1)

    def test_frontier_mean_recorded(self, fig2):
        b, _ = fig2
        batch = ParallelCFL(
            b,
            runtime=RuntimeConfig(mode="seq"),
        ).run([Query(v) for v in b.pag.app_locals()])
        assert any(e.result.costs.frontier_mean > 0 for e in batch.executions)
