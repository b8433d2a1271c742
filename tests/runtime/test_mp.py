"""Tests for the true multiprocess backend (`repro.runtime.mp`).

The mp backend's contract: share-nothing runs are **byte-identical** to
the sequential engine (each query is a pure function of the graph);
sharing runs preserve the exactness/subset invariants the
other sharing executors guarantee; and all of it holds across the
epoch-synchronised delta broadcasts.
"""

import pytest

from repro.core import CFLEngine, EngineConfig, Query
from repro.errors import RuntimeConfigError
from repro.obs import MetricsRecorder
from repro.runtime import MPExecutor, ParallelCFL, RuntimeConfig
from repro.runtime.mp import JournalingJumpMap
from repro.core.jumpmap import JumpMap
from repro.pag.extended import FinishedJump


def mp_cfl(build, mode="naive", n_threads=2):
    """ParallelCFL on the mp backend via the consolidated config API."""
    return ParallelCFL(
        build, runtime=RuntimeConfig(mode=mode, n_threads=n_threads,
                                     backend="mp")
    )


class TestMPBackend:
    def test_matches_seq_share_nothing(self, fig2):
        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()]
        seq = CFLEngine(b.pag)
        expected = {q.var: seq.run_query(q).points_to for q in queries}
        batch = mp_cfl(b).run(queries)
        assert batch.n_queries == len(queries)
        for e in batch.executions:
            assert e.result.points_to == expected[e.result.query.var]

    def test_matches_seq_with_sharing(self, fig2):
        # Fig. 2 queries all complete within budget, so sharing must
        # not change any answer.
        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()]
        seq = ParallelCFL(b, runtime=RuntimeConfig(mode="seq")).run(queries)
        for mode in ("D", "DQ"):
            batch = mp_cfl(b, mode=mode).run(queries)
            assert batch.points_to_map() == seq.points_to_map(), mode

    def test_seq_mode_runs_one_worker(self, fig2):
        b, _ = fig2
        batch = mp_cfl(b, mode="seq", n_threads=1).run()
        assert batch.n_threads == 1
        assert batch.n_queries == len(b.pag.app_locals())

    def test_real_wall_times_recorded(self, fig2):
        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()]
        batch = mp_cfl(b).run(queries)
        assert batch.makespan > 0
        assert all(e.finish >= e.start for e in batch.executions)
        assert sum(batch.worker_busy) > 0

    def test_jump_map_collected_at_coordinator(self, fig2):
        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()] * 3
        rec = MetricsRecorder()
        ex = MPExecutor(
            b.pag,
            RuntimeConfig(mode="D", n_threads=2, backend="mp", chunk_size=1),
            engine_config=EngineConfig(tau_f=0, tau_u=0),
            recorder=rec,
        )
        jumps = JumpMap()
        batch = ex.run_units([[q] for q in queries], jumps)
        assert batch.n_jumps > 0
        assert jumps.n_jumps == batch.n_jumps
        # every entry of the coordinator map came from a merge
        assert rec.snapshot()["mp.delta_entries_merged"] == len(jumps) > 0

    def test_broadcast_deltas_reach_workers(self, fig2):
        # Repeat the same workload many times through single-unit
        # chunks: later units must take shortcuts discovered by earlier
        # ones, which only happens if the broadcast deltas arrive.
        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()] * 4
        ex = MPExecutor(
            b.pag,
            RuntimeConfig(mode="D", n_threads=2, backend="mp", chunk_size=1),
            engine_config=EngineConfig(tau_f=0, tau_u=0),
        )
        batch = ex.run_units([[q] for q in queries])
        assert sum(e.result.costs.jmp_taken for e in batch.executions) > 0
        assert batch.total_saved > 0

    def test_own_commits_not_shipped_back(self):
        # One worker holds every entry it commits, so a sharing batch
        # on mp x1 ships no delta at all, and answers like seq.
        from repro.benchgen.suites import load_benchmark, spec_of
        from repro.obs import MetricsRecorder

        name = "_200_check"
        build = load_benchmark(name)
        queries = spec_of(name).workload()
        engine = EngineConfig(budget=10**9)
        rec = MetricsRecorder()
        batch = ParallelCFL(
            build, runtime=RuntimeConfig(mode="DQ", n_threads=1, backend="mp"),
            engine=engine, recorder=rec,
        ).run(queries)
        seq = ParallelCFL(
            build, runtime=RuntimeConfig(mode="seq"), engine=engine,
        ).run(queries)
        assert batch.points_to_map() == seq.points_to_map()
        assert batch.metrics["mp.dispatches"] > 1
        assert batch.metrics.get("mp.delta_entries_merged", 0) > 0
        assert batch.metrics.get("mp.delta_entries_shipped", 0) == 0

    def test_spawn_workers_receive_the_pickled_graph(self, monkeypatch):
        # Under spawn nothing is inherited: each worker traverses the
        # PAG it unpickled from its process arguments.
        import multiprocessing

        import repro.runtime.mp as mp_module
        from repro.benchgen.suites import load_benchmark, spec_of

        monkeypatch.setattr(mp_module, "_MP_CONTEXT",
                            multiprocessing.get_context("spawn"))
        name = "_200_check"
        build = load_benchmark(name)
        queries = spec_of(name).workload()
        engine = EngineConfig(budget=10**9)
        batch = ParallelCFL(
            build, runtime=RuntimeConfig(mode="D", n_threads=2, backend="mp"),
            engine=engine,
        ).run(queries)
        local = ParallelCFL(
            build, runtime=RuntimeConfig(mode="D", backend="local"),
            engine=engine,
        ).run(queries)
        assert batch.n_threads == 2
        assert batch.points_to_map() == local.points_to_map()

    def test_invalid_config_rejected(self, fig2):
        b, _ = fig2
        # The executor's knobs come from a RuntimeConfig, which refuses
        # out-of-range values on construction.
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(n_threads=0, backend="mp")
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(n_threads=2, backend="mp", chunk_size=0)
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(backend="gpu")

    def test_empty_batch(self, fig2):
        b, _ = fig2
        batch = mp_cfl(b).run([])
        assert batch.n_queries == 0
        assert batch.makespan == 0.0


class TestDeltaProtocol:
    def test_apply_delta_idempotent(self):
        base = JumpMap()
        key = (1, (), False)
        edges = (FinishedJump(2, (), 5),)
        delta = [("fin", key, edges), ("unf", (3, (), True), 40)]
        base.warm_from(delta)
        base.warm_from(delta)  # replay: first-writer-wins drops dups
        assert base.finished(key) == edges
        assert base.unfinished((3, (), True)) == 40
        assert base.n_finished_edges == 1
        assert base.n_unfinished_edges == 1

    def test_finished_clears_unfinished_across_deltas(self):
        base = JumpMap()
        key = (1, (), False)
        base.warm_from([("unf", key, 99)])
        base.warm_from([("fin", key, (FinishedJump(2, (), 5),))])
        assert base.unfinished(key) is None
        assert base.finished(key) is not None

    def test_merge_appends_only_accepted(self):
        jumps = JournalingJumpMap()
        key = (1, (), False)
        edges = (FinishedJump(2, (), 5),)
        assert jumps.replay([("fin", key, edges)]) == [("fin", key, edges)]
        # a duplicate from a second worker loses the race — no log growth
        assert jumps.replay([("fin", key, edges)]) == []
        assert jumps.log == [("fin", key, edges)]


class TestWarmStart:
    def test_warm_executor_reuses_prior_session(self, fig2):
        # A first batch fills one map; a brand-new executor handed a map
        # warmed from its exported log ships those entries to its
        # workers as the epoch-0 delta, and must answer the same batch
        # byte-identically and with shortcut hits from unit one.
        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()] * 2
        cfg = EngineConfig(tau_f=0, tau_u=0)
        rt = RuntimeConfig(mode="D", n_threads=2, backend="mp", chunk_size=1)
        first = JumpMap()
        cold = MPExecutor(b.pag, rt, engine_config=cfg).run_units(
            [[q] for q in queries], first
        )
        log = first.export_log()
        assert log

        rec = MetricsRecorder()
        warm_map = JumpMap()
        assert warm_map.warm_from(log) == len(log)
        warm = MPExecutor(b.pag, rt, engine_config=cfg, recorder=rec).run_units(
            [[q] for q in queries], warm_map
        )
        assert warm.points_to_map() == cold.points_to_map()
        assert sum(e.result.costs.jmp_taken for e in warm.executions) > 0
        # each of the two workers' first chunk carries the whole log
        assert rec.snapshot()["mp.delta_entries_shipped"] >= 2 * len(log)
