"""Tests for ``backend="local"``: the batch on the calling thread, every
query over one demand store's jump map
(:meth:`repro.core.incremental.IncrementalAnalysis.run_units`).

The contract is the answers.  At an unlimited budget ``local`` must be
byte-identical to SeqCFL (``mode="seq"``); at each suite's own budget it
must match the simulator at one worker (``sim`` x1) answer for answer,
``exhausted`` flags included, for a cold batch and for a warm second
batch on the same resident runner.  The tier-2 sweep in
``tests/smoke/test_local_sweep.py`` repeats both checks on all 20
suites.
"""

import threading

import pytest

from repro.benchgen.suites import load_benchmark, spec_of
from repro.core import EngineConfig, IncrementalAnalysis, Query
from repro.obs import MetricsRecorder
from repro.obs.recorder import SpanRecorder
from repro.runtime import BACKENDS, ParallelCFL, RuntimeConfig
from repro.runtime.executor import HYBRID_DEMAND_BACKEND

UNLIMITED = 10**9

#: Tier-1 sample: one cheap and one heavy entry per family.
SAMPLE = ["_200_check", "_209_db", "batik", "luindex"]


def answers(batch):
    """(var, ctx) -> (context-sensitive state set, exhausted)."""
    return {
        (e.result.query.var, e.result.query.ctx): (
            e.result.points_to, e.result.exhausted,
        )
        for e in batch.executions
    }


def assert_local_matches_seq(name):
    build = load_benchmark(name)
    spec = spec_of(name)
    cfg = spec.engine_config(budget=UNLIMITED)
    queries = spec.workload()
    seq = ParallelCFL(
        build, runtime=RuntimeConfig(mode="seq"), engine=cfg
    ).run(queries)
    local = ParallelCFL(
        build, runtime=RuntimeConfig(mode="DQ", backend="local"), engine=cfg
    ).run(queries)
    assert local.n_queries == seq.n_queries == len(queries)
    assert answers(local) == answers(seq), name
    assert not any(exhausted for _, exhausted in answers(local).values())


def assert_local_matches_sim_x1(name):
    build = load_benchmark(name)
    spec = spec_of(name)
    cfg = spec.engine_config()
    queries = spec.workload()

    def runner(backend):
        return ParallelCFL(
            build,
            runtime=RuntimeConfig(mode="DQ", n_threads=1, backend=backend),
            engine=cfg,
        )

    sim, local = runner("sim"), runner("local")
    for label in ("cold", "warm"):
        want, got = sim.run(queries), local.run(queries)
        assert answers(got) == answers(want), (name, label)
        assert got.n_jumps == want.n_jumps, (name, label)


@pytest.mark.parametrize("name", SAMPLE)
def test_local_matches_seq_at_unlimited_budget(name):
    assert_local_matches_seq(name)


@pytest.mark.parametrize("name", SAMPLE)
def test_local_matches_sim_x1_cold_and_warm(name):
    assert_local_matches_sim_x1(name)


class TestLocalExecutor:
    """The ``local`` executor is a demand store: its batches run on the
    store's engine and map."""

    def test_registered_and_one_worker(self, fig2):
        b, _ = fig2
        assert "local" in BACKENDS
        rt = RuntimeConfig(mode="DQ", n_threads=8, backend="local")
        assert rt.effective_threads == 1
        runner = ParallelCFL(b, runtime=rt)
        assert runner.runtime.effective_threads == 1
        assert isinstance(runner.executor(), IncrementalAnalysis)
        batch = runner.run()
        assert batch.n_threads == 1
        assert batch.mode == "DQ"
        assert {e.worker for e in batch.executions} == {0}

    def test_real_times_in_order(self, fig2):
        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()]
        batch = IncrementalAnalysis(b.pag).run_units([[q] for q in queries])
        assert [e.result.query for e in batch.executions] == queries
        for prev, nxt in zip(batch.executions, batch.executions[1:]):
            assert prev.start <= prev.finish <= nxt.start
        assert batch.makespan >= batch.executions[-1].finish
        assert batch.worker_busy[0] <= batch.makespan

    def test_jump_counts_track_the_committed_map(self, fig2):
        b, _ = fig2
        store = IncrementalAnalysis(b.pag, EngineConfig(tau_f=0, tau_u=0))
        batch = store.run_units([[Query(v)] for v in b.pag.app_locals()])
        assert batch.n_jumps == store.jumps.n_jumps > 0
        assert batch.n_finished_jumps == store.jumps.n_finished_edges
        assert batch.n_unfinished_jumps == store.jumps.n_unfinished_edges

    def test_share_nothing_has_no_map(self, fig2):
        b, _ = fig2
        rt = RuntimeConfig(mode="naive", backend="local")
        cfg = EngineConfig(tau_f=0, tau_u=0)
        units = [[Query(v)] for v in b.pag.app_locals()]
        store = IncrementalAnalysis(b.pag, cfg)
        batch = store.run_units(units, rt)
        assert len(store.jumps) == 0  # the store was not written
        assert store.n_tracked_entries == 0
        assert batch.mode == "naive"
        assert batch.n_jumps == 0
        assert batch.total_saved == 0
        runner = ParallelCFL(b, runtime=rt, store=store)
        runner.run()
        assert runner.resident_jumps() is None
        assert len(store.jumps) == 0

    def test_empty_batch(self, fig2):
        b, _ = fig2
        batch = IncrementalAnalysis(b.pag).run_units([])
        assert batch.n_queries == 0
        assert batch.worker_busy == [0]

    def test_metrics_and_one_span_per_query(self, fig2):
        b, _ = fig2
        rec = SpanRecorder()
        queries = [Query(v) for v in b.pag.app_locals()]
        rec.count("before.batch")
        batch = ParallelCFL(
            b,
            runtime=RuntimeConfig(mode="D", backend="local"),
            recorder=rec,
        ).run(queries)
        assert batch.metrics["engine.queries"] == len(queries)
        assert "before.batch" not in batch.metrics
        spans = [e for e in rec.events() if e["cat"] == "query"]
        assert len(spans) == len(queries)

    def test_runs_on_the_calling_thread(self, fig2, monkeypatch):
        b, _ = fig2
        started = []
        real_start = threading.Thread.start

        def counting_start(self):
            started.append(self.name)
            real_start(self)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        IncrementalAnalysis(b.pag, recorder=MetricsRecorder()).run_units(
            [[Query(v)] for v in b.pag.app_locals()]
        )
        assert started == []

    def test_runs_on_the_store_it_is_given(self, fig2):
        # A batch publishes into the store's own map and records no
        # footprint, like every batch backend, so the next edge edit
        # drops its finished entries; the answer cache is left alone (a
        # batch reports each query's own costs).  At budget 20 some of
        # fig2's queries exhaust, so the batch also writes unfinished
        # markers, which every edit keeps.
        b, n = fig2
        store = IncrementalAnalysis(
            b.pag, EngineConfig(budget=20, tau_f=0, tau_u=0)
        )
        jumps = store.jumps
        runner = ParallelCFL(
            b, runtime=RuntimeConfig(mode="D", backend="local"), store=store
        )
        assert runner.executor() is store
        runner.run()
        assert runner.resident_jumps() is jumps
        assert jumps.n_finished_edges > 0
        assert store.n_tracked_entries == 0
        assert store.n_cached_queries == 0
        again = runner.run()
        assert sum(e.result.costs.jmp_taken for e in again.executions) > 0
        assert store.n_cached_queries == 0
        markers = dict(jumps.unfinished_items())
        assert markers
        # An edge between two fresh locals, which no batch query visited.
        store.add_assign_edge(store.add_local("fresh"), store.add_local("other"))
        assert jumps.n_finished_edges == 0
        assert dict(jumps.unfinished_items()) == markers


class TestHybridDemandRoute:
    def test_small_batches_route_to_local(self, fig2):
        b, _ = fig2
        assert HYBRID_DEMAND_BACKEND == "local"
        rec = MetricsRecorder()
        runner = ParallelCFL(
            b,
            # fig2's batch is far below DEFAULT_BULK_CROSSOVER.
            runtime=RuntimeConfig(mode="DQ", n_threads=2, backend="hybrid"),
            engine=EngineConfig(tau_f=0, tau_u=0),
            recorder=rec,
        )
        batch = runner.run()
        assert rec.snapshot()["matrix.routed_demand"] == 1
        demand = runner.executor(HYBRID_DEMAND_BACKEND)
        assert isinstance(demand, IncrementalAnalysis)
        assert runner.resident_jumps() is demand.jumps
        assert demand.jumps.n_jumps == batch.n_jumps > 0

    def test_hybrid_is_not_an_executor(self, fig2):
        b, _ = fig2
        runner = ParallelCFL(
            b, runtime=RuntimeConfig(backend="hybrid")
        )
        with pytest.raises(ValueError, match="'local'"):
            runner.executor()
