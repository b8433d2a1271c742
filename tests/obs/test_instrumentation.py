"""End-to-end instrumentation tests: recorders attached to the real
engine, scheduler and executors.

The two contracts under test:

* **zero-cost-when-off** — a run with no recorder (``None``) and runs
  with each recorder all produce byte-identical answers (the recorder
  only observes, never steers);
* **attribution** — counters land where the paper's figures need them:
  jump-map hits only in sharing modes, scheduler counters only with
  scheduling, mp transport counters only on the mp backend, and worker
  counters survive crash-requeue recovery.
"""

import pytest

from repro.core import EngineConfig, Query
from repro.obs import (
    MetricsRecorder,
    SIM_PID,
    SpanRecorder,
    TimelineRecorder,
)
from repro.obs.report import (
    hot_queries,
    metrics_to_json,
    render_hot_queries,
    render_metrics_table,
)
from repro.runtime import MPExecutor, ParallelCFL, RuntimeConfig
from repro.runtime.faults import FaultPlan


def run_batch(build, mode="D", recorder=None, backend="sim", repeats=3,
              **engine_kw):
    queries = [Query(v) for v in build.pag.app_locals()] * repeats
    runner = ParallelCFL(
        build,
        runtime=RuntimeConfig(mode=mode, n_threads=4, backend=backend),
        engine=EngineConfig(**engine_kw) if engine_kw else None,
        recorder=recorder,
    )
    return runner.run(queries)


class TestRecorderOffIdentity:
    def test_answers_identical_with_and_without_recorder(self, fig2):
        b, _ = fig2
        baseline = run_batch(b).points_to_map()
        for rec in (MetricsRecorder(), SpanRecorder(), TimelineRecorder()):
            assert run_batch(b, recorder=rec).points_to_map() == baseline

    @pytest.mark.parametrize("backend", ["sim", "threads", "mp"])
    def test_timeline_recorder_identity_on_every_backend(
        self, fig2, tmp_path, backend
    ):
        # The full telemetry stack armed — heartbeats, stall clocks and
        # a live JSONL log — must not steer answers on any backend.
        b, _ = fig2
        baseline = run_batch(b, backend=backend).points_to_map()
        with TimelineRecorder(
            events_path=tmp_path / f"{backend}.jsonl",
            heartbeat_interval=0.01,
        ) as rec:
            observed = run_batch(b, backend=backend, recorder=rec)
        assert observed.points_to_map() == baseline


class TestCounterAttribution:
    def test_d_mode_takes_jumps_naive_does_not(self, fig2):
        b, _ = fig2
        d_rec, naive_rec = MetricsRecorder(), MetricsRecorder()
        d = run_batch(b, mode="D", recorder=d_rec, tau_f=0, tau_u=0)
        naive = run_batch(b, mode="naive", recorder=naive_rec,
                          tau_f=0, tau_u=0)
        assert d.metrics.get("jumps.hits", 0) > 0
        assert d.metrics["jumps.hits"] == sum(
            e.result.costs.jmp_taken for e in d.executions
        )
        assert naive.metrics.get("jumps.hits", 0) == 0
        assert naive.metrics.get("jumps.inserts", 0) == 0
        # Both answered the same number of queries.
        assert d.metrics["engine.queries"] == naive.metrics["engine.queries"]

    def test_scheduler_counters_only_with_scheduling(self, fig2):
        b, _ = fig2
        dq_rec, d_rec = MetricsRecorder(), MetricsRecorder()
        dq = run_batch(b, mode="DQ", recorder=dq_rec)
        run_batch(b, mode="D", recorder=d_rec)
        assert dq.metrics["sched.runs"] == 1
        assert dq.metrics["sched.queries"] == dq.n_queries
        assert dq.metrics["sched.groups"] >= 1
        assert "sched.runs" not in d_rec.snapshot()

    def test_engine_totals_match_batch_costs(self, fig2):
        b, _ = fig2
        rec = MetricsRecorder()
        batch = run_batch(b, recorder=rec)
        assert batch.metrics["engine.queries"] == batch.n_queries
        assert batch.metrics["engine.steps"] == sum(
            e.result.costs.steps for e in batch.executions
        )
        assert batch.metrics["engine.work"] == batch.total_work

    def test_one_recorder_spans_batches_with_per_batch_metrics(self, fig2):
        b, _ = fig2
        rec = MetricsRecorder()
        first = run_batch(b, recorder=rec)
        second = run_batch(b, recorder=rec)
        # Each batch reports only its own increment...
        assert first.metrics["engine.queries"] == first.n_queries
        assert second.metrics["engine.queries"] == second.n_queries
        # ...while the recorder accumulates across both.
        assert rec.snapshot()["engine.queries"] == (
            first.n_queries + second.n_queries
        )


class TestBackendSpans:
    def test_sim_spans_land_on_the_simulated_lane(self, fig2):
        b, _ = fig2
        rec = SpanRecorder()
        batch = run_batch(b, recorder=rec)
        spans = [e for e in rec.events() if e["cat"] == "query"]
        assert len(spans) == batch.n_queries
        assert all(e["pid"] == SIM_PID for e in spans)

    def test_threaded_backend_counts_and_spans(self, fig2):
        b, _ = fig2
        rec = SpanRecorder()
        batch = run_batch(b, backend="threads", recorder=rec)
        assert batch.metrics["engine.queries"] == batch.n_queries
        spans = [e for e in rec.events() if e["cat"] == "query"]
        assert len(spans) == batch.n_queries
        assert all(e["pid"] != SIM_PID for e in spans)


class TestMPMetrics:
    def test_worker_counters_ship_back_to_coordinator(self, fig2):
        b, _ = fig2
        rec = MetricsRecorder()
        batch = run_batch(b, mode="D", backend="mp", recorder=rec,
                          tau_f=0, tau_u=0)
        # Engine counters were accumulated in worker processes and
        # merged from the serialised snapshots.
        assert batch.metrics["engine.queries"] == batch.n_queries
        assert batch.metrics["mp.dispatches"] >= 1
        # Sharing was on, so at least one delta shipped or merged.
        assert (
            batch.metrics.get("mp.epoch_ships", 0)
            + batch.metrics.get("mp.delta_entries_merged", 0)
        ) > 0

    def test_metrics_survive_crash_requeue(self, fig2):
        b, _ = fig2
        queries = [Query(v) for v in b.pag.app_locals()] * 4
        rec = MetricsRecorder()
        ex = MPExecutor(
            b.pag,
            RuntimeConfig(
                mode="naive", n_threads=2, backend="mp", chunk_size=1,
                faults=FaultPlan.single("kill", worker=0, after_units=1),
                max_respawns=1,
            ),
            recorder=rec,
        )
        batch = ex.run_units([[q] for q in queries])
        assert batch.n_queries == len(queries)  # zero lost
        snap = rec.snapshot()
        # Every answered query was counted (the killed worker's
        # in-flight chunk is re-counted by whoever re-runs it).
        assert snap["engine.queries"] >= len(queries)
        assert snap["mp.crashes"] >= 1
        assert snap["mp.requeues"] >= 1


class TestReports:
    def test_metrics_table_and_json(self, fig2):
        b, _ = fig2
        rec = MetricsRecorder()
        run_batch(b, mode="DQ", recorder=rec)
        table = render_metrics_table(rec.snapshot())
        assert "engine.queries" in table and "[sched]" in table
        import json

        parsed = json.loads(metrics_to_json(rec.snapshot()))
        assert parsed["engine.queries"] > 0

    def test_hot_queries_ranked_by_duration(self, fig2):
        b, _ = fig2
        batch = run_batch(b)
        rows = hot_queries(batch, pag=b.pag, top=5)
        assert 0 < len(rows) <= 5
        durations = [r["duration"] for r in rows]
        assert durations == sorted(durations, reverse=True)
        rendered = render_hot_queries(batch, pag=b.pag, top=5)
        assert rows[0]["query"] in rendered

    def test_hot_queries_empty_batch(self, fig2):
        b, _ = fig2
        batch = ParallelCFL(b, runtime=RuntimeConfig(mode="seq")).run([])
        assert hot_queries(batch) == []
        assert "empty" in render_hot_queries(batch).lower()
