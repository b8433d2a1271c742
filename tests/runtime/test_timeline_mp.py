"""Live-telemetry integration tests: heartbeats, stall detection and
the event log against real executor backends.

The contracts under test:

* mp workers piggyback heartbeat samples on the existing result pipe —
  no telemetry process or extra IPC primitive — and the coordinator
  folds them into the timeline with commit-log lag attached;
* a hung worker is flagged ``stall`` *before* the unit-timeout requeue
  fires (silence is the signal; the deadline is the remedy);
* a worker killed mid-chunk does not distort the merged engine
  counters: the requeued chunk is counted exactly once (the
  double-count regression: the metrics merge must happen after the
  duplicate-straggler check, because the delta merge is idempotent but
  the counter merge is not);
* the threaded backend's in-process sampler produces the same event
  vocabulary;
* events stream to JSONL as they happen (the crash-survivable prefix).
"""

import json

import pytest

from repro.benchgen import SynthesisParams, synthesize_program
from repro.core import Query
from repro.obs import TimelineRecorder
from repro.pag import build_pag
from repro.runtime import FaultPlan, MPExecutor, ParallelCFL, RuntimeConfig


@pytest.fixture(scope="module")
def bench():
    build = build_pag(
        synthesize_program(
            SynthesisParams(seed=77, n_app_classes=2, methods_per_app_class=2,
                            actions_per_method=6)
        )
    )
    queries = [Query(v) for v in build.pag.app_locals()]
    return build, queries


class TestMPHeartbeats:
    def test_heartbeats_ride_the_result_pipe(self, bench):
        build, queries = bench
        rec = TimelineRecorder(heartbeat_interval=0.01)
        batch = MPExecutor(
            build.pag,
            RuntimeConfig(mode="D", n_threads=2, backend="mp", chunk_size=2),
            recorder=rec,
        ).run_units([[q] for q in queries])
        assert batch.n_queries == len(queries)
        beats = rec.events_of("heartbeat")
        assert beats, "no heartbeat arrived over the existing pipe"
        # Every sample carries liveness progress and the commit-log lag
        # stamped by the coordinator.
        for hb in beats:
            assert "queries_done" in hb and "units_done" in hb
            assert "epoch_lag" in hb and hb["epoch_lag"] >= 0
        workers = {hb["worker"] for hb in beats}
        assert workers <= {0, 1}
        assert rec.snapshot()["timeline.heartbeats"] == len(beats)

    def test_full_lifecycle_vocabulary_on_mp(self, bench):
        build, queries = bench
        rec = TimelineRecorder(heartbeat_interval=0.01)
        runner = ParallelCFL(
            build,
            runtime=RuntimeConfig(mode="D", n_threads=2, backend="mp",
                                  chunk_size=2),
            recorder=rec,
        )
        runner.run(queries)
        kinds = {e["kind"] for e in rec.timeline_events()}
        assert {"batch_start", "dispatch", "done",
                "heartbeat", "batch_end"} <= kinds
        (start,) = rec.events_of("batch_start")
        assert start["total_queries"] == len(queries)
        assert start["backend"] == "mp"
        (end,) = rec.events_of("batch_end")
        assert end["queries"] == len(queries)

    def test_no_timeline_recorder_means_no_heartbeat_traffic(self, bench):
        # MetricsRecorder leaves heartbeat_interval unset: workers must
        # stay on the pre-telemetry protocol (zero-cost-when-off).
        from repro.obs import MetricsRecorder

        build, queries = bench
        rec = MetricsRecorder()
        assert rec.heartbeat_interval is None
        batch = MPExecutor(
            build.pag,
            RuntimeConfig(mode="naive", n_threads=2, backend="mp"),
            recorder=rec,
        ).run_units([[q] for q in queries])
        assert batch.n_queries == len(queries)
        assert "timeline.heartbeats" not in rec.snapshot()


class TestStallDetection:
    def test_hung_worker_flagged_before_unit_timeout_requeue(self, bench):
        build, queries = bench
        rec = TimelineRecorder(heartbeat_interval=0.05, stall_after=0.3)
        batch = MPExecutor(
            build.pag,
            RuntimeConfig(
                mode="naive", n_threads=2, backend="mp", chunk_size=1,
                faults=FaultPlan.single("hang", worker=0, after_units=1,
                                        hang_s=600.0),
                unit_timeout=1.5, max_respawns=1,
            ),
            recorder=rec,
        ).run_units([[q] for q in queries])
        # The batch still completes: the deadline requeues the chunk.
        assert batch.n_queries == len(queries)
        stalls = rec.events_of("stall")
        assert stalls, "silent worker was never flagged"
        requeues = rec.events_of("requeue")
        assert requeues, "unit timeout never fired"
        # Early warning: the stall verdict lands strictly before the
        # requeue (0.3s of silence vs the 1.5s deadline).
        assert stalls[0]["t"] < requeues[0]["t"]
        assert stalls[0]["worker"] == 0
        assert rec.snapshot()["timeline.stalls"] == len(stalls)

    def test_healthy_run_has_no_stalls(self, bench):
        build, queries = bench
        rec = TimelineRecorder(heartbeat_interval=0.02, stall_after=30.0)
        MPExecutor(
            build.pag,
            RuntimeConfig(mode="naive", n_threads=2, backend="mp"),
            recorder=rec,
        ).run_units([[q] for q in queries])
        assert rec.events_of("stall") == []


class TestMetricsMergeOnRequeue:
    def test_kill_mid_chunk_counts_each_query_exactly_once(self, bench):
        # Fault-free baseline vs a run whose worker 0 is killed
        # mid-chunk: the killed chunk's counters never shipped (they
        # piggyback on the done message), the re-run ships them once —
        # so the merged engine counters must be *equal*, not merely
        # "at least the query count".
        build, queries = bench
        clean = TimelineRecorder(heartbeat_interval=0.05)
        MPExecutor(
            build.pag,
            RuntimeConfig(
                mode="naive", n_threads=2, backend="mp", chunk_size=1,
            ),
            recorder=clean,
        ).run_units([[q] for q in queries])
        faulted = TimelineRecorder(heartbeat_interval=0.05)
        batch = MPExecutor(
            build.pag,
            RuntimeConfig(
                mode="naive", n_threads=2, backend="mp", chunk_size=1,
                faults=FaultPlan.single("kill", worker=0, after_units=1),
                max_respawns=1,
            ),
            recorder=faulted,
        ).run_units([[q] for q in queries])
        assert batch.n_queries == len(queries)
        assert batch.n_worker_crashes >= 1
        clean_engine = {
            k: v for k, v in clean.snapshot().items()
            if k.startswith("engine.")
        }
        faulted_engine = {
            k: v for k, v in faulted.snapshot().items()
            if k.startswith("engine.")
        }
        assert faulted_engine["engine.queries"] == len(queries)
        assert faulted_engine == clean_engine


class TestThreadedSampler:
    def test_threads_backend_emits_same_vocabulary(self, bench):
        build, queries = bench
        rec = TimelineRecorder(heartbeat_interval=0.01, stall_after=30.0)
        runner = ParallelCFL(
            build,
            runtime=RuntimeConfig(mode="D", n_threads=2, backend="threads"),
            recorder=rec,
        )
        batch = runner.run(queries)
        assert batch.n_queries == len(queries)
        kinds = {e["kind"] for e in rec.timeline_events()}
        assert {"batch_start", "dispatch", "done", "batch_end"} <= kinds
        beats = rec.events_of("heartbeat")
        assert beats, "sampler thread produced no samples"
        assert all("queries_done" in hb for hb in beats)
        assert rec.events_of("stall") == []


class TestEventLogStreaming:
    def test_mp_run_streams_parseable_jsonl(self, bench, tmp_path):
        build, queries = bench
        path = tmp_path / "events.jsonl"
        with TimelineRecorder(events_path=path,
                              heartbeat_interval=0.01) as rec:
            ParallelCFL(
                build,
                runtime=RuntimeConfig(mode="D", n_threads=2, backend="mp",
                                      chunk_size=2),
                recorder=rec,
            ).run(queries)
        lines = path.read_text().splitlines()
        parsed = [json.loads(line) for line in lines]  # every line parses
        assert len(parsed) == len(rec.timeline_events())
        kinds = {p["kind"] for p in parsed}
        assert {"dispatch", "done", "heartbeat"} <= kinds
