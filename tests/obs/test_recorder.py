"""Unit tests for the recorder hierarchy (`repro.obs.recorder`)."""

import json
import threading

from repro.obs import (
    COUNTER_DOCS,
    MetricsRecorder,
    Recorder,
    SIM_PID,
    SpanRecorder,
    WALL_PID,
)


class TestNullRecorder:
    def test_base_recorder_is_truthy(self):
        # The off value is None; every recorder, custom subclasses
        # included, passes the ``if rec:`` guard.
        assert Recorder()


class TestMetricsRecorder:
    def test_counts_accumulate(self):
        rec = MetricsRecorder()
        rec.count("engine.steps")
        rec.count("engine.steps", 9)
        rec.count_many({"engine.work": 3, "jumps.hits": 0})
        snap = rec.snapshot()
        assert snap["engine.steps"] == 10
        assert snap["engine.work"] == 3
        # zero deltas are not materialised
        assert "jumps.hits" not in snap

    def test_merge_folds_another_snapshot(self):
        a, b = MetricsRecorder(), MetricsRecorder()
        a.count("engine.steps", 2)
        b.count("engine.steps", 3)
        b.count("mp.crashes", 1)
        a.merge(b.snapshot())
        assert a.snapshot() == {"engine.steps": 5, "mp.crashes": 1}

    def test_mark_since_attributes_per_batch(self):
        rec = MetricsRecorder()
        rec.count("engine.steps", 7)
        mark = rec.mark()
        rec.count("engine.steps", 5)
        rec.count("engine.queries", 1)
        assert rec.since(mark) == {"engine.steps": 5, "engine.queries": 1}
        # counters themselves stay monotonic
        assert rec.snapshot()["engine.steps"] == 12

    def test_thread_safety_under_contention(self):
        rec = MetricsRecorder()

        def hammer():
            for _ in range(1000):
                rec.count("x")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.snapshot()["x"] == 8000

    def test_record_query_flushes_engine_costs(self, fig2):
        from repro.core import CFLEngine, Query

        b, n = fig2
        engine = CFLEngine(b.pag)
        result = engine.run_query(Query(n["s1"]))
        rec = MetricsRecorder()
        rec.record_query(result)
        snap = rec.snapshot()
        assert snap["engine.queries"] == 1
        assert snap["engine.steps"] == result.costs.steps
        assert snap["engine.work"] == result.costs.work
        assert snap["engine.sweeps"] == result.costs.sweeps
        assert snap.get("jumps.lookups", 0) == result.costs.jmp_lookups

    def test_counter_docs_cover_record_query_names(self):
        # Every name record_query can emit is documented.
        emitted = {
            "engine.queries", "engine.steps", "engine.work",
            "engine.saved_steps", "engine.sweeps", "engine.exhausted",
            "jumps.lookups", "jumps.hits", "jumps.misses", "jumps.inserts",
            "jumps.early_terminations",
            "jumps.publish_suppressed.tau_f", "jumps.publish_suppressed.tau_u",
        }
        assert emitted <= set(COUNTER_DOCS)


class TestSpanRecorder:
    def test_span_builds_complete_events_in_microseconds(self):
        rec = SpanRecorder()
        rec.span("query node3", 0.5, 1.25, tid=2, cat="query",
                 args={"var": 3})
        (ev,) = rec.events()
        assert ev["ph"] == "X"
        assert ev["ts"] == 500000.0
        assert ev["dur"] == 750000.0
        assert ev["pid"] == WALL_PID and ev["tid"] == 2
        assert ev["args"] == {"var": 3}

    def test_span_abs_rebases_on_zero(self):
        rec = SpanRecorder()
        rec.span_abs("s", rec.zero + 1.0, rec.zero + 1.5)
        (ev,) = rec.events()
        assert abs(ev["ts"] - 1e6) < 1.0
        assert abs(ev["dur"] - 0.5e6) < 1.0

    def test_negative_duration_clamped(self):
        rec = SpanRecorder()
        rec.span("s", 2.0, 1.0)
        assert rec.events()[0]["dur"] == 0.0

    def test_chrome_trace_document(self, tmp_path):
        rec = SpanRecorder()
        rec.span("a", 0.0, 1.0)
        rec.span("b", 0.0, 1.0, pid=SIM_PID)
        rec.count("engine.steps", 4)
        doc = rec.to_chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {m["pid"] for m in meta} == {WALL_PID, SIM_PID}
        assert doc["otherData"]["counters"] == {"engine.steps": 4}

        path = rec.write_chrome_trace(tmp_path / "trace.json")
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == 4  # 2 meta + 2 spans
