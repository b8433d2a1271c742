"""repro.obs — zero-cost-when-off observability.

Three recorders behind one protocol (:class:`Recorder`); the off value
is ``None``, and instrumented hot paths guard every hook behind one
truthiness check, so a recorder-off run executes the exact
pre-instrumentation code path:

* :class:`MetricsRecorder` — thread-safe monotonic counters (engine
  steps/sweeps, jump-map hits/misses, τ-suppressed publishes, scheduler
  groups/merges, mp epoch ships / delta bytes / merge conflicts /
  requeues / respawns);
* :class:`SpanRecorder` — counters plus per-query and per-chunk spans,
  written as Chrome-trace JSON for ``about:tracing`` / Perfetto;
* :class:`TimelineRecorder` — spans plus *live* telemetry: worker
  heartbeats folded into a per-worker time series, every lifecycle
  event (dispatch/done/crash/requeue/respawn/epoch ship/stall) as a
  timestamped record, optional streaming JSONL event log, and the
  aggregates behind the one-line progress report
  (:func:`render_progress`).

Surfacing: pass ``recorder=`` to
:class:`~repro.runtime.executor.ParallelCFL` (or any executor) and read
``BatchResult.metrics``; on the CLI use ``repro batch --metrics`` /
``--metrics-json``, ``repro batch/bench --events out.jsonl`` for the
event log, and ``repro bench --profile trace.json`` for Chrome traces.
"""

from repro.obs.recorder import (
    COUNTER_DOCS,
    MetricsRecorder,
    Recorder,
    SIM_PID,
    SpanRecorder,
    WALL_PID,
)
from repro.obs.report import (
    hot_queries,
    metrics_to_json,
    render_hot_queries,
    render_metrics_table,
    render_progress,
    render_timeline_summary,
)
from repro.obs.timeline import DEFAULT_HEARTBEAT_INTERVAL, TimelineRecorder

__all__ = [
    "COUNTER_DOCS",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "MetricsRecorder",
    "Recorder",
    "SIM_PID",
    "SpanRecorder",
    "TimelineRecorder",
    "WALL_PID",
    "hot_queries",
    "metrics_to_json",
    "render_hot_queries",
    "render_metrics_table",
    "render_progress",
    "render_timeline_summary",
]
