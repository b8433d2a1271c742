"""Recorders: counters and spans with a zero-cost-when-off contract.

The contract instrumented code must follow (and the tests enforce):

* the recorder is held in a local and every use is guarded by a single
  truthiness check — ``rec = self.recorder`` then ``if rec: ...``;
  the off value ``None`` short-circuits that guard, so an
  un-instrumented run executes exactly the pre-obs code path;
* the engine's traversal loops are never touched per step.  Per-query
  counters accumulate in the existing :class:`~repro.core.query.QueryState`
  slots and are flushed **once per query** via :meth:`Recorder.record_query`;
* recorders are monotonic: counters only ever increase, and
  :meth:`Recorder.since` diffs two snapshots, so one recorder can span
  many batches and still attribute counts per batch.

:class:`MetricsRecorder` is thread-safe (one lock around a plain dict —
contention is negligible at per-query/per-chunk granularity) but **not**
process-safe: the mp backend gives each worker its own recorder and
merges the serialised snapshots in the coordinator
(:meth:`Recorder.merge`).

:class:`SpanRecorder` adds timestamped spans and emits the Chrome trace
event format (the ``about:tracing`` / Perfetto JSON: ``"X"`` complete
events with microsecond ``ts``/``dur``).
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

__all__ = [
    "Recorder",
    "MetricsRecorder",
    "SpanRecorder",
    "COUNTER_DOCS",
    "WALL_PID",
    "SIM_PID",
]

#: Chrome-trace process lanes: real wall-clock spans vs simulated-clock
#: spans (the sim backend's "seconds" are cost-model units, so mixing
#: the two on one lane would be meaningless).
WALL_PID = 1
SIM_PID = 2

#: What each counter means — the single source of truth behind
#: ``repro batch --metrics`` and DESIGN.md's counter-to-figure mapping.
COUNTER_DOCS: Dict[str, str] = {
    "engine.queries": "queries answered",
    "engine.steps": "budget-semantic steps (the paper's #S)",
    "engine.work": "node pops actually traversed",
    "engine.saved_steps": "steps charged via jmp shortcuts (R_S numerator)",
    "engine.sweeps": "worklist sweeps run",
    "engine.exhausted": "queries whose budget ran out",
    "jumps.lookups": "jump-map reads",
    "jumps.hits": "finished-shortcut hits taken",
    "jumps.misses": "lookups that found no usable entry",
    "jumps.inserts": "jump-edge insertions accepted",
    "jumps.early_terminations": "unfinished-entry early terminations (#ETs)",
    "jumps.publish_suppressed.tau_f": "finished rounds below tau_F, not published",
    "jumps.publish_suppressed.tau_u": "unfinished frames below tau_U, not published",
    "sched.runs": "scheduler invocations",
    "sched.queries": "queries scheduled",
    "sched.components": "direct-relation components touched",
    "sched.groups": "work units emitted",
    "sched.splits": "oversized groups split",
    "sched.merges": "undersized groups merged into a neighbour",
    "sched.plan_builds": "whole-program schedule plans built (CD, components, DD)",
    "mp.dispatches": "chunks dispatched to workers",
    "mp.epoch_ships": "non-empty commit-log suffixes shipped",
    "mp.delta_entries_shipped": "log entries shipped to workers",
    "mp.delta_bytes_shipped": "pickled bytes of shipped log suffixes",
    "mp.delta_entries_merged": "worker delta entries accepted by the coordinator",
    "mp.merge_conflicts": "worker delta entries rejected (first-writer-wins)",
    "mp.requeues": "chunks requeued after a worker failure",
    "mp.crashes": "worker failures observed",
    "mp.respawns": "worker slots respawned",
    "mp.quarantined_chunks": "chunks executed inline by the coordinator",
    "snapshot.bytes": "snapshot bytes written plus bytes read back",
    "snapshot.entries_saved": "jump-map log entries persisted to snapshots",
    "snapshot.entries_loaded": "jump-map log entries read from snapshots",
    "api.sessions": "Session facades constructed",
    "api.pag_builds": "programs parsed and lowered to a PAG",
    "serve.connections": "HTTP connections accepted by the daemon",
    "serve.requests": "HTTP requests accepted by the daemon",
    "serve.jobs": "analysis jobs admitted to the dispatch queue",
    "serve.queries": "client queries answered by the daemon",
    "serve.batches": "multiplexed batches dispatched by the daemon",
    "serve.multiplexed": "jobs coalesced into an already-open batch",
    "serve.rejected_budget": "jobs refused: client step budget exhausted (429)",
    "serve.rejected_queue": "jobs refused: admission queue full (429)",
    "serve.rejected_draining": "jobs refused: daemon draining (503)",
    "serve.drained_jobs": "jobs completed during graceful drain",
    "inc.edits": "incremental session edits applied",
    "inc.entries_invalidated": "finished jmp edges dropped by selective invalidation",
    "inc.entries_survived": "finished jmp edges surviving each edit (summed)",
    "inc.entries_warmed": "entries replayed into an incremental session",
    "inc.queries_invalidated": "cached incremental answers requeued by edits",
    "inc.queries_reused": "incremental queries answered from the session cache",
    "timeline.events": "lifecycle events folded into the timeline",
    "timeline.heartbeats": "worker heartbeat samples received",
    "timeline.stalls": "workers flagged stalled before the unit deadline",
    "matrix.states": "context-expanded (node, ctx) states discovered",
    "matrix.edges": "terminal edges lowered onto the state graph",
    "matrix.fixpoint_rounds": "semi-naive closure rounds to fixpoint",
    "matrix.products": "semi-naive relation products computed",
    "matrix.word_ops": "64-bit words covered by the closure's row ORs",
    "matrix.frontier_bits": "delta bits entering each round (summed)",
    "matrix.routed_bulk": "hybrid batches routed to the bulk kernel",
    "matrix.routed_demand": "hybrid batches routed to the demand engine",
    # per-symbol nnz counters are dynamic: matrix.nnz.<nonterminal>
}


class Recorder:
    """Recorder protocol: every hook is a no-op here.

    Subclasses override what they collect; instrumented code only ever
    calls these methods behind an ``if rec:`` truthiness guard, so the
    base class also documents the full instrumentation surface.
    """

    #: Heartbeat cadence in seconds requested from executors, or
    #: ``None`` when this recorder does not consume heartbeats.  The mp
    #: coordinator and the threaded sampler read this to decide whether
    #: to emit samples at all, so plain counter/span recorders keep the
    #: executors on their pre-telemetry code path.
    heartbeat_interval: Optional[float] = None

    # -- counters ------------------------------------------------------
    def count(self, name: str, delta: int = 1) -> None:
        """Add ``delta`` to the monotonic counter ``name``."""

    def count_many(self, counts: Mapping[str, int]) -> None:
        """Bulk :meth:`count` (one lock acquisition for a whole dict)."""

    def merge(self, counters: Mapping[str, int]) -> None:
        """Fold another recorder's snapshot in (mp aggregation)."""

    def record_query(self, result) -> None:
        """Flush one :class:`~repro.core.query.QueryResult`'s cost
        accounting into the engine counters — the engine's single
        per-query instrumentation point."""

    # -- timeline ------------------------------------------------------
    def event(self, kind: str, **fields) -> None:
        """Record one lifecycle event (``dispatch`` / ``done`` /
        ``crash`` / ``requeue`` / ``respawn`` / ``epoch_ship`` /
        ``stall`` / ``batch_start`` / ``batch_end`` / ...) on the
        recorder's timeline.  A no-op everywhere except
        :class:`~repro.obs.timeline.TimelineRecorder`."""

    def heartbeat(self, worker: int, **sample) -> None:
        """Fold one worker liveness sample into the timeline.  A no-op
        everywhere except
        :class:`~repro.obs.timeline.TimelineRecorder`."""

    # -- snapshots -----------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        """Consistent copy of all counters."""
        return {}

    def mark(self) -> Dict[str, int]:
        """Alias of :meth:`snapshot`, for the diffing idiom
        ``m = rec.mark(); ...; rec.since(m)``."""
        return self.snapshot()

    def since(self, mark: Mapping[str, int]) -> Dict[str, int]:
        """Counters accumulated since ``mark`` (monotonic diff)."""
        return {
            k: v - mark.get(k, 0)
            for k, v in self.snapshot().items()
            if v != mark.get(k, 0)
        }

    # -- spans ---------------------------------------------------------
    def span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        *,
        tid: int = 0,
        pid: int = WALL_PID,
        cat: str = "span",
        args: Optional[dict] = None,
    ) -> None:
        """Record a completed interval on the recorder's own timeline
        (seconds since recorder creation; the sim backend passes its
        simulated clock with ``pid=SIM_PID``)."""

    def span_abs(
        self,
        name: str,
        start_s: float,
        end_s: float,
        *,
        tid: int = 0,
        pid: int = WALL_PID,
        cat: str = "span",
        args: Optional[dict] = None,
    ) -> None:
        """Like :meth:`span` but with absolute ``time.perf_counter()``
        stamps — rebased onto the recorder's zero so spans recorded by
        different components share one timeline."""


class MetricsRecorder(Recorder):
    """Thread-safe monotonic counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}

    def count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + delta

    def count_many(self, counts: Mapping[str, int]) -> None:
        with self._lock:
            c = self._counts
            for name, delta in counts.items():
                if delta:
                    c[name] = c.get(name, 0) + delta

    def merge(self, counters: Mapping[str, int]) -> None:
        self.count_many(counters)

    def record_query(self, result) -> None:
        costs = result.costs
        self.count_many({
            "engine.queries": 1,
            "engine.steps": costs.steps,
            "engine.work": costs.work,
            "engine.saved_steps": costs.saved,
            "engine.sweeps": costs.sweeps,
            "engine.exhausted": 1 if result.exhausted else 0,
            "jumps.lookups": costs.jmp_lookups,
            "jumps.hits": costs.jmp_taken,
            "jumps.misses": costs.jmp_lookups - costs.jmp_taken,
            "jumps.inserts": costs.jmp_inserts,
            "jumps.early_terminations": costs.early_terminations,
            "jumps.publish_suppressed.tau_f": costs.tau_f_suppressed,
            "jumps.publish_suppressed.tau_u": costs.tau_u_suppressed,
        })

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)


class SpanRecorder(MetricsRecorder):
    """Counters plus timestamped spans, emitted as Chrome trace JSON.

    Load the written file in ``chrome://tracing`` or
    https://ui.perfetto.dev — workers appear as threads, the wall-clock
    and simulated-clock lanes as separate processes.
    """

    def __init__(self) -> None:
        super().__init__()
        #: All ``span_abs`` stamps are rebased onto this zero.
        self.zero = time.perf_counter()
        self._events: List[dict] = []

    def span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        *,
        tid: int = 0,
        pid: int = WALL_PID,
        cat: str = "span",
        args: Optional[dict] = None,
    ) -> None:
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": round(start_s * 1e6, 3),
            "dur": round(max(0.0, end_s - start_s) * 1e6, 3),
            "pid": pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        with self._lock:
            self._events.append(event)

    def span_abs(
        self,
        name: str,
        start_s: float,
        end_s: float,
        *,
        tid: int = 0,
        pid: int = WALL_PID,
        cat: str = "span",
        args: Optional[dict] = None,
    ) -> None:
        zero = self.zero
        self.span(
            name, start_s - zero, end_s - zero,
            tid=tid, pid=pid, cat=cat, args=args,
        )

    def events(self) -> List[dict]:
        with self._lock:
            return list(self._events)

    def to_chrome_trace(self) -> dict:
        """The trace document: metadata naming the lanes, then every
        recorded span, plus the final counter totals as trace args."""
        meta = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": WALL_PID,
                "tid": 0,
                "args": {"name": "wall-clock"},
            },
            {
                "name": "process_name",
                "ph": "M",
                "pid": SIM_PID,
                "tid": 0,
                "args": {"name": "simulated-clock"},
            },
        ]
        return {
            "traceEvents": meta + self.events(),
            "displayTimeUnit": "ms",
            "otherData": {"counters": self.snapshot()},
        }

    def write_chrome_trace(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_chrome_trace(), indent=1) + "\n")
        return path
