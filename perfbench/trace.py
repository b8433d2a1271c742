"""Traced runs: timing wrappers around each layer's public entry points.

A :class:`Tracer` replaces the functions listed in :data:`WRAP_TARGETS`
where their callers look them up (``schedule_queries`` in the executor's
namespace, ``parse_program`` in ``repro.api``'s, methods on their
classes), records one span per call in memory, and restores every
original on exit.  Nothing under ``src/`` changes; an untraced run never
constructs a tracer, which :func:`wrapped_targets` lets a caller verify.

Self time: spans on one thread nest, so a span's self time is its
interval minus its direct children's.  The benchmark brackets each
caller-visible operation in a ``bench.*`` root span; every instant inside
a root is then owned by exactly one innermost span, so the per-layer
self times add up to the roots' wall time.  The roots' own self time is
reported as ``unattributed``.  Work a layer hands to worker threads
(``runtime.threaded`` waiting on engine threads) is split off by overlap
with those threads' ``engine.query`` spans.
"""

from __future__ import annotations

import importlib
import statistics
import threading
import time
from bisect import bisect_left
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

#: (module, class or None, attribute, span name).  Order matters where
#: one target inherits another: ``TracingEngine.points_to`` is wrapped
#: before ``CFLEngine.points_to`` so tracing queries are not also
#: counted as engine queries.
WRAP_TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.api", None, "parse_program", "ir.parse"),
    ("repro.api", None, "build_pag", "pag.build"),
    ("repro.pag.build", None, "build_call_graph", "pag.callgraph"),
    ("repro.api", None, "load_snapshot", "snapshot.load"),
    ("repro.api", "Session", "batch", "api.batch"),
    ("repro.runtime.executor", None, "schedule_queries", "sched.schedule"),
    ("repro.runtime.executor", "ParallelCFL", "run", "runtime.run"),
    ("repro.runtime.threaded", "ThreadedExecutor", "run_units", "runtime.threaded"),
    ("repro.runtime.mp", "MPExecutor", "run_units", "mp.batch"),
    ("repro.core.matrix", "MatrixKernel", "run_batch", "matrix.kernel"),
    ("repro.core.tracing", "TracingEngine", "points_to", "tracing.trace"),
    ("repro.core.tracing", "TracingEngine", "explain", "tracing.trace"),
    ("repro.core.engine", "CFLEngine", "points_to", "engine.query"),
    ("repro.core.incremental", "IncrementalAnalysis", "points_to", "inc.query"),
    ("repro.core.incremental", "IncrementalAnalysis", "add_assign_edge", "inc.edit"),
    ("repro.core.incremental", "IncrementalAnalysis", "add_load_edge", "inc.edit"),
    ("repro.core.incremental", "IncrementalAnalysis", "add_store_edge", "inc.edit"),
    ("repro.serve", "AnalysisService", "submit_queries", "serve.submit"),
)

_MARK = "__perfbench_span__"
UNATTRIBUTED = "unattributed"


class Span(NamedTuple):
    name: str
    tid: int
    start: float
    end: float
    #: Input size where one is meaningful (characters parsed), else 0.
    size: int = 0

    @property
    def dur(self) -> float:
        return self.end - self.start


def _owner(module: str, cls: Optional[str]):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def wrapped_targets() -> List[str]:
    """``module[.Class].attr`` of every target currently wrapped."""
    return [
        ".".join(p for p in (module, cls, attr) if p)
        for module, cls, attr, _ in WRAP_TARGETS
        if hasattr(getattr(_owner(module, cls), attr), _MARK)
    ]


class Tracer:
    """Spans in memory; wrappers live only inside ``with tracer:``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._restore: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, cls, attr, name in WRAP_TARGETS:
            owner = _owner(module, cls)
            own = vars(owner).get(attr) if cls else getattr(owner, attr)
            self._restore.append((owner, attr, own))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name))
        return self

    def __exit__(self, *exc: object) -> None:
        while self._restore:
            owner, attr, own = self._restore.pop()
            if own is None:
                delattr(owner, attr)  # the class inherited it
            else:
                setattr(owner, attr, own)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans = self.spans
        sized = name == "ir.parse"
        perf = time.perf_counter
        ident = threading.get_ident

        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                size = len(args[0]) if sized and args else 0
                spans.append(Span(name, ident(), t0, perf(), size))

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, _MARK, name)
        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A benchmark-owned span (``bench.*`` roots)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(name, threading.get_ident(), t0, time.perf_counter()))


# ----------------------------------------------------------------------
# interval arithmetic
# ----------------------------------------------------------------------
Segment = Tuple[float, float, str]


def merge(intervals: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Union of intervals as sorted disjoint intervals."""
    out: List[Tuple[float, float]] = []
    for s, e in sorted(intervals):
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


def overlap(a: Tuple[float, float], disjoint: Sequence[Tuple[float, float]]) -> float:
    """Length of ``a`` covered by sorted disjoint intervals."""
    total = 0.0
    i = max(0, bisect_left(disjoint, (a[0], a[0])) - 1)
    while i < len(disjoint) and disjoint[i][0] < a[1]:
        total += max(0.0, min(a[1], disjoint[i][1]) - max(a[0], disjoint[i][0]))
        i += 1
    return total


def self_segments(spans: Sequence[Span]) -> List[Segment]:
    """Flatten one thread's nested spans into disjoint segments, each
    labelled with its innermost span (roots' own time: unattributed)."""
    ordered = sorted(spans, key=lambda s: (s.start, -s.end))
    children: Dict[int, List[Span]] = defaultdict(list)
    stack: List[Tuple[int, Span]] = []
    for i, span in enumerate(ordered):
        while stack and stack[-1][1].end <= span.start:
            stack.pop()
        if stack:
            children[stack[-1][0]].append(span)
        stack.append((i, span))
    out: List[Segment] = []
    for i, span in enumerate(ordered):
        label = UNATTRIBUTED if span.name.startswith("bench.") else span.name
        cursor = span.start
        for child in children[i]:
            if child.start > cursor:
                out.append((cursor, child.start, label))
            cursor = max(cursor, child.end)
        if span.end > cursor:
            out.append((cursor, span.end, label))
    out.sort()
    return out


def delegate(segments: Sequence[Segment], label: str,
             busy: Sequence[Tuple[float, float]], to: str) -> List[Segment]:
    """Relabel the parts of ``label`` segments that overlap ``busy``
    (sorted disjoint intervals on other threads) as ``to``."""
    out: List[Segment] = []
    for s, e, lab in segments:
        if lab != label:
            out.append((s, e, lab))
            continue
        cursor = s
        for bs, be in busy:
            if be <= cursor or bs >= e:
                continue
            if bs > cursor:
                out.append((cursor, bs, lab))
            out.append((max(cursor, bs), min(e, be), to))
            cursor = min(e, be)
        if cursor < e:
            out.append((cursor, e, lab))
    return out


def attribute(intervals: Sequence[Tuple[float, float]],
              segments: Sequence[Segment]) -> Dict[str, float]:
    """Seconds of each label's segments inside each of ``intervals``
    (summed, so an instant two intervals share counts twice)."""
    starts = [s for s, _, _ in segments]
    out: Dict[str, float] = defaultdict(float)
    for a, b in intervals:
        i = max(0, bisect_left(starts, a) - 1)
        while i < len(segments) and segments[i][0] < b:
            s, e, lab = segments[i]
            cover = min(b, e) - max(a, s)
            if cover > 0:
                out[lab] += cover
            i += 1
    return dict(out)


def thread_table(spans: Sequence[Span]) -> Tuple[float, Dict[str, float]]:
    """Reconciled self-time table over the ``bench.*`` roots: (total
    root wall, seconds per layer).  Engine work on worker threads is
    carved out of ``runtime.threaded``."""
    roots = [s for s in spans if s.name.startswith("bench.")]
    tids = {s.tid for s in roots}
    own = [s for s in spans if s.tid in tids]
    workers = merge([(s.start, s.end) for s in spans
                     if s.tid not in tids and s.name == "engine.query"])
    segments = delegate(self_segments(own), "runtime.threaded", workers, "engine.query")
    return sum(s.dur for s in roots), attribute([(s.start, s.end) for s in roots], segments)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: Counters reported per request (``count/req``), named as in repro.obs.
PER_REQUEST_COUNTERS = (
    "sched.runs", "sched.groups",
    "mp.dispatches", "mp.epoch_ships", "mp.delta_bytes_shipped",
    "mp.merge_conflicts", "mp.crashes", "mp.requeues",
    "engine.steps", "engine.work", "engine.sweeps", "engine.exhausted",
    "jumps.lookups", "jumps.hits", "jumps.inserts", "jumps.early_terminations",
    "matrix.states", "matrix.fixpoint_rounds", "matrix.products",
    "matrix.word_ops", "matrix.routed_bulk", "matrix.routed_demand",
    "inc.entries_invalidated", "inc.entries_survived",
    "inc.queries_invalidated", "inc.queries_reused",
    "serve.batches", "serve.jobs",
)

#: Mean wall of one call into the layer, in ms.
PER_CALL_MS = {
    "ir.parse_ms": "ir.parse",
    "pag.build_ms": "pag.build",
    "sched.schedule_ms": "sched.schedule",
    "runtime.run_ms": "runtime.run",
    "mp.batch_ms": "mp.batch",
    "engine.query_ms": "engine.query",
    "matrix.kernel_ms": "matrix.kernel",
    "inc.edit_ms": "inc.edit",
    "snapshot.load_ms": "snapshot.load",
}

#: Every per-layer metric and its unit (BENCHMARK.json's ``per_layer``).
PER_LAYER: Dict[str, str] = {
    "ir.parse_ms": "ms", "ir.kchars_per_s": "1/s",
    "pag.build_ms": "ms", "pag.nodes": "count", "pag.edges": "count",
    "sched.schedule_ms": "ms", "sched.share": "ratio",
    "runtime.run_ms": "ms", "runtime.overhead_ms": "ms",
    "mp.batch_ms": "ms",
    "engine.query_ms": "ms",
    "jumps.hit_ratio": "ratio",
    "matrix.kernel_ms": "ms",
    "inc.edit_ms": "ms", "inc.requery_ms": "ms", "inc.reuse_ratio": "ratio",
    "tracing.trace_ms": "ms",
    "snapshot.load_ms": "ms", "snapshot.bytes": "B", "snapshot.entries_loaded": "count",
    "serve.batch_ms": "ms", "serve.wait_ms": "ms", "serve.http_ms": "ms",
    "serve.multiplex_ratio": "ratio",
    "bench.unattributed_ms": "ms",
    "trace.overhead_frac": "ratio",
    **{name: "count/req" for name in PER_REQUEST_COUNTERS},
}


def _mean_ms(spans: Sequence[Span], name: str) -> float:
    durs = [s.dur for s in spans if s.name == name]
    return 1000.0 * statistics.fmean(durs) if durs else 0.0


def _runtime_overhead_ms(spans: Sequence[Span]) -> float:
    """Mean per ``ParallelCFL.run`` of its wall minus scheduling minus
    the executor's engine/kernel/worker-pool time."""
    runs = [s for s in spans if s.name == "runtime.run"]
    if not runs:
        return 0.0
    sched = merge([(s.start, s.end) for s in spans if s.name == "sched.schedule"])
    work = merge([(s.start, s.end) for s in spans
                  if s.name in ("engine.query", "mp.batch", "matrix.kernel")])
    rest = [r.dur - overlap((r.start, r.end), sched) - overlap((r.start, r.end), work)
            for r in runs]
    return 1000.0 * statistics.fmean(rest)


def layer_metrics(spans: Sequence[Span], counters: Dict[str, int], n_requests: int,
                  unattributed_s: float, extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced phase.  ``extra`` supplies what
    only the workload knows (PAG sizes, serve timings, snapshot facts)."""
    out: Dict[str, float] = {k: _mean_ms(spans, v) for k, v in PER_CALL_MS.items()}
    parses = [s for s in spans if s.name == "ir.parse"]
    parse_s = sum(s.dur for s in parses)
    out["ir.kchars_per_s"] = sum(s.size for s in parses) / parse_s / 1000.0 if parse_s else 0.0
    batch_s = sum(s.dur for s in spans if s.name == "api.batch")
    sched_s = sum(s.dur for s in spans if s.name == "sched.schedule")
    out["sched.share"] = sched_s / batch_s if batch_s else 0.0
    out["runtime.overhead_ms"] = _runtime_overhead_ms(spans)
    lookups = counters.get("jumps.lookups", 0)
    out["jumps.hit_ratio"] = counters.get("jumps.hits", 0) / lookups if lookups else 0.0
    # Re-queries are the session queries inside edit transactions (the
    # set-up's first pass runs through the same entry point).
    txns = merge([(s.start, s.end) for s in spans if s.name == "bench.txn"])
    requeries = [s.dur for s in spans
                 if s.name == "inc.query" and overlap((s.start, s.end), txns) > 0]
    out["inc.requery_ms"] = 1000.0 * statistics.fmean(requeries) if requeries else 0.0
    reused = counters.get("inc.queries_reused", 0)
    out["inc.reuse_ratio"] = reused / len(requeries) if requeries else 0.0
    # Witness tracing per transaction: one points-to plus one explain
    # per object, all under the tracing.trace name.
    n_txns = sum(1 for s in spans if s.name == "bench.txn")
    traced = sum(s.dur for s in spans if s.name == "tracing.trace")
    out["tracing.trace_ms"] = 1000.0 * traced / n_txns if n_txns else 0.0
    jobs, batches = counters.get("serve.jobs", 0), counters.get("serve.batches", 0)
    out["serve.multiplex_ratio"] = jobs / batches if batches else 0.0
    for name in PER_REQUEST_COUNTERS:
        out[name] = counters.get(name, 0) / n_requests
    out["bench.unattributed_ms"] = 1000.0 * unattributed_s / n_requests
    for key in ("pag.nodes", "pag.edges", "snapshot.bytes", "snapshot.entries_loaded",
                "serve.batch_ms", "serve.wait_ms", "serve.http_ms", "trace.overhead_frac"):
        out[key] = 0.0
    out.update(extra)
    return out
