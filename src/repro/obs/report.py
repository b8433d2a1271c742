"""Human- and machine-readable views over recorded metrics.

``render_metrics_table`` groups the dotted counter namespace
(``engine.* / jumps.* / sched.* / mp.*``) into sections with the
:data:`~repro.obs.recorder.COUNTER_DOCS` descriptions;
``render_hot_queries`` is the flamegraph-style top-N report: the
queries that dominated a batch's wall (or simulated) time, with a
proportional bar so the skew is visible in a terminal;
``render_progress`` and ``render_timeline_summary`` are the live and
post-hoc views over a :class:`~repro.obs.timeline.TimelineRecorder`'s
event stream.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping

from repro.obs.recorder import COUNTER_DOCS

__all__ = [
    "render_metrics_table",
    "metrics_to_json",
    "hot_queries",
    "render_hot_queries",
    "render_progress",
    "render_timeline_summary",
]


def render_metrics_table(metrics: Mapping[str, int], title: str = "METRICS") -> str:
    """Counters grouped by namespace prefix, zero-valued ones included
    (a zero is informative: e.g. ``jumps.hits == 0`` on mode=naive)."""
    if not metrics:
        return f"{title}: no counters recorded"
    by_section: Dict[str, List[str]] = {}
    width = max(len(k) for k in metrics)
    for name in sorted(metrics):
        section = name.split(".", 1)[0]
        doc = COUNTER_DOCS.get(name, "")
        by_section.setdefault(section, []).append(
            f"  {name:{width}s} {metrics[name]:>12,d}  {doc}"
        )
    lines = [title]
    for section in sorted(by_section):
        lines.append(f"[{section}]")
        lines.extend(by_section[section])
    return "\n".join(lines)


def metrics_to_json(metrics: Mapping[str, int]) -> str:
    return json.dumps(dict(sorted(metrics.items())), indent=2)


def hot_queries(batch, pag=None, top: int = 10) -> List[dict]:
    """The ``top`` most expensive query executions of a batch, by
    duration (wall seconds on real backends, cost-model units on sim).

    Ties are broken by ``(var, ctx)`` so the report is deterministic —
    equal-duration queries (common on the sim backend, whose clock is
    quantised cost-model units) would otherwise surface in whatever
    order the executor happened to finish them.
    """
    ranked = sorted(
        batch.executions,
        key=lambda e: (-e.duration, e.result.query.var, e.result.query.ctx),
    )[:top]
    out = []
    for e in ranked:
        q = e.result.query
        label = pag.name(q.var) if pag is not None else f"node{q.var}"
        if q.ctx:
            label += f"@{','.join(str(s) for s in q.ctx)}"
        out.append(
            {
                "query": label,
                "var": q.var,
                "duration": e.duration,
                "worker": e.worker,
                "steps": e.result.costs.steps,
                "work": e.result.costs.work,
                "jmp_taken": e.result.costs.jmp_taken,
                "exhausted": e.result.exhausted,
            }
        )
    return out


def render_hot_queries(batch, pag=None, top: int = 10, bar_width: int = 30) -> str:
    """Top-N hot queries with proportional bars (the flamegraph view,
    flattened to one frame per query — queries are independent, so the
    interesting shape is the skew, not a call hierarchy)."""
    rows = hot_queries(batch, pag=pag, top=top)
    if not rows:
        return "HOT QUERIES: batch is empty"
    total = sum(e.duration for e in batch.executions) or 1.0
    qwidth = max(5, max(len(r["query"]) for r in rows))
    lines = [
        f"HOT QUERIES (top {len(rows)} of {batch.n_queries}, "
        f"share of total query time)"
    ]
    for r in rows:
        share = r["duration"] / total
        bar = "#" * max(1, round(share * bar_width))
        flag = " [exhausted]" if r["exhausted"] else ""
        lines.append(
            f"  {r['query']:{qwidth}s} {r['duration']:10.4f}s "
            f"{share:6.1%} {bar:{bar_width}s} "
            f"steps={r['steps']}{flag}"
        )
    return "\n".join(lines)


def render_progress(timeline) -> str:
    """One-line live progress report from a
    :class:`~repro.obs.timeline.TimelineRecorder`: queries done/total,
    aggregate and per-worker rates, epoch lag, crash/stall counts."""
    snap = timeline.progress_snapshot()
    total = snap["total"]
    done = f"{snap['done']}/{total}" if total is not None else str(snap["done"])
    parts = [
        f"progress {done} queries",
        f"{snap['rate']:.1f} q/s",
    ]
    rates = timeline.worker_rates()
    if rates:
        per_worker = " ".join(
            f"w{w}:{r:.1f}" for w, r in sorted(rates.items())
        )
        parts.append(f"per-worker q/s [{per_worker}]")
    if snap["epoch_lag"]:
        parts.append(f"epoch lag {snap['epoch_lag']}")
    if snap["crashes"]:
        parts.append(f"crashes {snap['crashes']}")
    if snap["stalls"]:
        parts.append(f"stalls {snap['stalls']}")
    parts.append(f"{snap['elapsed_s']:.1f}s")
    return " | ".join(parts)


def render_timeline_summary(timeline) -> str:
    """Post-hoc digest of a timeline: event counts by kind plus the
    stall verdicts (worker, chunk, silence length) so a glance shows
    whether the batch ran clean."""
    events = timeline.timeline_events()
    if not events:
        return "TIMELINE: no events recorded"
    by_kind: Dict[str, int] = {}
    for e in events:
        by_kind[e["kind"]] = by_kind.get(e["kind"], 0) + 1
    lines = [f"TIMELINE ({len(events)} events)"]
    width = max(len(k) for k in by_kind)
    for kind in sorted(by_kind):
        lines.append(f"  {kind:{width}s} {by_kind[kind]:>8,d}")
    stalls = [e for e in events if e["kind"] == "stall"]
    for s in stalls:
        lines.append(
            f"  stall: worker {s.get('worker')} on chunk {s.get('chunk')} "
            f"silent {s.get('silent_s', 0.0):.2f}s at t={s['t']:.2f}s"
        )
    return "\n".join(lines)
