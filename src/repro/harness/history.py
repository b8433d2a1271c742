"""Bench history and the perf-regression gate.

``repro bench`` used to leave a single ``BENCH_parallel.json``
snapshot — the last run wins, no trajectory, no way to notice that a
"speedup" was measured on a 1-CPU host or that a PR quietly slowed a
suite down.  This module adds the longitudinal half:

* :func:`append_history` flattens a wall-clock payload
  (:func:`repro.harness.wallclock.run`) into one JSONL record per
  ``(suite, workers)`` configuration — keyed by suite / mode / backend
  / worker count and stamped with **honest host metadata** (logical
  *and* effective CPUs, the ``cpu_oversubscribed`` flag) — and appends
  them to a JSONL file (``repro bench --history PATH``), so runs
  accumulate per-configuration trend curves instead of single points
  (the methodology behind the paper's Figs. 7-8);
* :func:`compare` diffs a fresh payload against a committed baseline
  and :func:`render_compare` prints the verdict; ``repro bench
  --compare BENCH_baseline.json`` exits non-zero past the threshold,
  which is what the CI ``bench-regression`` job runs.

The gate is host-aware because wall seconds are only comparable on the
same hardware: when the current host fingerprint (logical/effective
CPUs + platform) matches the baseline's, both wall-time and speedup
regressions gate; when it differs, wall deltas are reported for
information only and the gate falls back to **speedup** — a
host-relative ratio (``seq_wall / mp_wall`` measured on the *same*
box) that stays meaningful across machines.  An artificially inflated
baseline (speedups no honest run can reproduce) therefore fails the
gate on any host.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import InputError

__all__ = [
    "DEFAULT_REGRESSION_THRESHOLD",
    "DEFAULT_MIN_GATED_WALL_S",
    "history_records",
    "append_history",
    "load_history",
    "load_baseline",
    "compare",
    "render_compare",
]

#: Relative slowdown tolerated before the gate trips (0.25 = 25%).
DEFAULT_REGRESSION_THRESHOLD = 0.25

#: Meta keys that fingerprint a host for wall-time comparability.
_HOST_KEYS = ("host_cpus", "host_cpus_effective", "platform")

#: Wall measurements under this many seconds are noise-dominated on a
#: shared host (a smoke suite finishes in tens of milliseconds; two
#: identical runs can differ by 30%+), so they never gate — only
#: report.  Speedup, a ratio of two measurements taken in the *same*
#: run, remains the gate at that scale.
DEFAULT_MIN_GATED_WALL_S = 0.5


def history_records(payload: dict) -> List[dict]:
    """Flatten one wall-clock payload into per-configuration records.

    One record per ``(suite, workers)`` pair, each self-contained (run
    key, timings, host metadata), so the history file can be grepped,
    plotted, or diffed per configuration without reassembling runs.
    """
    meta = payload.get("meta", {})
    stamp = meta.get("timestamp") or time.strftime("%Y-%m-%dT%H:%M:%S%z")
    base = {
        "ts": stamp,
        "mode": meta.get("mode"),
        "backend": meta.get("backend"),
        "smoke": meta.get("smoke", False),
        "host_cpus": meta.get("host_cpus"),
        "host_cpus_effective": meta.get("host_cpus_effective"),
        "cpu_oversubscribed": meta.get("cpu_oversubscribed", False),
        "python": meta.get("python"),
    }
    records = []
    for row in payload.get("suites", []):
        for w, wall in sorted(row["mp_wall_s"].items(), key=lambda kv: int(kv[0])):
            records.append({
                **base,
                "suite": row["name"],
                "workers": int(w),
                "seq_wall_s": row["seq_wall_s"],
                "wall_s": wall,
                "speedup": row["speedup"].get(w),
            })
    return records


def append_history(payload: dict, path: Union[str, Path]) -> int:
    """Append the payload's records to the JSONL history; returns how
    many lines were written."""
    records = history_records(payload)
    path = Path(path)
    with open(path, "a") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def load_history(path: Union[str, Path]) -> List[dict]:
    """All history records at ``path`` (missing file: empty list)."""
    path = Path(path)
    if not path.exists():
        return []
    records = []
    for line in path.read_text().splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records


def load_baseline(path: Union[str, Path]) -> dict:
    """Read a committed baseline payload (the ``BENCH_parallel.json``
    schema); unreadable or malformed input raises
    :class:`~repro.errors.InputError` (CLI exit code 2)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise InputError(f"baseline not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"baseline {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "suites" not in payload:
        raise InputError(
            f"baseline {path} is not a bench payload (no 'suites' key)"
        )
    return payload


def same_host(current_meta: dict, baseline_meta: dict) -> bool:
    """Do the two payloads fingerprint the same hardware?"""
    return all(
        current_meta.get(k) == baseline_meta.get(k) for k in _HOST_KEYS
    )


def compare(
    current: dict,
    baseline: dict,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
    min_wall_s: float = DEFAULT_MIN_GATED_WALL_S,
) -> dict:
    """Diff ``current`` against ``baseline`` per suite/configuration.

    Returns ``{"ok", "same_host", "threshold", "comparisons",
    "regressions", "missing_suites"}``.  Each comparison entry records
    the metric (``seq_wall`` / ``wall`` / ``speedup``), the pair of
    values, the relative ``delta`` (positive = worse), and whether it
    ``gates`` — wall metrics gate only on a matching host fingerprint
    *and* a baseline wall of at least ``min_wall_s`` (see
    :data:`DEFAULT_MIN_GATED_WALL_S`), speedups always gate.  ``ok``
    is False when any gating delta exceeds ``threshold``.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    cur_meta = current.get("meta", {})
    base_meta = baseline.get("meta", {})
    host_match = same_host(cur_meta, base_meta)
    comparisons: List[dict] = []
    regressions: List[dict] = []

    def note(suite: str, workers: Optional[int], metric: str,
             base_v: float, cur_v: float, delta: float, gates: bool) -> None:
        entry = {
            "suite": suite,
            "workers": workers,
            "metric": metric,
            "baseline": round(base_v, 6),
            "current": round(cur_v, 6),
            "delta": round(delta, 4),
            "gates": gates,
        }
        comparisons.append(entry)
        if gates and delta > threshold:
            regressions.append(entry)

    base_suites: Dict[str, dict] = {
        r["name"]: r for r in baseline.get("suites", [])
    }
    missing = []
    for row in current.get("suites", []):
        base = base_suites.get(row["name"])
        if base is None:
            missing.append(row["name"])
            continue
        if base.get("seq_wall_s"):
            delta = (row["seq_wall_s"] - base["seq_wall_s"]) / base["seq_wall_s"]
            note(row["name"], None, "seq_wall",
                 base["seq_wall_s"], row["seq_wall_s"], delta,
                 host_match and base["seq_wall_s"] >= min_wall_s)
        for w, cur_wall in row["mp_wall_s"].items():
            base_wall = base.get("mp_wall_s", {}).get(w)
            if base_wall:
                delta = (cur_wall - base_wall) / base_wall
                note(row["name"], int(w), "wall",
                     base_wall, cur_wall, delta,
                     host_match and base_wall >= min_wall_s)
            base_sp = base.get("speedup", {}).get(w)
            cur_sp = row["speedup"].get(w)
            if base_sp and cur_sp is not None:
                # Positive delta = current speedup fell short of the
                # baseline's by that fraction.
                delta = (base_sp - cur_sp) / base_sp
                note(row["name"], int(w), "speedup",
                     base_sp, cur_sp, delta, True)
    return {
        "ok": not regressions,
        "same_host": host_match,
        "threshold": threshold,
        "comparisons": comparisons,
        "regressions": regressions,
        "missing_suites": missing,
    }


def render_compare(report: dict) -> str:
    """Human-readable verdict table for a :func:`compare` report."""
    lines = [
        f"BASELINE COMPARISON (threshold {report['threshold']:.0%}, "
        f"host fingerprint {'matches' if report['same_host'] else 'differs'}"
        + ("" if report["same_host"]
           else " — wall deltas informational, speedup gates")
        + ")"
    ]
    lines.append(
        f"{'suite':16s} {'cfg':>6s} {'metric':>8s} {'baseline':>10s} "
        f"{'current':>10s} {'delta':>8s}"
    )
    for c in report["comparisons"]:
        cfg = f"x{c['workers']}" if c["workers"] is not None else "seq"
        flag = ""
        if c["delta"] > report["threshold"]:
            flag = "  REGRESSION" if c["gates"] else "  (not gating)"
        lines.append(
            f"{c['suite']:16s} {cfg:>6s} {c['metric']:>8s} "
            f"{c['baseline']:10.3f} {c['current']:10.3f} "
            f"{c['delta']:+7.1%}{flag}"
        )
    for name in report["missing_suites"]:
        lines.append(f"{name:16s}   (not in baseline — skipped)")
    if report["ok"]:
        lines.append("verdict: ok — no gating regression beyond threshold")
    else:
        lines.append(
            f"verdict: {len(report['regressions'])} regression(s) beyond "
            f"{report['threshold']:.0%} — failing"
        )
    return "\n".join(lines)
