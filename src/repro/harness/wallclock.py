"""Wall-clock benchmark: SeqCFL vs the true multiprocess backend.

Unlike the simulator-driven tables/figures (whose clock is the cost
model), everything here is measured in **real seconds** on the host:
the sequential baseline is a plain single-process engine run over the
benchmark workload, and each parallel run is ``backend="mp"`` with the
requested worker counts.  ``repro bench --out PATH`` writes the
payload as JSON (the committed ``BENCH_parallel.json`` is one such
run).

Per suite entry the record holds:

* ``seq_wall_s`` — best-of-``repeat`` share-nothing sequential wall;
* ``mp_wall_s``/``speedup`` — wall and speedup per worker count;
* jump-map counters for the sharing run (hits taken, steps saved,
  entries committed, early terminations);
* ``identical`` — byte-identity of the share-nothing mp answers
  against the sequential baseline (the deterministic contract; with
  sharing on, budget-exhausted queries may legitimately differ, so the
  sharing run is checked with subset/exact-on-complete invariants by
  the test suite instead).

``--backend matrix`` swaps the parallel side for the bulk all-pairs
kernel (:mod:`repro.core.matrix`): the worker axis collapses to one
lane and, unless ``--budget`` is given, both sides run at
:data:`MATRIX_EXACT_BUDGET` so the exact kernel is compared against an
equally exact demand baseline.

``python -m repro bench`` is the CLI entry point (``--smoke`` for the
CI-sized variant, ``--faults`` to add the fault-injection drill: a
4-worker share-nothing run with worker 0 killed mid-batch, asserting
the batch completes with zero lost queries, byte-identical answers,
and at least one retried chunk — the recovery paths of
:mod:`repro.runtime.mp` exercised against real process deaths).

``--warm`` adds the cold-vs-warm axis per suite: a cold sequential run
fills a jump map, the map is snapshotted to disk
(:mod:`repro.core.snapshot`), reloaded, replayed into a **fresh**
engine, and the warm run is timed against the cold one.  Both runs use
the exhaustive budget (like ``--backend matrix``) so byte-identity is
a theorem, not a coincidence; the payload gates on ``warm_ok`` — every
suite identical, entries actually loaded, shortcuts actually taken.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import (
    CFLEngine,
    FaultPlan,
    JumpMap,
    ParallelCFL,
    RuntimeConfig,
    hot_queries,
    load_benchmark,
    load_snapshot,
    save_snapshot,
    spec_of,
    suite_names,
)

__all__ = [
    "SuiteBench",
    "run",
    "fault_drill",
    "warm_bench",
    "render",
    "write_json",
    "effective_cpus",
    "DEFAULT_WORKERS",
    "MATRIX_EXACT_BUDGET",
    "SMOKE_SUITES",
    "SMOKE_WORKERS",
    "FAULT_DRILL_WORKERS",
]

DEFAULT_WORKERS: Tuple[int, ...] = (1, 2, 4, 8)

#: Budget forced onto both sides of a ``--backend matrix`` comparison.
#: The bulk kernel computes the exact (never-exhausted) relation, so a
#: budget-truncated demand baseline would diverge by construction; an
#: effectively unlimited budget keeps ``identical`` a real contract.
MATRIX_EXACT_BUDGET = 10**9

#: The CI-sized subset: the three smallest entries by budget/queries.
SMOKE_SUITES: Tuple[str, ...] = ("_200_check", "_999_checkit", "_209_db")
SMOKE_WORKERS: Tuple[int, ...] = (1, 2)

#: Worker count for the ``--faults`` drill (the acceptance scenario:
#: kill 1 of 4 workers mid-batch).
FAULT_DRILL_WORKERS = 4


def effective_cpus() -> Optional[int]:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the host's logical CPUs, but containers
    and cgroup/affinity-restricted CI runners often pin the process to
    fewer — a "speedup" measured there is oversubscription noise, not
    parallelism.  Falls back to ``cpu_count`` where affinity masks
    don't exist (macOS, Windows)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count()


@dataclass
class SuiteBench:
    """Wall-clock record for one suite entry."""

    name: str
    n_queries: int
    n_nodes: int
    n_edges: int
    budget: int
    seq_wall_s: float
    #: worker count -> wall seconds (sharing on, mode D).
    mp_wall_s: Dict[int, float] = field(default_factory=dict)
    #: worker count -> seq_wall_s / mp_wall_s.
    speedup: Dict[int, float] = field(default_factory=dict)
    #: Sharing-run counters at the largest worker count.
    jmp_taken: int = 0
    saved_steps: int = 0
    n_jumps: int = 0
    early_terminations: int = 0
    #: Share-nothing mp answers byte-identical to the seq baseline?
    identical: Optional[bool] = None
    #: Observability counters of the largest-worker run (only when a
    #: recorder was attached, e.g. ``bench --profile``).
    metrics: Dict[str, int] = field(default_factory=dict)
    #: Top hot queries of the largest-worker run (idem).
    hot_queries: List[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "n_queries": self.n_queries,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "budget": self.budget,
            "seq_wall_s": round(self.seq_wall_s, 6),
            "mp_wall_s": {str(w): round(t, 6) for w, t in self.mp_wall_s.items()},
            "speedup": {str(w): round(s, 3) for w, s in self.speedup.items()},
            "jump_stats": {
                "jmp_taken": self.jmp_taken,
                "saved_steps": self.saved_steps,
                "n_jumps": self.n_jumps,
                "early_terminations": self.early_terminations,
            },
            "identical": self.identical,
            **({"metrics": self.metrics} if self.metrics else {}),
            **({"hot_queries": self.hot_queries} if self.hot_queries else {}),
        }


def _seq_wall(build, cfg, queries, repeat: int) -> float:
    """Best-of-``repeat`` wall time of a share-nothing sequential run
    (the honest SeqCFL baseline: one engine, program order, no
    simulator in the loop)."""
    best = float("inf")
    for _ in range(repeat):
        engine = CFLEngine(build.pag, cfg)
        t0 = time.perf_counter()
        for query in queries:
            engine.run_query(query)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_suite(
    name: str,
    workers: Sequence[int] = DEFAULT_WORKERS,
    repeat: int = 1,
    mode: str = "D",
    verify: bool = True,
    backend: str = "mp",
    budget: Optional[int] = None,
    recorder=None,
) -> SuiteBench:
    """Benchmark one suite entry; see the module docstring."""
    spec = spec_of(name)
    build = load_benchmark(name)
    queries = spec.workload()
    cfg = spec.engine_config()
    if budget is not None:
        cfg.budget = budget
    elif backend == "matrix":
        cfg.budget = MATRIX_EXACT_BUDGET
    if backend == "matrix":
        # The bulk kernel answers the whole batch from one fixpoint;
        # worker counts are meaningless, so one lane is the whole sweep.
        workers = (1,)
    row = SuiteBench(
        name=name,
        n_queries=len(queries),
        n_nodes=build.pag.n_nodes,
        n_edges=build.pag.n_edges,
        budget=cfg.budget,
        seq_wall_s=_seq_wall(build, cfg, queries, repeat),
    )

    if verify:
        seq_map = ParallelCFL(
            build, runtime=RuntimeConfig(mode="seq"), engine=cfg
        ).run(queries).points_to_map()
        mp_map = ParallelCFL(
            build,
            runtime=RuntimeConfig(mode="naive", n_threads=max(workers),
                                  backend=backend),
            engine=cfg,
        ).run(queries).points_to_map()
        row.identical = seq_map == mp_map

    for w in sorted(set(workers)):
        best = float("inf")
        batch = None
        for _ in range(repeat):
            runner = ParallelCFL(
                build,
                runtime=RuntimeConfig(mode=mode, n_threads=w, backend=backend),
                engine=cfg,
                recorder=recorder if w == max(workers) else None,
            )
            t_run = time.perf_counter()
            candidate = runner.run(queries)
            if recorder and w == max(workers):
                recorder.span_abs(
                    f"bench {name} x{w}", t_run, time.perf_counter(),
                    tid=0, cat="bench",
                    args={"suite": name, "workers": w, "mode": mode},
                )
            if candidate.makespan < best:
                best = candidate.makespan
                batch = candidate
        row.mp_wall_s[w] = best
        row.speedup[w] = row.seq_wall_s / best if best > 0 else float("inf")
        if w == max(workers):
            row.jmp_taken = sum(
                e.result.costs.jmp_taken for e in batch.executions
            )
            row.saved_steps = batch.total_saved
            row.n_jumps = batch.n_jumps
            row.early_terminations = batch.n_early_terminations
            if recorder:
                row.metrics = dict(batch.metrics)
                row.hot_queries = hot_queries(batch, pag=build.pag, top=5)
    return row


def fault_drill(name: str, workers: int = FAULT_DRILL_WORKERS) -> dict:
    """The acceptance scenario as a benchable smoke check: run the
    suite share-nothing on ``workers`` processes with worker 0 killed
    after its first work unit (and respawned at most once, so the
    killer keeps one survivor down).  Reports whether the batch
    completed with zero lost queries, answers byte-identical to the
    sequential baseline, and at least one chunk recorded as retried.
    """
    spec = spec_of(name)
    build = load_benchmark(name)
    queries = spec.workload()
    cfg = spec.engine_config()

    engine = CFLEngine(build.pag, cfg)
    expected = {
        (q.var, q.ctx): engine.run_query(q).objects for q in queries
    }

    plan = FaultPlan.single("kill", worker=0, after_units=1)
    # mode="naive" is the share-nothing one-query-per-fetch
    # configuration the drill's loss accounting assumes.
    batch = ParallelCFL(
        build,
        runtime=RuntimeConfig(
            mode="naive", backend="mp", n_threads=workers,
            faults=plan, max_respawns=1,
        ),
        engine=cfg,
    ).run(queries)

    lost = len(queries) - batch.n_queries
    identical = lost == 0 and all(
        e.result.objects == expected[(e.result.query.var, e.result.query.ctx)]
        for e in batch.executions
    )
    return {
        "suite": name,
        "workers": workers,
        "n_queries": len(queries),
        "lost": lost,
        "identical": identical,
        "crashes": batch.n_worker_crashes,
        "retries": batch.n_chunk_retries,
        "chunks_retried": batch.n_chunks_retried,
        "chunks_quarantined": batch.n_chunks_quarantined,
        "respawns": batch.n_worker_respawns,
        "ok": bool(
            lost == 0 and identical and batch.n_chunks_retried >= 1
            and batch.n_worker_crashes >= 1
        ),
    }


def warm_bench(
    name: str,
    budget: Optional[int] = None,
    recorder=None,
) -> dict:
    """The cold-vs-warm axis for one suite: does a warm start actually
    skip the epoch-0 rebuild?

    Cold run: a fresh sequential engine over the workload with a fresh
    jump map (τ_F = τ_U = 0 so every completed round publishes — the
    snapshot should hold the point of maximal sharing).  The map is
    then written to a real on-disk snapshot, reloaded (full integrity
    validation included), replayed into a *fresh* map, and a fresh
    engine re-runs the same workload warm.  Both sides run at the
    exhaustive budget unless ``budget`` is given, so the byte-identity
    reported in ``identical`` is the determinism contract, not luck.
    """
    import tempfile

    spec = spec_of(name)
    build = load_benchmark(name)
    queries = spec.workload()
    cfg = spec.engine_config(
        budget=budget if budget is not None else MATRIX_EXACT_BUDGET,
        tau_f=0, tau_u=0,
    )

    cold_map = JumpMap()
    cold_engine = CFLEngine(build.pag, cfg, jumps=cold_map)
    t0 = time.perf_counter()
    cold = {(q.var, q.ctx): cold_engine.run_query(q) for q in queries}
    cold_wall = time.perf_counter() - t0

    with tempfile.TemporaryDirectory() as tmp:
        snap_path = Path(tmp) / f"{name}.snap"
        save_snapshot(
            snap_path, build.pag, cold_map.export_log(), recorder=recorder,
        )
        snapshot_bytes = snap_path.stat().st_size
        snap = load_snapshot(
            snap_path, expect_pag=build.pag, recorder=recorder,
        )

    warm_map = JumpMap()
    entries_loaded = warm_map.warm_from(snap.log)
    warm_engine = CFLEngine(build.pag, cfg, jumps=warm_map)
    t0 = time.perf_counter()
    warm = {(q.var, q.ctx): warm_engine.run_query(q) for q in queries}
    warm_wall = time.perf_counter() - t0

    jmp_taken = sum(r.costs.jmp_taken for r in warm.values())
    identical = all(
        warm[k].points_to == cold[k].points_to
        and warm[k].exhausted == cold[k].exhausted
        for k in cold
    )
    return {
        "suite": name,
        "n_queries": len(queries),
        "budget": cfg.budget,
        "cold_wall_s": round(cold_wall, 6),
        "warm_wall_s": round(warm_wall, 6),
        "warm_speedup": round(cold_wall / warm_wall, 3) if warm_wall > 0 else float("inf"),
        "snapshot_bytes": snapshot_bytes,
        "entries_loaded": entries_loaded,
        "warm_jmp_taken": jmp_taken,
        "identical": identical,
        "ok": bool(identical and entries_loaded > 0 and jmp_taken > 0),
    }


def run(
    benchmarks: Optional[Sequence[str]] = None,
    workers: Sequence[int] = DEFAULT_WORKERS,
    repeat: int = 1,
    mode: str = "D",
    verify: bool = True,
    smoke: bool = False,
    faults: bool = False,
    backend: str = "mp",
    budget: Optional[int] = None,
    warm: bool = False,
    recorder=None,
) -> dict:
    """Run the wall-clock comparison; returns the JSON-ready payload."""
    if smoke:
        benchmarks = list(benchmarks or SMOKE_SUITES)
        workers = list(workers if tuple(workers) != DEFAULT_WORKERS else SMOKE_WORKERS)
    if backend == "matrix":
        workers = (1,)  # kept in sync with bench_suite's collapse
    names = list(benchmarks) if benchmarks else suite_names()
    rows = [
        bench_suite(name, workers=workers, repeat=repeat, mode=mode,
                    verify=verify, backend=backend, budget=budget,
                    recorder=recorder)
        for name in names
    ]
    best = None
    for row in rows:
        for w, s in row.speedup.items():
            if best is None or s > best[2]:
                best = (row.name, w, s)
    eff = effective_cpus()
    max_workers = max(workers) if workers else 1
    payload = {
        "meta": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "host_cpus": os.cpu_count(),
            "host_cpus_effective": eff,
            "cpu_oversubscribed": bool(eff is not None and max_workers > eff),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "mode": mode,
            "backend": backend,
            "workers": sorted(set(workers)),
            "repeat": repeat,
            "smoke": smoke,
            "faults": faults,
            "warm": warm,
        },
        "suites": [row.as_dict() for row in rows],
        "best_speedup": (
            {"suite": best[0], "workers": best[1], "speedup": round(best[2], 3)}
            if best
            else None
        ),
        "all_identical": all(r.identical in (True, None) for r in rows),
    }
    if faults:
        drills = [fault_drill(name) for name in names]
        payload["fault_drill"] = drills
        payload["faults_ok"] = all(d["ok"] for d in drills)
    if warm:
        warms = [warm_bench(name, budget=budget, recorder=recorder)
                 for name in names]
        payload["warm_axis"] = warms
        payload["warm_ok"] = all(w["ok"] for w in warms)
    return payload


def render(payload: dict) -> str:
    """Human-readable table of the payload."""
    meta = payload["meta"]
    workers = meta["workers"]
    eff = meta.get("host_cpus_effective")
    cpus = f"{meta['host_cpus']} host cpus"
    if eff is not None and eff != meta["host_cpus"]:
        cpus += f" ({eff} effective)"
    head = (
        f"WALL-CLOCK seq vs {meta.get('backend', 'mp')} (mode {meta['mode']}, "
        f"{cpus}, repeat {meta['repeat']})"
    )
    be = meta.get("backend", "mp")
    cols = "".join(f"  {be + ' x' + str(w):>9s}" for w in workers)
    lines = [head, f"{'benchmark':16s} {'queries':>7s} {'seq (s)':>9s}{cols}  {'ident':>5s}"]
    if meta.get("cpu_oversubscribed"):
        lines.insert(1, (
            f"WARNING: cpu oversubscribed — up to {max(workers)} workers on "
            f"{eff} effective cpu(s); wall times and speedups measure "
            f"scheduling contention, not parallelism"
        ))
    for row in payload["suites"]:
        cells = ""
        for w in workers:
            wall = row["mp_wall_s"].get(str(w))
            sp = row["speedup"].get(str(w))
            cells += f"  {sp:8.2f}x" if wall is not None else f"  {'-':>9s}"
        ident = {True: "yes", False: "NO", None: "-"}[row["identical"]]
        lines.append(
            f"{row['name']:16s} {row['n_queries']:7d} {row['seq_wall_s']:9.3f}"
            f"{cells}  {ident:>5s}"
        )
    best = payload.get("best_speedup")
    if best:
        lines.append(
            f"best speedup: {best['speedup']:.2f}x on {best['suite']} "
            f"with {best['workers']} workers"
        )
    drills = payload.get("fault_drill")
    if drills:
        lines.append(
            f"FAULT DRILL (kill worker 0 of "
            f"{drills[0]['workers']} after 1 unit, share-nothing)"
        )
        for d in drills:
            verdict = "ok" if d["ok"] else "FAILED"
            lines.append(
                f"{d['suite']:16s} lost={d['lost']} "
                f"identical={'yes' if d['identical'] else 'NO'} "
                f"crashes={d['crashes']} retried={d['chunks_retried']} "
                f"quarantined={d['chunks_quarantined']} "
                f"respawns={d['respawns']}  [{verdict}]"
            )
    warms = payload.get("warm_axis")
    if warms:
        lines.append(
            "WARM START (cold run -> snapshot -> reload -> warm run, "
            "exhaustive budget)"
        )
        for w in warms:
            verdict = "ok" if w["ok"] else "FAILED"
            lines.append(
                f"{w['suite']:16s} cold={w['cold_wall_s']:.3f}s "
                f"warm={w['warm_wall_s']:.3f}s "
                f"speedup={w['warm_speedup']:.2f}x "
                f"loaded={w['entries_loaded']} hits={w['warm_jmp_taken']} "
                f"snap={w['snapshot_bytes']}B "
                f"identical={'yes' if w['identical'] else 'NO'}  [{verdict}]"
            )
    return "\n".join(lines)


def write_json(payload: dict, path: Path) -> Path:
    """Write the payload to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
