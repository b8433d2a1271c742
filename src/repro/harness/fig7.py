"""Fig. 7 — histograms of ``jmp`` edges by steps saved per edge.

``Finished``/``Unfinished`` count the jmp edges added during a
16-thread DQ run **without** the selective-insertion optimisation
(τ_F = τ_U = 0); ``Finished_opt``/``Unfinished_opt`` with it
(benchmark-scaled thresholds, Section IV-A).  Buckets are powers of two
of the per-edge ``s`` value, as in the paper's x-axis (2⁰ .. 2¹⁶).

The harness also reports the speedup impact of the optimisation —
the paper observes the average dropping 16.2× → 12.4× without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.api import (
    JumpMap,
    RuntimeConfig,
    Session,
    load_benchmark,
    spec_of,
    suite_names,
)
from repro.harness.report import ascii_histogram
from repro.harness.runner import DEFAULT_THREADS

__all__ = ["Fig7Result", "run", "render", "N_BUCKETS"]

N_BUCKETS = 17  # 2^0 .. 2^16


@dataclass
class Fig7Result:
    buckets: List[str]
    finished: List[int]
    unfinished: List[int]
    finished_opt: List[int]
    unfinished_opt: List[int]
    avg_speedup_opt: float
    avg_speedup_noopt: float


def _bucket(steps: int) -> int:
    b = max(0, steps).bit_length() - 1 if steps > 0 else 0
    return min(max(b, 0), N_BUCKETS - 1)


def _collect(jumps: JumpMap) -> Dict[str, List[int]]:
    fin = [0] * N_BUCKETS
    unf = [0] * N_BUCKETS
    for _key, edges in jumps.finished_items():
        for e in edges:
            fin[_bucket(e.steps)] += 1
    for _key, steps in jumps.unfinished_items():
        unf[_bucket(steps)] += 1
    return {"finished": fin, "unfinished": unf}


def run(
    names: Optional[Sequence[str]] = None, n_threads: int = DEFAULT_THREADS
) -> Fig7Result:
    names = list(names or suite_names())
    totals = {
        "finished": [0] * N_BUCKETS,
        "unfinished": [0] * N_BUCKETS,
        "finished_opt": [0] * N_BUCKETS,
        "unfinished_opt": [0] * N_BUCKETS,
    }
    speed_opt: List[float] = []
    speed_noopt: List[float] = []
    for name in names:
        spec = spec_of(name)
        build = load_benchmark(name)
        queries = spec.workload()
        seq = Session.from_build(
            build,
            engine=spec.engine_config(),
            runtime=RuntimeConfig(mode="seq", n_threads=1),
        ).batch(queries)
        for tag, cfg in (
            ("", spec.engine_config(tau_f=0, tau_u=0)),
            ("_opt", spec.engine_config()),
        ):
            # Every runner of a session runs on its one map, seq's,
            # which the histogram reads.
            session = Session.from_build(
                build,
                engine=cfg,
                runtime=RuntimeConfig(mode="DQ", n_threads=n_threads),
            )
            batch = session.batch(queries)
            jumps = session.seq.jumps
            hist = _collect(jumps)
            totals[f"finished{tag}"] = [
                a + b for a, b in zip(totals[f"finished{tag}"], hist["finished"])
            ]
            totals[f"unfinished{tag}"] = [
                a + b for a, b in zip(totals[f"unfinished{tag}"], hist["unfinished"])
            ]
            (speed_opt if tag else speed_noopt).append(batch.speedup_over(seq))
    return Fig7Result(
        buckets=[f"2^{i}" for i in range(N_BUCKETS)],
        finished=totals["finished"],
        unfinished=totals["unfinished"],
        finished_opt=totals["finished_opt"],
        unfinished_opt=totals["unfinished_opt"],
        avg_speedup_opt=sum(speed_opt) / len(speed_opt),
        avg_speedup_noopt=sum(speed_noopt) / len(speed_noopt),
    )


def render(result: Fig7Result) -> str:
    hist = ascii_histogram(
        result.buckets,
        {
            "Finished": result.finished,
            "Finished_opt": result.finished_opt,
            "Unfinished": result.unfinished,
            "Unfinished_opt": result.unfinished_opt,
        },
        width=24,
    )
    return (
        "Fig. 7: Histograms of jmp edges by steps saved per jmp.\n"
        f"{hist}\n\n"
        f"Average DQ speedup with selective insertion:    "
        f"{result.avg_speedup_opt:.1f}x\n"
        f"Average DQ speedup without selective insertion: "
        f"{result.avg_speedup_noopt:.1f}x\n"
        "(paper: 16.2x with, 12.4x without)"
    )
