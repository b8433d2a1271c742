"""Fig. 8 — scalability: PARCFL-DQ speedups at t ∈ {1, 2, 4, 8, 16}.

Paper averages: 8.1 / 11.8 / 13.9 / 15.8 / 16.2, scaling well to 8
threads with a knee from 8 to 16 (cross-socket) and a few per-benchmark
regressions (worst case ``_209_db``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import (
    ParallelCFL,
    RuntimeConfig,
    load_benchmark,
    spec_of,
    suite_names,
)
from repro.harness.report import ascii_table, to_csv

__all__ = ["Fig8Row", "THREAD_COUNTS", "run", "render", "averages"]

THREAD_COUNTS: Tuple[int, ...] = (1, 2, 4, 8, 16)
HEADERS = ("Benchmark",) + tuple(f"DQ x{t}" for t in THREAD_COUNTS)


@dataclass
class Fig8Row:
    name: str
    speedups: Dict[int, float]

    def as_tuple(self) -> tuple:
        return (self.name,) + tuple(
            round(self.speedups[t], 1) for t in THREAD_COUNTS
        )

    @property
    def drops_8_to_16(self) -> bool:
        return self.speedups[16] < self.speedups[8]


def run(names: Optional[Sequence[str]] = None) -> List[Fig8Row]:
    rows: List[Fig8Row] = []
    for name in names or suite_names():
        spec = spec_of(name)
        build = load_benchmark(name)
        queries = spec.workload()
        cfg = spec.engine_config()
        seq = ParallelCFL(
            build, runtime=RuntimeConfig(mode="seq"), engine=cfg
        ).run(queries)
        speedups: Dict[int, float] = {}
        for t in THREAD_COUNTS:
            batch = ParallelCFL(
                build,
                runtime=RuntimeConfig(mode="DQ", n_threads=t),
                engine=cfg,
            ).run(queries)
            speedups[t] = batch.speedup_over(seq)
        rows.append(Fig8Row(name, speedups))
    return rows


def averages(rows: Sequence[Fig8Row]) -> Fig8Row:
    return Fig8Row(
        "AVERAGE",
        {
            t: sum(r.speedups[t] for r in rows) / len(rows)
            for t in THREAD_COUNTS
        },
    )


def render(rows: Sequence[Fig8Row]) -> str:
    data = [r.as_tuple() for r in rows]
    if len(rows) > 1:
        data.append(averages(rows).as_tuple())
    drops = [r.name for r in rows if r.drops_8_to_16]
    return (
        "Fig. 8: Speedups of PARCFL-DQ with different thread counts "
        "(normalised to SeqCFL).\n"
        + ascii_table(HEADERS, data)
        + f"\n\nBenchmarks regressing from 8 to 16 threads: {drops or 'none'}"
        + "\n(paper averages: 8.1 / 11.8 / 13.9 / 15.8 / 16.2; worst 8->16 drop _209_db)"
    )


def csv(rows: Sequence[Fig8Row]) -> str:
    return to_csv(HEADERS, [r.as_tuple() for r in rows])
