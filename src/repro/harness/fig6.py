"""Fig. 6 — speedups of the parallel configurations over SeqCFL.

Per benchmark: PARCFL¹naive, PARCFL¹⁶naive, PARCFL¹⁶D, PARCFL¹⁶DQ, and
the AVERAGE entry.  Paper averages: 1.0 / 7.3 / 13.4 / 16.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.api import suite_names
from repro.harness.report import ascii_table, to_csv
from repro.harness.runner import DEFAULT_THREADS, run_benchmark_modes

__all__ = ["Fig6Row", "run", "render", "averages", "HEADERS"]

HEADERS = ("Benchmark", "naive x1", "naive x16", "D x16", "DQ x16")


@dataclass
class Fig6Row:
    name: str
    naive1: float
    naive_t: float
    d_t: float
    dq_t: float

    def as_tuple(self) -> tuple:
        return (
            self.name, round(self.naive1, 2), round(self.naive_t, 1),
            round(self.d_t, 1), round(self.dq_t, 1),
        )


def run(
    names: Optional[Sequence[str]] = None, n_threads: int = DEFAULT_THREADS
) -> List[Fig6Row]:
    rows: List[Fig6Row] = []
    for name in names or suite_names():
        modes = run_benchmark_modes(name, n_threads)
        rows.append(
            Fig6Row(
                name=name,
                naive1=modes.speedup(modes.naive1),
                naive_t=modes.speedup(modes.naive_t),
                d_t=modes.speedup(modes.d_t),
                dq_t=modes.speedup(modes.dq_t),
            )
        )
    return rows


def averages(rows: Sequence[Fig6Row]) -> Fig6Row:
    n = len(rows)
    return Fig6Row(
        "AVERAGE",
        sum(r.naive1 for r in rows) / n,
        sum(r.naive_t for r in rows) / n,
        sum(r.d_t for r in rows) / n,
        sum(r.dq_t for r in rows) / n,
    )


def render(rows: Sequence[Fig6Row]) -> str:
    data = [r.as_tuple() for r in rows]
    avg = averages(rows)
    if len(rows) > 1:
        data.append(avg.as_tuple())
    table = ascii_table(HEADERS, data)
    bars = "\n".join(
        f"  {label:<10} {'#' * round(value)} {value:.1f}x"
        for label, value in (
            ("naive x1", avg.naive1),
            ("naive x16", avg.naive_t),
            ("D x16", avg.d_t),
            ("DQ x16", avg.dq_t),
        )
    )
    return (
        "Fig. 6: Speedups of the parallel implementation (normalised to SeqCFL).\n"
        f"{table}\n\nAverage speedups:\n{bars}\n"
        "(paper: 1.0 / 7.3 / 13.4 / 16.2)"
    )


def csv(rows: Sequence[Fig6Row]) -> str:
    return to_csv(HEADERS, [r.as_tuple() for r in rows])
