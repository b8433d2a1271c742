"""Shared per-benchmark execution for the harness modules.

Table I, Fig. 6 and the memory comparison all need the same five runs
per benchmark (SeqCFL, naive×1, naive×16, D×16, DQ×16);
:func:`run_benchmark_modes` performs them once and the result is cached
per process, so ``python -m repro.harness all`` does not repeat work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.api import (
    BatchResult,
    BenchmarkSpec,
    CostModel,
    ParallelCFL,
    RuntimeConfig,
    load_benchmark,
    spec_of,
)

__all__ = ["BenchmarkModes", "run_benchmark_modes", "DEFAULT_THREADS"]

DEFAULT_THREADS = 16

#: (benchmark name, threads) -> cached mode runs
_CACHE: Dict[Tuple[str, int], "BenchmarkModes"] = {}


@dataclass
class BenchmarkModes:
    """The standard five runs of one benchmark."""

    spec: BenchmarkSpec
    seq: BatchResult
    naive1: BatchResult
    naive_t: BatchResult
    d_t: BatchResult
    dq_t: BatchResult
    n_threads: int

    def speedup(self, result: BatchResult) -> float:
        return result.speedup_over(self.seq)

    @property
    def ret_ratio(self) -> float:
        """R_ET: early terminations with scheduling over without."""
        base = self.d_t.n_early_terminations
        if base == 0:
            return 1.0 if self.dq_t.n_early_terminations == 0 else float("inf")
        return self.dq_t.n_early_terminations / base


def run_benchmark_modes(
    name: str,
    n_threads: int = DEFAULT_THREADS,
    cost_model: Optional[CostModel] = None,
    use_cache: bool = True,
) -> BenchmarkModes:
    """Run (or fetch cached) standard mode runs for benchmark ``name``."""
    key = (name, n_threads)
    if use_cache and cost_model is None and key in _CACHE:
        return _CACHE[key]
    spec = spec_of(name)
    build = load_benchmark(name)
    queries = spec.workload()
    cfg = spec.engine_config()
    cm = cost_model or CostModel()

    def run(mode: str, t: int) -> BatchResult:
        return ParallelCFL(
            build,
            runtime=RuntimeConfig(mode=mode, n_threads=t, cost_model=cm),
            engine=cfg,
        ).run(queries)

    modes = BenchmarkModes(
        spec=spec,
        seq=run("seq", 1),
        naive1=run("naive", 1),
        naive_t=run("naive", n_threads),
        d_t=run("D", n_threads),
        dq_t=run("DQ", n_threads),
        n_threads=n_threads,
    )
    if use_cache and cost_model is None:
        _CACHE[key] = modes
    return modes
