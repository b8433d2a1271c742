"""``backend="matrix"`` — one bulk kernel run per batch.

The other executors fan work units out to workers; the matrix backend
inverts that: the whole batch is one unit, answered from a single
closed all-pairs fixpoint (:class:`repro.core.matrix.MatrixKernel`).
The kernel runs on the calling thread (a row OR over Python-int
bitsets is one C-level big-integer operation), so a batch reports one
worker, and it keeps no jump map between batches: within one it shares
*everything* by construction.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.engine import EngineConfig
from repro.core.matrix import MatrixKernel
from repro.core.query import Query
from repro.pag.graph import PAG
from repro.runtime.config import RuntimeConfig
from repro.runtime.results import BatchResult, QueryExecution

if TYPE_CHECKING:
    from repro.obs.recorder import Recorder

__all__ = ["MatrixExecutor"]


class MatrixExecutor:
    """Run query batches through the bulk matrix kernel."""

    def __init__(
        self,
        pag: PAG,
        runtime: RuntimeConfig,
        engine_config: Optional[EngineConfig] = None,
        recorder: Optional["Recorder"] = None,
    ) -> None:
        self.pag = pag
        self.runtime = runtime
        self.engine_config = engine_config or EngineConfig()
        self.recorder = recorder

    def run_units(self, units: Sequence[Sequence[Query]]) -> BatchResult:
        """Flatten the units and answer them from one closed fixpoint."""
        queries: List[Query] = [q for unit in units for q in unit]
        rec = self.recorder
        kernel = MatrixKernel(self.pag, self.engine_config, recorder=rec)
        if rec:
            rec.event("dispatch", worker=0, unit=0, queries=len(queries))
        t0 = time.perf_counter()
        results = kernel.run_batch(queries)
        wall = time.perf_counter() - t0
        if rec:
            rec.event(
                "done", worker=0, unit=0, queries=len(results),
                wall=round(wall, 6),
            )
        executions = [
            QueryExecution(result=r, worker=0, start=0.0, finish=wall)
            for r in results
        ]
        return BatchResult(
            mode=self.runtime.mode,
            n_threads=1,
            executions=executions,
            makespan=wall,
            worker_busy=[wall],
        )
