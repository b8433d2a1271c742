"""``backend="local"`` — the batch on the calling thread, one shared map.

The paper's mode-D gain comes from data sharing (§IV-A), not from
threads, and under CPython's GIL real threads add fan-out cost without
parallelism.  This executor keeps the sharing and drops the rest: the
work units run in order on the caller's thread, and each query's
:class:`~repro.core.engine.CFLEngine` reads and writes the executor's
committed :class:`~repro.core.jumpmap.JumpMap` directly, as every
executor's engine does — no lock, no cost model.  A share-nothing mode has no map.  The map is
the executor's whole lifecycle surface (warm boot, snapshot export,
runner retirement), exactly as for the other sharing backends.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.engine import CFLEngine, EngineConfig
from repro.core.jumpmap import DeltaEntry, JumpMap
from repro.core.query import Query
from repro.pag.graph import PAG
from repro.runtime.config import RuntimeConfig
from repro.runtime.results import BatchResult, QueryExecution

if TYPE_CHECKING:
    from repro.obs.recorder import Recorder

__all__ = ["LocalExecutor"]


class LocalExecutor:
    """Run query batches in-process, on one thread, over one jump map."""

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
        #: Committed jump edges, shared by every query of every batch.
        self.jumps = JumpMap() if runtime.sharing else None

    def warm_from(self, log: Sequence[DeltaEntry]) -> int:
        """Seed the committed map from an exported commit log."""
        return self.jumps.warm_from(log)

    def run_units(self, units: Sequence[Sequence[Query]]) -> BatchResult:
        """Run every unit's queries in order; times are real, relative
        to the batch start."""
        rec = self.recorder
        perf = time.perf_counter
        executions: List[QueryExecution] = []
        t0 = perf()
        for unit in units:
            for query in unit:
                engine = CFLEngine(
                    self.pag, self.engine_config, jumps=self.jumps,
                    recorder=rec,
                )
                start = perf() - t0
                result = engine.run_query(query)
                finish = perf() - t0
                executions.append(QueryExecution(result, 0, start, finish))
                if rec:
                    rec.span_abs(
                        f"query node{query.var}", t0 + start, t0 + finish,
                        cat="query",
                        args={"var": query.var, "steps": result.costs.steps},
                    )
                    rec.event("done", worker=0, queries=1, query=query.var)
        makespan = perf() - t0
        batch = BatchResult(
            mode=self.runtime.mode,
            n_threads=1,
            executions=executions,
            makespan=makespan,
            worker_busy=[sum(e.duration for e in executions)],
        )
        batch.count_jumps(self.jumps)
        return batch
