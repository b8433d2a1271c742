"""Deterministic discrete-event simulation of the multicore executor.

Workers carry simulated clocks; an event queue (min-heap keyed on
``(time, worker)``) serialises their actions.  When a worker becomes
ready it fetches the next work unit from the shared work list (paying
the lock cost) and executes its queries one at a time.  A query runs
to completion when its worker's event is popped, reading and writing
its runner's store :class:`JumpMap` directly, and its simulated
duration is charged afterwards.  So a query sees every jump entry
committed by queries popped before it in event order — including
queries still running in simulated time, whose entries the model
publishes at their start — and none from queries popped after it
(DESIGN.md §4).  On sim DQ x16 at the suite budget, 112 of the 300
engine lookups that found another query's entry on ``_200_check``
found one written by a query still running in simulated time (230 of
3,408 on tomcat, 117 of 884 on xalan, 309 of 572 on ``_209_db``).

Everything is deterministic: same inputs → same schedule, same results,
same statistics.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from repro.core.engine import CFLEngine, EngineConfig
from repro.core.jumpmap import JumpMap
from repro.core.query import Query
from repro.pag.graph import PAG
from repro.obs.recorder import SIM_PID
from repro.runtime.config import RuntimeConfig
from repro.runtime.contention import CostModel
from repro.runtime.results import BatchResult, QueryExecution

__all__ = ["SimulatedExecutor"]


class SimulatedExecutor:
    """Runs query batches on ``runtime.effective_threads`` simulated
    workers.

    ``units`` is the shared work list: a sequence of query lists (one
    list per fetch).  Data sharing follows ``runtime.sharing``: a
    sharing batch reads and writes the :class:`JumpMap` passed to
    :meth:`run_units` (its runner's store map).  Query costs come from
    ``runtime.cost_model`` (default :class:`CostModel`).
    """

    def __init__(
        self,
        pag: PAG,
        runtime: RuntimeConfig,
        engine_config: Optional[EngineConfig] = None,
        recorder=None,
    ) -> None:
        self.pag = pag
        self.runtime = runtime
        self.engine_config = engine_config or EngineConfig()
        #: Optional :class:`repro.obs.Recorder`: engine counters flushed
        #: per query, plus per-query spans on the simulated-clock lane.
        self.recorder = recorder

    # ------------------------------------------------------------------
    def run_units(
        self,
        units: Sequence[Sequence[Query]],
        jumps: Optional[JumpMap] = None,
    ) -> BatchResult:
        """Execute the work units and return the batch record.

        A sharing mode runs on ``jumps``, or on a fresh map when none
        is passed; a share-nothing mode passes none."""
        rt = self.runtime
        if jumps is None and rt.sharing:
            jumps = JumpMap()
        cm = rt.cost_model or CostModel()
        rec = self.recorder
        t = rt.effective_threads
        heap: List[Tuple[float, int]] = [(0.0, w) for w in range(t)]
        heapq.heapify(heap)
        busy = [0.0] * t
        executions: List[QueryExecution] = []
        next_unit = 0
        # Per-worker backlog: queries of the currently fetched unit.
        backlog: List[List[Query]] = [[] for _ in range(t)]

        while heap:
            now, w = heapq.heappop(heap)
            if not backlog[w]:
                if next_unit >= len(units):
                    continue  # worker retires
                backlog[w] = list(units[next_unit])
                next_unit += 1
                fetch = cm.fetch_time(t)
                busy[w] += fetch
                heapq.heappush(heap, (now + fetch, w))
                continue
            query = backlog[w].pop(0)
            result = CFLEngine(
                self.pag, self.engine_config, jumps=jumps, recorder=rec
            ).run_query(query)
            duration = cm.query_time(result.costs, t)
            finish = now + duration
            busy[w] += duration
            executions.append(QueryExecution(result, w, now, finish))
            if rec:
                # Simulated clock: its own trace lane, "seconds" are
                # cost-model units.
                rec.span(
                    f"query node{query.var}", now, finish,
                    tid=w, pid=SIM_PID, cat="query",
                    args={"var": query.var, "steps": result.costs.steps},
                )
                # Timeline events are stamped in wall time on arrival;
                # the simulated interval rides along as fields.
                rec.event("done", worker=w, queries=1, query=query.var,
                          sim_start=round(now, 3), sim_finish=round(finish, 3))
            heapq.heappush(heap, (finish, w))

        return self._finalise(executions, busy, jumps)

    # ------------------------------------------------------------------
    def _finalise(
        self,
        executions: List[QueryExecution],
        busy: List[float],
        jumps: Optional[JumpMap],
    ) -> BatchResult:
        makespan = max((e.finish for e in executions), default=0.0)
        result = BatchResult(
            mode=self.runtime.mode,
            n_threads=self.runtime.effective_threads,
            executions=executions,
            makespan=makespan,
            worker_busy=busy,
        )
        result.count_jumps(jumps)
        result.peak_memory_proxy = self._peak_memory(executions, jumps)
        return result

    def _peak_memory(
        self, executions: List[QueryExecution], jumps: Optional[JumpMap]
    ) -> float:
        """Sweep the execution intervals: peak of the summed footprints
        of concurrently running queries, plus the jump map size."""
        events: List[Tuple[float, int, int]] = []
        for e in executions:
            fp = e.result.costs.peak_visited
            events.append((e.start, 1, fp))
            events.append((e.finish, -1, fp))
        # Ends sort before starts at equal times (1 > -1 → sort key on
        # the sign puts -1 first), avoiding phantom overlap.
        events.sort(key=lambda ev: (ev[0], ev[1]))
        live = 0.0
        peak = 0.0
        for _t, sign, fp in events:
            live += sign * fp
            if live > peak:
                peak = live
        jump_entries = float(jumps.n_jumps) if jumps is not None else 0.0
        return peak + jump_entries
