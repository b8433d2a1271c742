"""`ParallelCFL` — the paper's four analysis configurations behind one
facade.

=========  ==========================================================
mode       meaning (Section IV-C)
=========  ==========================================================
``seq``    SeqCFL: one worker, no sharing, program-order queries
``naive``  shared work list only (PARCFL_naive): no sharing, no
           scheduling, one query per fetch
``D``      + data sharing (PARCFL_D)
``DQ``     + query scheduling (PARCFL_DQ)
=========  ==========================================================

A runner has one constructor, keyword-only and spelled like
:class:`repro.api.Session`: every runtime decision (mode, worker count,
backend and the backend knobs) in one
:class:`~repro.runtime.config.RuntimeConfig`, every analysis decision
in one :class:`~repro.core.engine.EngineConfig`, read back as
``runner.runtime`` and ``runner.engine_config``:

    runtime = RuntimeConfig(mode="D", n_threads=8, backend="mp")
    batch = ParallelCFL(build, runtime=runtime).run()

Defaults live in those two config classes and nowhere else.  A ``DQ``
batch is scheduled with the program's type table, which a runner reads
from the :class:`~repro.pag.build.BuildResult` it is built on; a runner
on a bare :class:`~repro.pag.graph.PAG` has none, so every group gets
DD 1.  Scheduling has no setting of its own.  Each
backend's executor but ``local`` is made the same way, from
:data:`EXECUTORS`: every executor class takes ``(pag, runtime,
engine_config, recorder)`` and reads its worker count, sharing,
``BatchResult.mode`` label and backend knobs from ``runtime``.

A runner has exactly one jump map: its demand store's
(:class:`~repro.core.incremental.IncrementalAnalysis`), passed as
``store=`` (a :class:`repro.api.Session` passes its ``seq``) or made on
first use.  ``local`` batches run on the store itself; the ``sim``,
``threads`` and ``mp`` executors own no map and are handed the store's
map with each sharing batch (``run_units(units, jumps)``), so a query
of any backend takes the shortcuts every earlier query of the store
published, and an edit through the store reaches every backend.
:meth:`resident_jumps` reads that map.

A runner is resident: it keeps one executor per backend across
:meth:`run` calls, and its :class:`~repro.core.scheduling.SchedulePlan`
(CD, ``direct`` components, per-component DD) is built once, so a
``DQ`` batch after the first pays only the per-batch grouping.  This
is the substrate :class:`repro.api.Session`, the checkers and the
``repro serve`` daemon run on.

Pass ``recorder=`` (:mod:`repro.obs`) to collect counters and spans;
the batch's share lands in ``BatchResult.metrics``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.core.engine import EngineConfig
from repro.core.incremental import IncrementalAnalysis
from repro.core.jumpmap import JumpMap
from repro.core.query import Query
from repro.core.scheduling import SchedulePlan, prefer_bulk, schedule_queries
from repro.pag.build import BuildResult
from repro.pag.graph import PAG
from repro.runtime.config import BACKENDS, MODES, RuntimeConfig
from repro.runtime.matrix import MatrixExecutor
from repro.runtime.mp import MPExecutor
from repro.runtime.results import BatchResult
from repro.runtime.simclock import SimulatedExecutor
from repro.runtime.threaded import ThreadedExecutor

__all__ = ["ParallelCFL", "MODES", "BACKENDS"]

#: The executor class of each backend but ``local``, which is the
#: runner's demand store (:meth:`ParallelCFL.executor`), and ``hybrid``, which
#: routes each batch to ``matrix`` or to :data:`HYBRID_DEMAND_BACKEND`.
EXECUTORS = {
    "sim": SimulatedExecutor,
    "threads": ThreadedExecutor,
    "mp": MPExecutor,
    "matrix": MatrixExecutor,
}

#: The executor ``hybrid`` sends batches below its crossover to.
HYBRID_DEMAND_BACKEND = "local"


class ParallelCFL:
    """Batch-mode parallel CFL-reachability pointer analysis."""

    def __init__(
        self,
        target: Union[PAG, BuildResult],
        *,
        runtime: Optional[RuntimeConfig] = None,
        engine: Optional[EngineConfig] = None,
        recorder=None,
        store: Optional[IncrementalAnalysis] = None,
    ) -> None:
        if isinstance(target, BuildResult):
            self.pag = target.pag
            #: The DD metric's type table: the program's, none for a
            #: bare PAG (every group then gets DD 1).
            self.types = target.program.types
        else:
            self.pag = target
            self.types = None
        self.runtime = runtime or RuntimeConfig()
        self.engine_config = engine or EngineConfig()
        self.recorder = recorder
        #: One resident executor per backend, made on first use; the
        #: ``local`` one is the demand store, whose map every backend's
        #: sharing batches read and write.
        self._executors: Dict[str, object] = {} if store is None else {"local": store}
        #: The whole-program half of scheduling, made on the first
        #: scheduled batch (never at construction) and kept for every
        #: later one; it recomputes itself when the PAG grows.
        self._plan: Optional[SchedulePlan] = None

    # ------------------------------------------------------------------
    def default_queries(self) -> List[Query]:
        """The paper's batch workload: all application-code locals."""
        return [Query(v) for v in self.pag.app_locals()]

    def work_units(self, queries: Sequence[Query]) -> List[List[Query]]:
        """Materialise the shared work list for this mode."""
        if self.runtime.scheduling:
            if self._plan is None:
                self._plan = SchedulePlan(self.pag, self.types)
            groups = schedule_queries(
                self.pag, queries, self.types,
                recorder=self.recorder, plan=self._plan,
            )
            return [list(g.queries) for g in groups]
        # seq / naive / D: one query per fetch, in issue order.
        return [[q] for q in queries]

    # ------------------------------------------------------------------
    # executor construction / residency
    # ------------------------------------------------------------------
    def executor(self, backend: Optional[str] = None):
        """The resident executor for ``backend`` (default: the
        configured one), made on first use; ``local``'s is the demand
        store.  ``hybrid`` has no executor of its own — resolve it
        through :meth:`run` (or ask for ``matrix``/``local`` directly).
        """
        backend = backend or self.runtime.backend
        if backend == "hybrid":
            raise ValueError(
                "hybrid is a router, not an executor; ask for 'matrix' "
                f"or {HYBRID_DEMAND_BACKEND!r} (the backends it routes "
                "between)"
            )
        ex = self._executors.get(backend)
        if ex is None:
            if backend == "local":
                ex = IncrementalAnalysis(
                    self.pag, self.engine_config, recorder=self.recorder
                )
            else:
                ex = EXECUTORS[backend](
                    self.pag, self.runtime, self.engine_config, self.recorder
                )
            self._executors[backend] = ex
        return ex

    def resident_jumps(self) -> Optional[JumpMap]:
        """The jump map this runner's sharing batches read and write,
        its demand store's (``None`` in a share-nothing mode)."""
        if not self.runtime.sharing:
            return None
        return self.executor("local").jumps

    # ------------------------------------------------------------------
    def run(self, queries: Optional[Sequence[Query]] = None) -> BatchResult:
        """Execute the batch; returns a :class:`BatchResult`.

        With a recorder attached, ``BatchResult.metrics`` holds exactly
        the counters this batch accumulated (scheduling included), even
        when one recorder observes many batches.
        """
        rec = self.recorder
        mark = rec.mark() if rec else None
        if queries is None:
            queries = self.default_queries()
        rt = self.runtime
        backend = rt.backend
        if backend == "hybrid":
            # Route by batch size: large/dense batches amortise the bulk
            # kernel's all-pairs fixpoint, sparse interactive ones don't.
            bulk = prefer_bulk(len(queries))
            backend = "matrix" if bulk else HYBRID_DEMAND_BACKEND
            if rec:
                rec.count("matrix.routed_bulk" if bulk else "matrix.routed_demand")
                rec.event("route", backend=backend, queries=len(queries))
        if backend == "matrix":
            # The bulk kernel answers the whole batch from one closed
            # fixpoint; per-unit scheduling has nothing to schedule.
            units = [list(queries)]
        else:
            units = self.work_units(queries)
        if rec:
            # The facade brackets every backend's granular events so
            # timeline consumers (the progress report, the JSONL log)
            # see batch extents and totals uniformly.
            rec.event(
                "batch_start", mode=rt.mode, backend=backend,
                n_workers=rt.effective_threads, total_queries=len(queries),
                n_units=len(units),
            )
        ex = self.executor(backend)
        if backend == "local":
            # A demand store serves every mode, so it is told this one.
            batch = ex.run_units(units, rt)
        elif backend == "matrix":
            batch = ex.run_units(units)  # the kernel keeps no jump map
        else:
            batch = ex.run_units(units, self.resident_jumps())
        if rec:
            batch.metrics = rec.since(mark)
            rec.event(
                "batch_end", mode=rt.mode, backend=backend,
                queries=batch.n_queries, makespan=round(batch.makespan, 6),
                crashes=batch.n_worker_crashes, retries=batch.n_chunk_retries,
            )
        return batch
