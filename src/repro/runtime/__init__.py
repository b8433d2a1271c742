"""Parallel runtime — the reproduction's multicore substrate.

Backends behind one facade:

* **sim** (:mod:`repro.runtime.simclock`) — a deterministic
  discrete-event simulator: workers own simulated clocks, query costs
  come from the step/jump-op accounting of the engine through a
  calibrated :class:`~repro.runtime.contention.CostModel`, and a query
  sees the jump entries of every query popped before it in event
  order.  Deterministic and measurable, the
  default for the paper's tables/figures.
* **local** — the batch in order on the calling thread, on a demand
  store (:meth:`repro.core.incremental.IncrementalAnalysis.run_units`):
  mode D x1 with no fan-out, every query over the store's one jump map.
  ``repro serve``'s default and ``hybrid``'s demand route.
* **threads** (:mod:`repro.runtime.threaded`) — genuine ``threading``
  threads against the lock-striped jump map; GIL-serialised, so it
  validates concurrency *semantics* rather than wall-clock speedup.
* **mp** (:mod:`repro.runtime.mp`) — true OS processes over the one
  PAG (inherited under ``fork``, pickled once under ``spawn``) with
  epoch-synchronised jump-map sharing: the backend that demonstrates
  real wall-clock parallel speedups.
* **matrix** (:mod:`repro.runtime.matrix`) — the bulk all-pairs
  kernel; **hybrid** routes each batch to it or to ``local`` by size.

:class:`~repro.runtime.executor.ParallelCFL` is the user-facing facade
with the paper's four configurations: ``seq`` (SeqCFL), ``naive``
(shared work list only), ``D`` (+ data sharing), ``DQ`` (+ query
scheduling).  Everything about how a batch runs is one
:class:`~repro.runtime.config.RuntimeConfig`, which holds every
default and range check; a runner takes it as
``ParallelCFL(target, runtime=..., engine=...)`` and builds each
backend's executor from it, every executor class taking ``(pag,
runtime, engine_config, recorder)``.  A runner has one jump map, its
demand store's (passed as ``store=`` or made on first use): executors
own none, and every sharing batch of every backend reads and writes
the store's map.  A :class:`repro.api.Session` passes its ``seq`` to
every runner, so single queries, batches of any backend and edits
share one map.  ``DQ`` scheduling reads its type table from the
program the runner is built on and has no setting.
"""

from repro.runtime.config import BACKENDS, MODES, RuntimeConfig
from repro.runtime.contention import CostModel
from repro.runtime.faults import FaultInjector, FaultPlan, FaultSpec, InjectedFault
from repro.runtime.intraquery import intra_query_makespan, intra_query_speedup
from repro.runtime.executor import ParallelCFL
from repro.runtime.mp import MPExecutor, WorkerCrash
from repro.runtime.results import BatchResult
from repro.runtime.simclock import SimulatedExecutor
from repro.runtime.threaded import ConcurrentJumpMap, ThreadedExecutor

__all__ = [
    "BACKENDS",
    "BatchResult",
    "ConcurrentJumpMap",
    "CostModel",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "intra_query_makespan",
    "intra_query_speedup",
    "MODES",
    "MPExecutor",
    "ParallelCFL",
    "RuntimeConfig",
    "SimulatedExecutor",
    "ThreadedExecutor",
    "WorkerCrash",
]
