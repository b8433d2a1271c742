"""Core CFL-reachability pointer analysis.

* :mod:`repro.core.context` — call-string contexts (the ``c`` in
  queries ``(l, c)``).
* :mod:`repro.core.query` — query/result records and per-query state.
* :mod:`repro.core.jumpmap` — the jump-edge store (the paper's
  ``ConcurrentHashMap``) and its commit-log wire format.
* :mod:`repro.core.engine` — Algorithms 1 and 2: ``POINTSTO`` /
  ``FLOWSTO`` / ``REACHABLENODES`` with optional data sharing.
* :mod:`repro.core.scheduling` — the query-scheduling scheme
  (grouping, connection distances, dependence depths).
* :mod:`repro.core.cfl` — executable definitions of the paper's
  grammars (1)-(4), used by tests to certify witness paths.
* :mod:`repro.core.snapshot` — versioned on-disk warm-start snapshots
  (PAG fingerprint + jump-map commit log + invalidation footprints).
"""

from repro.core.context import EMPTY_CTX, ctx_pop, ctx_push, ctx_top
from repro.core.engine import CFLEngine, EngineConfig, FIELD_MODES
from repro.core.jumpmap import JumpMap
from repro.core.query import Query, QueryResult
from repro.core.incremental import IncrementalAnalysis
from repro.core.snapshot import Snapshot, SnapshotHeader, load_snapshot, save_snapshot
from repro.core.refinement import RefinedAnswer, RefinementDriver
from repro.core.tracing import TracingEngine, Witness
from repro.core.scheduling import (
    QueryGroup,
    SchedulePlan,
    connection_distances,
    dedupe_queries,
    schedule_queries,
)

__all__ = [
    "IncrementalAnalysis",
    "RefinedAnswer",
    "RefinementDriver",
    "TracingEngine",
    "Witness",
    "QueryGroup",
    "SchedulePlan",
    "connection_distances",
    "dedupe_queries",
    "schedule_queries",
    "CFLEngine",
    "EMPTY_CTX",
    "EngineConfig",
    "FIELD_MODES",
    "JumpMap",
    "Snapshot",
    "SnapshotHeader",
    "load_snapshot",
    "save_snapshot",
    "Query",
    "QueryResult",
    "ctx_pop",
    "ctx_push",
    "ctx_top",
]
