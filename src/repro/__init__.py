"""repro — parallel demand-driven pointer analysis with CFL-reachability.

Reproduction of Su, Ye & Xue, *Parallel Pointer Analysis with
CFL-Reachability*, ICPP 2014.  See README.md for a tour and DESIGN.md
for the paper-to-module map.

The supported public surface is :mod:`repro.api` — one resident
:class:`Session` facade fronting queries, batches, checkers and
snapshots, plus the configs, records, recorders, renderers and loaders
it takes and returns.  This package re-exports :class:`Session` and
``DEFAULT_BUDGET`` from there, and a smaller set of the lower-level
pieces listed in ``__all__``; import anything else from
:mod:`repro.api`.

Quick start::

    from repro import Session

    session = Session.open("examples/box_clean.mj")
    result = session.points_to("b@Main.main")
    print(sorted(session.name(o) for o in result.objects))

Batch-parallel (simulated multicore)::

    batch = session.batch(mode="DQ", n_threads=16)

The underlying pieces (``CFLEngine``, ``ParallelCFL``, ``build_pag``,
...) remain importable here for share-nothing baselines and tests.  A
runner takes its settings whole, as on :class:`Session`::

    batch = ParallelCFL(build, runtime=RuntimeConfig(mode="DQ")).run()
"""

from repro._version import __version__
from repro.analyses import CheckReport, Checker, Finding, Severity, run_checkers
from repro.api import DEFAULT_BUDGET, Session
from repro.andersen import AndersenResult, AndersenSolver
from repro.core import (
    CFLEngine,
    IncrementalAnalysis,
    RefinementDriver,
    TracingEngine,
    Witness,
    EMPTY_CTX,
    EngineConfig,
    JumpMap,
    Query,
    QueryGroup,
    QueryResult,
    ScheduleConfig,
    schedule_queries,
)
from repro.errors import (
    AnalysisError,
    BudgetExhausted,
    IRError,
    PAGError,
    ParseError,
    ReproError,
    RuntimeConfigError,
    SchedulingError,
    ValidationError,
)
from repro.ir import Program, ProgramBuilder, parse_program, validate_program
from repro.pag import PAG, build_pag
from repro.runtime import (
    BatchResult,
    CostModel,
    ParallelCFL,
    RuntimeConfig,
    SimulatedExecutor,
    ThreadedExecutor,
)

__all__ = [
    "__version__",
    # the supported facade (repro.api)
    "Session",
    "DEFAULT_BUDGET",
    # front-end
    "Program",
    "ProgramBuilder",
    "parse_program",
    "validate_program",
    # graph
    "PAG",
    "build_pag",
    # analysis
    "CFLEngine",
    "EngineConfig",
    "EMPTY_CTX",
    "Query",
    "QueryResult",
    "JumpMap",
    "TracingEngine",
    "Witness",
    "QueryGroup",
    "ScheduleConfig",
    "schedule_queries",
    # runtime
    "BatchResult",
    "CostModel",
    "RuntimeConfig",
    "ParallelCFL",
    "SimulatedExecutor",
    "ThreadedExecutor",
    # baseline / soundness oracle
    "AndersenResult",
    "AndersenSolver",
    # extensions
    "IncrementalAnalysis",
    "RefinementDriver",
    # checkers
    "Checker",
    "CheckReport",
    "Finding",
    "Severity",
    "run_checkers",
    # errors
    "ReproError",
    "IRError",
    "ParseError",
    "ValidationError",
    "PAGError",
    "AnalysisError",
    "BudgetExhausted",
    "SchedulingError",
    "RuntimeConfigError",
]
