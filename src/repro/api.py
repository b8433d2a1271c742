"""repro.api — the supported public surface of the reproduction.

One blessed entry point, :class:`Session`, fronts every analysis
capability the package ships: demand points-to/flows-to queries,
may-alias, certified witnesses, batch-parallel runs on any backend,
the client checkers, warm-start snapshots, and incremental edits.  The
CLI (:mod:`repro.cli`), the serving daemon (:mod:`repro.serve`) and the
harness (:mod:`repro.harness`) all build on this module and nothing
deeper — a rule enforced by ``tests/test_api_surface.py``.

Quick start::

    from repro.api import Session

    session = Session.open("examples/box_clean.mj")
    result = session.points_to("b@Main.main")
    print(sorted(session.name(o) for o in result.objects))

    batch = session.batch()                # all application locals
    report = session.check(["null-deref"])
    session.snapshot("box.snap")           # warm-start state

A session loads (or adopts) a program **once** and keeps every
expensive artifact resident: the PAG, the sequential engine with its
footprint-indexed jump map, and resident
:class:`~repro.runtime.executor.ParallelCFL` runners, one per batch
configuration.  Every runner's batches read and write that one map,
whatever their backend, so single queries, batches of every backend,
edits and snapshots all see one store.  That residency is what the
``repro serve`` daemon multiplexes client traffic onto.

Everything listed in ``__all__`` (configs, result records, error
types, renderers, benchmark loaders, recorders) is re-exported here so
downstream code never reaches into internal module paths; the
top-level ``repro`` package re-exports :class:`Session` and a subset
of the rest.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro._version import __version__
from repro.andersen import AndersenSolver
from repro.analyses import (
    Checker,
    CheckReport,
    Finding,
    Severity,
    checker_ids,
    render_json,
    render_sarif,
    render_text,
    run_checkers,
)
from repro.benchgen.suites import (
    BenchmarkSpec,
    load_benchmark,
    spec_of,
    suite_names,
)
from repro.core import (
    EMPTY_CTX,
    CFLEngine,
    EngineConfig,
    FIELD_MODES,
    IncrementalAnalysis,
    JumpMap,
    Query,
    QueryGroup,
    QueryResult,
    Snapshot,
    SnapshotHeader,
    TracingEngine,
    Witness,
    dedupe_queries,
    load_snapshot,
    save_snapshot,
    schedule_queries,
)
from repro.core.context import Context
from repro.core.jumpmap import DeltaEntry
from repro.errors import (
    AnalysisError,
    BudgetExhausted,
    InputError,
    ReproError,
    RuntimeConfigError,
    SnapshotError,
)
from repro.ir import parse_program
from repro.obs import (
    COUNTER_DOCS,
    MetricsRecorder,
    Recorder,
    SpanRecorder,
    TimelineRecorder,
    hot_queries,
    metrics_to_json,
    render_hot_queries,
    render_metrics_table,
)
from repro.pag import PAG, build_pag
from repro.pag.build import BuildResult
from repro.runtime import (
    BACKENDS,
    MODES,
    BatchResult,
    CostModel,
    FaultPlan,
    ParallelCFL,
    RuntimeConfig,
)

__all__ = [
    "__version__",
    # the facade
    "Session",
    "DEFAULT_BUDGET",
    # configuration
    "EngineConfig",
    "RuntimeConfig",
    "CostModel",
    "FaultPlan",
    "MODES",
    "BACKENDS",
    "FIELD_MODES",
    # queries and results
    "Query",
    "QueryResult",
    "QueryGroup",
    "BatchResult",
    "Context",
    "EMPTY_CTX",
    "dedupe_queries",
    "schedule_queries",
    # engines (for share-nothing baselines and witness tracing)
    "CFLEngine",
    "TracingEngine",
    "Witness",
    "IncrementalAnalysis",
    "ParallelCFL",
    "AndersenSolver",
    # jump map and snapshots
    "JumpMap",
    "Snapshot",
    "SnapshotHeader",
    "load_snapshot",
    "save_snapshot",
    # front ends
    "parse_program",
    "build_pag",
    "BuildResult",
    "PAG",
    # checkers
    "Checker",
    "CheckReport",
    "Finding",
    "Severity",
    "checker_ids",
    "run_checkers",
    "render_text",
    "render_json",
    "render_sarif",
    # benchmark suite
    "BenchmarkSpec",
    "load_benchmark",
    "spec_of",
    "suite_names",
    # observability
    "Recorder",
    "MetricsRecorder",
    "SpanRecorder",
    "TimelineRecorder",
    "COUNTER_DOCS",
    "hot_queries",
    "metrics_to_json",
    "render_hot_queries",
    "render_metrics_table",
    # errors
    "ReproError",
    "InputError",
    "SnapshotError",
    "AnalysisError",
    "BudgetExhausted",
    "RuntimeConfigError",
]

#: The paper's per-query step budget (Section IV-A) — the default the
#: CLI and the serving daemon resolve unset budgets to.
DEFAULT_BUDGET = 75_000


def _read_source(path: Path) -> str:
    """Read a program file, mapping every I/O failure onto
    :class:`InputError` (CLI exit code 2) instead of a raw traceback."""
    try:
        return path.read_text()
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}") from None
    except IsADirectoryError:
        raise InputError(
            f"input path is a directory, not a file: {path}"
        ) from None
    except UnicodeDecodeError:
        raise InputError(f"input file is not valid text: {path}") from None
    except OSError as exc:
        raise InputError(
            f"cannot read input file {path}: {exc.strerror or exc}"
        ) from None


class Session:
    """A resident analysis session over one program.

    Construct through the classmethods — :meth:`open` (parse a ``.mj``
    or ``.c`` file), :meth:`from_source`, :meth:`from_build`,
    :meth:`from_pag`, or :meth:`from_snapshot` (warm boot).  The
    program is parsed and lowered **once**; every subsequent query,
    batch, check or snapshot reuses the resident PAG and jump maps.

    Single queries run on :attr:`seq`, a sequential
    :class:`~repro.core.incremental.IncrementalAnalysis` (answers
    cached, footprints indexed for selective invalidation).  Batches
    run on resident :class:`ParallelCFL` runners keyed by ``(mode,
    effective worker count, backend)``, every one on :attr:`seq` as
    its store: a sharing batch of any backend reads and writes
    :attr:`seq`'s map.  An edit through :attr:`seq` invalidates that
    map and keeps every runner.  :meth:`snapshot` writes the map as an
    epoch-0 delta on disk, and :meth:`warm_from_snapshot` replays one
    into it.
    """

    def __init__(
        self,
        build: Optional[BuildResult],
        pag: PAG,
        *,
        kind: str = "java",
        runtime: Optional[RuntimeConfig] = None,
        engine: Optional[EngineConfig] = None,
        recorder: Optional[Any] = None,
        source: str = "<session>",
    ) -> None:
        self.build = build
        self.pag = pag
        self.kind = kind
        self.runtime = runtime or RuntimeConfig()
        self.engine_config = engine or EngineConfig()
        self.recorder = recorder
        #: Where the program came from (a path or a synthetic label) —
        #: surfaced by ``repro serve``'s /healthz and check reports.
        self.source = source
        self._seq: Optional[IncrementalAnalysis] = None
        self._tracer: Optional[TracingEngine] = None
        #: (mode, effective threads, backend) -> resident runner.
        self._runners: Dict[Tuple[str, int, str], ParallelCFL] = {}
        if recorder:
            recorder.count("api.sessions")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        *,
        language: Optional[str] = None,
        **kw: Any,
    ) -> "Session":
        """Parse and lower a program file (``.mj`` mini-Java by
        default, ``.c`` mini-C by suffix or ``language=``)."""
        path = Path(path)
        text = _read_source(path)
        lang = language or ("c" if path.suffix == ".c" else "java")
        return cls.from_source(text, language=lang, source=str(path), **kw)

    @classmethod
    def from_source(
        cls,
        text: str,
        *,
        language: str = "java",
        source: str = "<source>",
        **kw: Any,
    ) -> "Session":
        """Parse and lower program text held in memory."""
        recorder = kw.get("recorder")
        if language == "c":
            from repro.cfront import lower_c, parse_c

            build = lower_c(parse_c(text))
            kind = "c"
        else:
            build = build_pag(parse_program(text))
            kind = "java"
        if recorder:
            # The acceptance counter behind `repro serve`: a resident
            # session builds its PAG exactly once, however many
            # requests it answers afterwards.
            recorder.count("api.pag_builds")
        return cls(build, build.pag, kind=kind, source=source, **kw)

    @classmethod
    def from_build(
        cls, build: BuildResult, *, kind: str = "java", **kw: Any
    ) -> "Session":
        """Adopt an already-lowered :class:`BuildResult` (the harness
        path: benchgen suites arrive pre-built)."""
        return cls(build, build.pag, kind=kind, **kw)

    @classmethod
    def from_pag(cls, pag: PAG, **kw: Any) -> "Session":
        """Adopt a bare PAG.  Name-based query resolution and the
        checkers (which walk program statements) are unavailable."""
        return cls(None, pag, **kw)

    @classmethod
    def from_snapshot(
        cls,
        snapshot_path: Union[str, Path],
        program_path: Union[str, Path],
        *,
        language: Optional[str] = None,
        **kw: Any,
    ) -> "Session":
        """Warm boot: open ``program_path`` and replay the snapshot
        into the resident stores.  A stale, corrupt or mismatched
        snapshot raises :class:`SnapshotError` before any state is
        seeded."""
        session = cls.open(program_path, language=language, **kw)
        session.warm_from_snapshot(snapshot_path)
        return session

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def _require_build(self, what: str) -> BuildResult:
        if self.build is None:
            raise InputError(
                f"{what} needs the front-end build tables; this session "
                "was constructed from a bare PAG (Session.from_pag)"
            )
        return self.build

    def resolve(self, spec: str) -> int:
        """``var@Class.method`` (or a bare global name) -> node id."""
        build = self._require_build("query resolution by name")
        name, _, scope = spec.partition("@")
        if self.kind == "c":
            return build.value_node(name, scope or None)
        return build.var(name, scope or None)

    def resolve_obj(self, label: str) -> int:
        """Allocation-site label -> object node id."""
        return self._require_build("object resolution by label").obj(label)

    def name(self, node: int) -> str:
        """Display name of a PAG node."""
        return self.pag.name(node)

    def rep(self, node: int) -> int:
        """Cycle-collapsed representative of a node (batch answers are
        keyed on representatives)."""
        return self.pag.rep(node)

    def app_locals(self) -> List[int]:
        """The paper's default workload: every application-code local."""
        return list(self.pag.app_locals())

    def queries(
        self,
        targets: Optional[Sequence[Union[int, str]]] = None,
        ctx: Context = EMPTY_CTX,
    ) -> List[Query]:
        """Build a query list from node ids and/or ``var@scope`` specs
        (default: all application locals)."""
        if targets is None:
            return [Query(v, ctx) for v in self.app_locals()]
        return [self._query(t, ctx) for t in targets]

    def node_id(self, node: Any) -> int:
        """``node`` itself when it is a node id of this PAG: an ``int``
        (not a ``bool``) in ``[0, len(pag))`` other than the synthetic
        unfinished node ``O``; else :class:`InputError`."""
        pag = self.pag
        if (
            isinstance(node, bool)
            or not isinstance(node, int)
            or not 0 <= node < len(pag)
            or node == pag.unfinished_node
        ):
            raise InputError(
                f"bad node id {node!r}: expected an int in "
                f"[0, {len(pag)}) other than {pag.unfinished_node} (O)"
            )
        return node

    def _query(self, target: Union[int, str], ctx: Context) -> Query:
        node = (
            self.resolve(target) if isinstance(target, str)
            else self.node_id(target)
        )
        if not self.pag.is_variable(node):
            raise InputError(
                f"node {node} ({self.pag.name(node)}) is not a variable"
            )
        return Query(node, ctx)

    def object_node(self, target: Union[int, str]) -> int:
        """The object node named by a node id or an allocation-site
        label; :class:`InputError` for a node that is not an object."""
        node = (
            self.resolve_obj(target) if isinstance(target, str)
            else self.node_id(target)
        )
        if not self.pag.is_object(node):
            raise InputError(
                f"node {node} ({self.pag.name(node)}) is not an object"
            )
        return node

    # ------------------------------------------------------------------
    # single queries (resident sequential session)
    # ------------------------------------------------------------------
    @property
    def seq(self) -> IncrementalAnalysis:
        """The resident sequential sub-session (lazily created): cached
        answers, footprint-indexed jump map, add-only PAG edits."""
        if self._seq is None:
            self._seq = IncrementalAnalysis(
                self.pag, self.engine_config, recorder=self.recorder
            )
        return self._seq

    def points_to(
        self, target: Union[int, str], ctx: Context = EMPTY_CTX
    ) -> QueryResult:
        """Demand points-to query (node id or ``var@scope`` spec)."""
        q = self._query(target, ctx)
        return self.seq.points_to(q.var, q.ctx)

    def flows_to(
        self, target: Union[int, str], ctx: Context = EMPTY_CTX
    ) -> QueryResult:
        """Demand flows-to query from an object node (id or
        allocation-site label)."""
        return self.seq.flows_to(self.object_node(target), ctx)

    def may_alias(
        self,
        a: Union[int, str],
        b: Union[int, str],
        ctx: Context = EMPTY_CTX,
    ) -> bool:
        """May variables ``a`` and ``b`` alias under ``ctx``?"""
        qa = self._query(a, ctx)
        qb = self._query(b, ctx)
        return self.seq.may_alias(qa.var, qb.var, ctx)

    def trace_points_to(
        self, target: Union[int, str], ctx: Context = EMPTY_CTX
    ) -> Tuple[QueryResult, List[Witness]]:
        """Points-to with certified flowsTo witnesses, one per
        ``(object, ctx)`` pair (sorted), via a resident share-nothing
        :class:`TracingEngine`.  Exhausted answers carry no witnesses —
        a partial traversal cannot certify its paths."""
        if self._tracer is None:
            self._tracer = TracingEngine(self.pag, self.engine_config)
        q = self._query(target, ctx)
        result = self._tracer.points_to(q.var, q.ctx)
        witnesses: List[Witness] = []
        if not result.exhausted:
            rep = self.pag.rep(q.var)
            for obj, obj_ctx in sorted(result.points_to):
                witnesses.append(
                    self._tracer.explain(rep, q.ctx, obj, obj_ctx)
                )
        return result, witnesses

    # ------------------------------------------------------------------
    # batches (resident parallel runners)
    # ------------------------------------------------------------------
    def _runner_runtime(
        self,
        mode: Optional[str],
        n_threads: Optional[int],
        backend: Optional[str],
    ) -> RuntimeConfig:
        """The session's runtime with a configuration's overrides; with
        none, the session's runtime itself (no copy per lookup)."""
        changes = {
            k: v for k, v in
            (("mode", mode), ("n_threads", n_threads), ("backend", backend))
            if v is not None
        }
        return self.runtime.with_(**changes) if changes else self.runtime

    @staticmethod
    def _runner_key(rt: RuntimeConfig) -> Tuple[str, int, str]:
        """Configurations that run identically share one runner: the
        key holds the worker count actually used, not the raw
        ``n_threads``."""
        return (rt.mode, rt.effective_threads, rt.backend)

    def runner(
        self,
        *,
        mode: Optional[str] = None,
        n_threads: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> ParallelCFL:
        """The resident :class:`ParallelCFL` for a configuration, on
        :attr:`seq`, created on first use."""
        rt = self._runner_runtime(mode, n_threads, backend)
        key = self._runner_key(rt)
        runner = self._runners.get(key)
        if runner is None:
            runner = ParallelCFL(
                self.build if self.build is not None else self.pag,
                runtime=rt,
                engine=self.engine_config,
                recorder=self.recorder,
                store=self.seq,
            )
            self._runners[key] = runner
        return runner

    def batch(
        self,
        queries: Optional[Sequence[Query]] = None,
        *,
        mode: Optional[str] = None,
        n_threads: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> BatchResult:
        """Run a query batch (default: all application locals) on the
        resident runner for this configuration."""
        return self.runner(
            mode=mode, n_threads=n_threads, backend=backend
        ).run(queries)

    def n_jump_entries(self) -> int:
        """Jump entries resident in the session's map."""
        if self._seq is None:
            return 0
        return self._seq.jumps.n_jumps

    # ------------------------------------------------------------------
    # checkers
    # ------------------------------------------------------------------
    def check(
        self,
        checkers: Optional[Sequence[str]] = None,
        *,
        mode: Optional[str] = None,
        n_threads: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> CheckReport:
        """Run the client checkers (default: all registered), all
        demanded queries dispatched in one scheduled batch on the
        resident runner for this configuration."""
        build = self._require_build("the checkers (they walk program "
                                    "statements)")
        if self.kind != "java":
            raise InputError(
                "the checkers require the mini-Java front-end; the C "
                "front-end has no class/statement structure to walk"
            )
        return run_checkers(
            build,
            list(checkers) if checkers else None,
            file=self.source,
            runner=self.runner(
                mode=mode, n_threads=n_threads, backend=backend
            ),
        )

    # ------------------------------------------------------------------
    # snapshots (warm-start state)
    # ------------------------------------------------------------------
    def export_log(self) -> List[DeltaEntry]:
        """The session's jump map as one epoch-0 delta, one entry per
        key."""
        return self.seq.jumps.export_log()

    def snapshot(self, path: Union[str, Path]) -> SnapshotHeader:
        """Persist the session's warm state (the PAG's fingerprint +
        the map's commit log + its invalidation footprints) for
        :meth:`from_snapshot` / ``repro serve --snapshot`` warm
        boots."""
        footprints = self._seq.footprints() if self._seq is not None else None
        return save_snapshot(
            path,
            self.pag,
            self.export_log(),
            footprints=footprints,
            recorder=self.recorder,
        )

    def warm_from_snapshot(self, path: Union[str, Path]) -> int:
        """Validate and replay a snapshot into :attr:`seq`, the map
        every runner of the session runs on.  Returns the accepted
        entries."""
        snap = load_snapshot(
            path, expect_pag=self.pag, recorder=self.recorder
        )
        return self.seq.warm_from(snap.log, snap.footprints)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def to_dot(self) -> str:
        """The PAG in Graphviz DOT form."""
        from repro.pag.dot import to_dot

        return to_dot(self.pag)

    def stats(self) -> Dict[str, Any]:
        """Resident-state summary (the backing of ``/healthz``)."""
        return {
            "source": self.source,
            "kind": self.kind,
            "n_nodes": self.pag.n_nodes,
            "n_edges": self.pag.n_edges,
            "mode": self.runtime.mode,
            "backend": self.runtime.backend,
            "n_threads": self.runtime.effective_threads,
            "budget": self.engine_config.budget,
            "n_runners": len(self._runners),
            "n_jump_entries": self.n_jump_entries(),
            "n_cached_queries": (
                self._seq.n_cached_queries if self._seq is not None else 0
            ),
        }

    def close(self) -> None:
        """Release resident state.  Executors hold no OS resources
        between batches (mp workers live only inside ``run_units``), so
        this just drops the caches; the session must not be used
        afterwards."""
        self._runners.clear()
        self._seq = None
        self._tracer = None
