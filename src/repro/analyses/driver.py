"""Checker driver: collect demands, answer them in one scheduled batch,
let checkers turn answers into findings.

The point of routing every checker's queries through a single
:class:`~repro.runtime.executor.ParallelCFL` pass is that clients
inherit the paper's batch machinery for free:

* **data sharing** (Section III-B) — overlapping traversals plant and
  take ``jmp`` shortcuts in the shared jump map;
* **query scheduling** (Section III-C) — demanded variables are grouped
  by the ``direct`` relation and ordered by connection distance and
  dependence depth, maximising early terminations;
* **deduplication** — checkers routinely demand the same variable (the
  null-dereference and race checkers both query every dereferenced
  base); :func:`~repro.core.scheduling.dedupe_queries` collapses those
  onto one traversal each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from repro.analyses.base import Checker, Finding, Severity, make_checkers
from repro.core.context import Context, EMPTY_CTX
from repro.core.engine import EngineConfig
from repro.core.query import Query, QueryResult
from repro.core.scheduling import dedupe_queries
from repro.core.tracing import TracingEngine, Witness
from repro.errors import AnalysisError, ValidationError
from repro.ir.program import Method, Program, Variable
from repro.ir.statements import Alloc, Load, Statement, Store
from repro.pag.build import BuildResult
from repro.runtime.executor import ParallelCFL
from repro.runtime.results import BatchResult

__all__ = ["AllocSite", "CheckContext", "CheckReport", "DerefSite", "run_checkers"]


class AllocSite(NamedTuple):
    """One allocation: the object node, its label, and where it is."""

    obj: int
    label: str
    method: Optional[Method]
    stmt: Optional[Statement]

    @property
    def line(self) -> Optional[int]:
        return getattr(self.stmt, "loc", None) if self.stmt is not None else None


class DerefSite(NamedTuple):
    """One field dereference: ``target = base.field`` or
    ``base.field = value``."""

    method: Method
    stmt: Statement
    kind: str  # "load" | "store"
    base: str
    field: str
    #: Representative PAG node of the base, or None when the base has no
    #: node (primitive-typed — cannot happen for field bases — or the
    #: implicit ``this``, which is excluded by callers that want it so).
    base_node: Optional[int]


@dataclass
class CheckContext:
    """Everything a checker sees, in both phases.

    During :meth:`Checker.demands` the answer table is empty; after the
    batch ran, :meth:`answer` serves every demanded query.
    """

    build: BuildResult
    file: Optional[str] = None
    engine_config: EngineConfig = field(default_factory=EngineConfig)
    #: (rep node, ctx) -> QueryResult, filled by the driver.
    answers: Dict[Tuple[int, Context], QueryResult] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._deref_sites: Optional[List[DerefSite]] = None
        self._tracing: Optional[TracingEngine] = None
        self._traced: Set[int] = set()
        self._alloc_sites: Optional[Dict[int, "AllocSite"]] = None

    # ------------------------------------------------------------------
    @property
    def program(self) -> Program:
        return self.build.program

    @property
    def pag(self):
        return self.build.pag

    @property
    def types(self):
        return self.build.program.types

    # ------------------------------------------------------------------
    def node_for(self, method: Method, name: str) -> Optional[int]:
        """Representative PAG node for variable ``name`` referenced in
        ``method`` (local first, then global); None for primitives."""
        local = method.locals.get(name)
        if local is not None:
            nid = self.build.var_ids.get(local.qualified_name)
        else:
            g = self.program.globals.get(name)
            nid = self.build.var_ids.get(g.name) if g is not None else None
        return None if nid is None else self.pag.rep(nid)

    def node_of_var(self, var: Variable) -> Optional[int]:
        """Representative PAG node for an IR :class:`Variable` (globals
        are keyed by bare name); None for primitives."""
        nid = self.build.var_ids.get(var.qualified_name)
        return None if nid is None else self.pag.rep(nid)

    def annotated_nodes(self, annotation: str) -> List[Tuple[Variable, int]]:
        """``(variable, rep node)`` for every reference-typed variable
        carrying ``annotation``, in deterministic program order."""
        out: List[Tuple[Variable, int]] = []
        for var in self.program.annotated_vars(annotation):
            nid = self.node_of_var(var)
            if nid is not None:
                out.append((var, nid))
        return out

    def alloc_site_of(self, obj: int) -> Optional[AllocSite]:
        """The allocation site behind an object node (label decoded back
        to its method and ``new`` statement).  Cached for the batch."""
        if self._alloc_sites is None:
            sites: Dict[int, AllocSite] = {}
            for label, nid in self.build.obj_ids.items():
                method: Optional[Method] = None
                stmt: Optional[Statement] = None
                # Labels are "o:Class.method:idx" (see pag.build).
                _o, _, rest = label.partition(":")
                qual, _, idx_s = rest.rpartition(":")
                try:
                    m = self.program.method(qual)
                    allocs = [s for s in m.body if isinstance(s, Alloc)]
                    stmt = allocs[int(idx_s)]
                    method = m
                except (ValidationError, ValueError, IndexError):
                    pass
                sites[nid] = AllocSite(nid, label, method, stmt)
            self._alloc_sites = sites
        return self._alloc_sites.get(obj)

    def deref_sites(self) -> List[DerefSite]:
        """All field dereferences in application code, with resolved
        base nodes.  Cached — several checkers walk the same list."""
        if self._deref_sites is None:
            sites: List[DerefSite] = []
            for method in self.program.methods():
                if not method.is_app:
                    continue
                for stmt in method.body:
                    if isinstance(stmt, Load):
                        sites.append(
                            DerefSite(method, stmt, "load", stmt.base, stmt.field,
                                      self.node_for(method, stmt.base))
                        )
                    elif isinstance(stmt, Store):
                        sites.append(
                            DerefSite(method, stmt, "store", stmt.base, stmt.field,
                                      self.node_for(method, stmt.base))
                        )
            self._deref_sites = sites
        return self._deref_sites

    # ------------------------------------------------------------------
    def answer(self, node: int, ctx: Context = EMPTY_CTX) -> Optional[QueryResult]:
        """Batch answer for ``(node, ctx)``; None if never demanded."""
        return self.answers.get((self.pag.rep(node), ctx))

    def precise_lookup(self, node: int, ctx: Context) -> Optional[QueryResult]:
        """Batch-entry hook for :class:`repro.core.refinement.
        RefinementDriver`: reuse the scheduled batch's field-sensitive
        answer as the refined stage."""
        return self.answer(node, ctx)

    # ------------------------------------------------------------------
    def witness_for(
        self, var: int, obj: int, obj_ctx: Context, ctx: Context = EMPTY_CTX
    ) -> Optional[Witness]:
        """Certified ``flowsTo`` witness for ``obj ∈ pts(var)``, or None
        when reconstruction fails (e.g. the tracing re-run exhausts its
        budget).  Tracing re-executes the query share-nothing (shortcuts
        erase the paths they skip), so this is only done per *finding*,
        never per query."""
        var = self.pag.rep(var)
        if self._tracing is None:
            self._tracing = TracingEngine(self.pag, self.engine_config)
        try:
            if var not in self._traced:
                self._tracing.points_to(var, ctx)
                self._traced.add(var)
            return self._tracing.explain(var, ctx, obj, obj_ctx)
        except AnalysisError:
            return None

    def loc_of(self, stmt: Statement) -> Optional[int]:
        return getattr(stmt, "loc", None)


@dataclass
class CheckReport:
    """Outcome of one ``run_checkers`` invocation."""

    findings: List[Finding]
    checkers: List[str]
    #: queries demanded by checkers before deduplication
    n_demanded: int
    #: unique queries actually dispatched
    n_queries: int
    batch: Optional[BatchResult]
    file: Optional[str] = None

    def count_at_or_above(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity >= severity)

    def counts_by_severity(self) -> Dict[str, int]:
        out = {s.name.lower(): 0 for s in Severity}
        for f in self.findings:
            out[f.severity.name.lower()] += 1
        return out


def run_checkers(
    build: BuildResult,
    checkers: Optional[Sequence[Union[Checker, str]]] = None,
    *,
    file: Optional[str] = None,
    runner: Optional[ParallelCFL] = None,
) -> CheckReport:
    """Run checkers over a built program with one batched query pass.

    ``checkers`` may mix :class:`Checker` instances and registry ids;
    None runs every registered checker.  The batch runs on ``runner``,
    a :class:`ParallelCFL` over ``build`` whose engine configuration
    and recorder the checkers share (default: a fresh runner on
    :class:`RuntimeConfig`'s defaults).
    """
    if runner is None:
        runner = ParallelCFL(build)
    resolved: List[Checker] = []
    ids: List[str] = []
    for c in checkers if checkers is not None else make_checkers():
        if isinstance(c, str):
            c = make_checkers([c])[0]
        resolved.append(c)
        ids.append(c.id)

    ctx = CheckContext(
        build=build,
        file=file,
        engine_config=runner.engine_config,
    )

    demanded: List[Query] = []
    for checker in resolved:
        demanded.extend(checker.demands(ctx))
    unique = dedupe_queries(build.pag, demanded)

    batch: Optional[BatchResult] = None
    if unique:
        batch = runner.run(unique)
        ctx.answers = batch.results_by_query()

    findings: List[Finding] = []
    for checker in resolved:
        for f in checker.finish(ctx):
            if f.file is None:
                f.file = file
            findings.append(f)
    findings.sort(
        key=lambda f: (
            f.file or "",
            f.line if f.line is not None else 0,
            -int(f.severity),
            f.checker,
            f.message,
        )
    )
    return CheckReport(
        findings=findings,
        checkers=ids,
        n_demanded=len(demanded),
        n_queries=len(unique),
        batch=batch,
        file=file,
    )
