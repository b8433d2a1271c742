"""The CFL-reachability pointer-analysis engine (Algorithms 1 and 2).

``POINTSTO`` and ``FLOWSTO`` are the two directions of one traversal:

* **backwards** (``POINTSTO``): from a variable toward objects, along
  *incoming* value-flow edges — the ``flowsTo-bar`` direction;
* **forwards** (``FLOWSTO``): from an object toward the variables it
  flows to, along *outgoing* edges — the ``flowsTo`` direction.

Field-sensitivity (grammar (2)) is the ``st(f) alias ld(f)`` matching
done by ``REACHABLENODES``; context-sensitivity (grammar (3)) is the
call-site stack matched at ``param_i``/``ret_i`` edges with partially
balanced parentheses.  Data sharing (Algorithm 2) consults and extends
a :class:`~repro.core.jumpmap.JumpMap` around every alias-matching
round.

Deviations from the paper's pseudo-code, made for termination and
exact-answer guarantees (documented in DESIGN.md §4):

* Algorithm 1 terminates only via its budget.  This engine adds
  per-query memoisation of ``POINTSTO``/``FLOWSTO`` results with an
  outer chaotic-iteration loop, so that queries terminate and reach the
  full CFL fixpoint even with an unlimited budget (property-tested
  against the Andersen oracle).
* Finished ``jmp`` sets are published only for alias rounds whose
  results are provably final (no dependence on an in-progress
  computation), and the τ_F threshold gates the whole round rather
  than individual edges — publishing a truncated shortcut set would
  make later queries silently incomplete.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.context import Context, EMPTY_CTX
from repro.core.grammar import DEFAULT_GRAMMAR, get_grammar
from repro.core.jumpmap import JumpMapLifecycle
from repro.core.query import Query, QueryResult, QueryState
from repro.core.rules import FLOWS_TO, POINTS_TO
from repro.errors import AnalysisError, BudgetExhausted
from repro.pag.extended import FinishedJump
from repro.pag.graph import PAG

__all__ = ["EngineConfig", "CFLEngine", "FIELD_MODES", "POINTS_TO", "FLOWS_TO"]

# The alias rounds recurse POINTSTO -> REACHABLENODES -> POINTSTO; give
# CPython room for realistically deep access-path chains.
if sys.getrecursionlimit() < 100_000:
    sys.setrecursionlimit(100_000)


#: The validated heap-matching precision values (``field_mode``).
FIELD_MODES = ("sensitive", "match", "none")


@dataclass
class EngineConfig:
    """Tunable knobs of the analysis.

    Defaults reproduce the paper's configuration (Section IV-A):
    budget 75,000 steps, context- and field-sensitive, τ_F = 100,
    τ_U = 10,000.

    ``field_mode`` is the single heap-precision knob: ``"sensitive"``
    (full alias tests, grammar (2)), ``"match"`` (field-based: every
    store of field f matches every load of f without an alias test —
    the sound, cheap over-approximation that refinement-based schemes
    [18] start from), or ``"none"`` (field-insensitive).  The historic
    ``field_sensitive`` boolean and runtime-layer ``faults`` shims were
    removed with the ``repro.api`` consolidation — fault plans live on
    :class:`repro.runtime.config.RuntimeConfig`.
    """

    budget: int = 75_000
    context_sensitive: bool = True
    #: Heap-matching precision (one of :data:`FIELD_MODES`).
    field_mode: str = "sensitive"
    #: Honour unfinished-jump early termination (Algorithm 2 line 3).
    early_termination: bool = True
    #: Minimum round cost for publishing finished jmp edges (τ_F).
    tau_f: int = 100
    #: Minimum certified cost for publishing unfinished jmp edges (τ_U).
    tau_u: int = 10_000
    #: Also publish rounds that found nothing (ablation; the paper does
    #: not record empty rounds — see benchmarks/test_ablation_tau.py).
    record_empty_rounds: bool = False
    #: Safety valve for the chaotic-iteration loop.
    max_passes: int = 64
    #: Registered :mod:`repro.core.grammar` id the engine analyses
    #: under.  Every built-in grammar shares the ``flowsto`` traversal
    #: core, so this selects certification semantics and metric labels,
    #: not different sweeps; the engine refuses grammars whose declared
    #: ``traversal`` it has no compiled sweeps for.
    grammar: str = DEFAULT_GRAMMAR

    def __post_init__(self) -> None:
        if self.field_mode not in FIELD_MODES:
            raise AnalysisError(
                f"field_mode must be sensitive/match/none, got {self.field_mode!r}"
            )
        # Validate eagerly: a typo'd grammar id should fail at config
        # construction, not at first query.
        get_grammar(self.grammar)

    def with_(self, **changes) -> "EngineConfig":
        """A copy with ``changes`` applied and re-validated."""
        import dataclasses

        return dataclasses.replace(self, **changes)


class CFLEngine:
    """Demand-driven context- and field-sensitive points-to analysis.

    One engine per PAG; queries are independent.  Pass a shared
    :class:`JumpMap` (or a :class:`LayeredJumpMap` view) to enable the
    data-sharing scheme; ``jumps=None`` is the share-nothing baseline
    (the paper's ``SeqCFL`` / naive-parallel configuration).
    """

    def __init__(
        self,
        pag: PAG,
        config: Optional[EngineConfig] = None,
        jumps: Optional[JumpMapLifecycle] = None,
        prefilter=None,
        recorder=None,
    ) -> None:
        self.pag = pag
        self.cfg = config or EngineConfig()
        self._field_mode = self.cfg.field_mode
        #: The declarative grammar this engine analyses under (resolved
        #: from the config's registered id).  The sweeps below are the
        #: hand-compiled ``flowsto`` traversal core; a grammar declaring
        #: any other core has no compiled implementation here.
        self.grammar = get_grammar(self.cfg.grammar)
        if self.grammar.traversal != "flowsto":
            raise AnalysisError(
                f"grammar {self.grammar.name!r} declares traversal core "
                f"{self.grammar.traversal!r}; this engine only compiles "
                "the 'flowsto' core"
            )
        if jumps is not None:
            jumps_grammar = getattr(jumps, "grammar", DEFAULT_GRAMMAR)
            if jumps_grammar != self.cfg.grammar:
                raise AnalysisError(
                    f"jump map is labelled for grammar {jumps_grammar!r} "
                    f"but the engine runs {self.cfg.grammar!r}; sharing "
                    "summaries across grammars is unsound"
                )
        self.jumps = jumps
        #: Optional :class:`repro.obs.Recorder`.  The engine's only
        #: instrumentation point is a single per-query bulk flush in
        #: ``_query`` — the traversal loops are never touched, so a
        #: ``None``/``NullRecorder`` run is the exact pre-obs code path.
        self.recorder = recorder
        #: Optional must-not-alias pre-analysis (Section V-A / [25]):
        #: an object with ``may_alias(a, b) -> bool`` whose False
        #: answers are *proofs* of non-aliasing (e.g.
        #: :class:`repro.andersen.steensgaard.MustNotAlias`).  Used to
        #: skip provably fruitless store/load matches in alias rounds.
        self.prefilter = prefilter
        #: Optional witness recorder (see repro.core.tracing); set by
        #: TracingEngine.  Handed each sweep's visited set and each
        #: alias round's products; the sweeps themselves are untouched.
        self.tracer: Optional[Any] = None
        #: Optional footprint sink (see repro.core.incremental's
        #: FootprintCollector); set by IncrementalAnalysis.  Records,
        #: per query, the node/field/jump-entry surface the traversal
        #: touched so edits can invalidate selectively.  Like the
        #: recorder, every hook sits behind an ``is not None`` guard at
        #: sweep/round granularity — never inside the inner edge loops —
        #: so a ``None`` run is the unchanged hot path.
        self.footprint: Optional[Any] = None
        #: Context interning caches: the sweeps perform the same
        #: call-string pushes/pops millions of times, so each distinct
        #: extended context is materialised once and the same tuple
        #: object is reused for every later push (cheaper allocation,
        #: identity-fast-path equality in the visited/memo sets).
        self._ctx_push_cache: Dict[Tuple[Context, int], Context] = {}
        self._ctx_pop_cache: Dict[Context, Context] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def points_to(self, var: int, ctx: Context = EMPTY_CTX) -> QueryResult:
        """Answer ``POINTSTO(var, ctx)``: context-tagged objects ``var``
        may point to.  Partial results carry ``exhausted=True``."""
        if not self.pag.is_variable(self.pag.rep(var)):
            raise AnalysisError(f"points_to target {var} is not a variable node")
        return self._query(POINTS_TO, var, ctx)

    def flows_to(self, obj: int, ctx: Context = EMPTY_CTX) -> QueryResult:
        """Answer ``FLOWSTO(obj, ctx)``: context-tagged variables that
        ``obj`` flows to.  ``QueryResult.points_to`` holds the
        ``(variable, ctx)`` pairs for this direction."""
        if not self.pag.is_object(obj):
            raise AnalysisError(f"flows_to source {obj} is not an object node")
        return self._query(FLOWS_TO, obj, ctx)

    def run_query(self, query: Query) -> QueryResult:
        """Execute a points-to :class:`Query`."""
        return self.points_to(query.var, query.ctx)

    def run_batch(self, queries: Sequence[Query]) -> List[QueryResult]:
        """Execute queries in order against this engine (shared jump map
        if sharing is enabled) — the sequential batch mode."""
        return [self.run_query(q) for q in queries]

    def may_alias(self, a: int, b: int, ctx: Context = EMPTY_CTX) -> bool:
        """Client helper: may variables ``a`` and ``b`` alias?  True when
        their points-to object sets intersect (either query exhausting
        its budget conservatively answers True)."""
        ra = self.points_to(a, ctx)
        rb = self.points_to(b, ctx)
        if ra.exhausted or rb.exhausted:
            return True
        return bool(ra.objects & rb.objects)

    # ------------------------------------------------------------------
    # query driver: chaotic iteration to the CFL fixpoint
    # ------------------------------------------------------------------
    def _query(self, direction: bool, node: int, ctx: Context) -> QueryResult:
        node = self.pag.rep(node)
        if self.pag.is_global(node):
            ctx = EMPTY_CTX
        q = QueryState(self.cfg.budget)
        key = (direction, node, ctx)
        exhausted = False
        try:
            passes = 0
            while True:
                q.changed = False
                q.pass_done.clear()
                result = self._traverse(direction, node, ctx, q)
                passes += 1
                if key in q.complete or not q.changed:
                    break
                if passes >= self.cfg.max_passes:
                    raise AnalysisError(
                        f"fixpoint not reached after {passes} passes for {key}"
                    )
        except BudgetExhausted:
            exhausted = True
            result = q.memo.get(key, set())
        answer = QueryResult(
            query=Query(node, ctx),
            points_to=frozenset(result),
            exhausted=exhausted,
            costs=q.costs(),
        )
        rec = self.recorder
        if rec:
            rec.record_query(answer, self.cfg.grammar)
        return answer

    # ------------------------------------------------------------------
    # memoised traversal
    # ------------------------------------------------------------------
    def _traverse(
        self, direction: bool, node: int, ctx: Context, q: QueryState
    ) -> Set[Tuple[int, Context]]:
        if self.pag.is_global(node):
            ctx = EMPTY_CTX
        key = (direction, node, ctx)
        result = q.memo.get(key)
        if result is None:
            result = set()
            q.memo[key] = result
            q.note_live(1)
        if key in q.complete:
            return result
        if key in q.onstack:
            # Reading an in-progress computation: the caller's result is
            # provisional; the outer fixpoint loop will re-run it.
            q.partial_reads += 1
            return result
        pass_done = q.pass_done
        if key in pass_done:
            return result
        pass_done.add(key)

        q.onstack.add(key)
        reads_at_entry = q.partial_reads
        size_before = len(result)
        try:
            self._run_worklist(direction, node, ctx, q, result, key)
        finally:
            q.onstack.discard(key)
        if q.partial_reads == reads_at_entry:
            q.complete.add(key)
        if len(result) != size_before:
            q.changed = True
        return result

    def _run_worklist(
        self,
        direction: bool,
        start: int,
        ctx0: Context,
        q: QueryState,
        result: Set[Tuple[int, Context]],
        key: Tuple[bool, int, Context],
    ) -> None:
        """One worklist sweep of Algorithm 1, in the given direction.

        Hot path: pushes are inlined into the sweeps (a visited-set
        membership test and list append per edge, no per-push closure
        call) and call-string math goes through the interning caches.
        The sweeps hand-compile :mod:`repro.core.rules` (tested against it).
        """
        q.sweeps += 1
        if self.pag.is_global(start):
            ctx0 = EMPTY_CTX
        visited: Set[Tuple[int, Context]] = {(start, ctx0)}
        worklist: List[Tuple[int, Context]] = [(start, ctx0)]
        q.note_live(1)
        try:
            if direction == POINTS_TO:
                self._sweep_backwards(worklist, visited, q, result)
            else:
                self._sweep_forwards(worklist, visited, q, result)
        finally:
            q.note_live(-len(visited))
            fp = self.footprint
            if fp is not None:
                # Record even when the sweep aborted on BudgetExhausted:
                # entries published earlier in the query still need
                # their touched surface attributed.
                fp.add_nodes(visited)
            tracer = self.tracer
            if tracer is not None:
                # Witnesses are rebuilt from this set after the query.
                tracer.sweep(key, visited)

    def _ctx_push(self, c: Context, site: int) -> Context:
        """Interned ``ctx_push``: one tuple per distinct extension."""
        cache = self._ctx_push_cache
        got = cache.get((c, site))
        if got is None:
            got = cache[(c, site)] = c + (site,)
        return got

    def _ctx_pop(self, c: Context) -> Context:
        """Interned ``ctx_pop`` (callers guarantee ``c`` is non-empty)."""
        cache = self._ctx_pop_cache
        got = cache.get(c)
        if got is None:
            got = cache[c] = c[:-1]
        return got

    def _sweep_backwards(
        self,
        worklist: List[Tuple[int, Context]],
        visited: Set[Tuple[int, Context]],
        q: QueryState,
        result: Set[Tuple[int, Context]],
    ) -> None:
        """``POINTSTO`` direction: incoming edges (Algorithm 1 lines
        3-15), with pushes inlined and adjacency tables bound to locals."""
        pag = self.pag
        cs = self.cfg.context_sensitive
        heap = self._field_mode != "none"
        is_global = pag.is_global
        new_in = pag.new_in
        assign_in = pag.assign_in
        gassign_in = pag.gassign_in
        param_in = pag.param_in
        ret_in = pag.ret_in
        visited_add = visited.add
        append = worklist.append
        note_live = q.note_live
        result_add = result.add
        budget = q.budget
        while worklist:
            q.frontier_sum += len(worklist)
            x, c = worklist.pop()
            q.steps += 1
            q.work += 1
            if q.steps > budget:
                self._out_of_budget(q, 0)
            for o in new_in.get(x, ()):
                result_add((o, c))
            for y in assign_in.get(x, ()):
                item = (y, EMPTY_CTX) if is_global(y) else (y, c)
                if item not in visited:
                    visited_add(item)
                    note_live(1)
                    append(item)
            for y in gassign_in.get(x, ()):
                item = (y, EMPTY_CTX)
                if item not in visited:
                    visited_add(item)
                    note_live(1)
                    append(item)
            if heap:
                for y, cy in self._reachable_nodes(POINTS_TO, x, c, q):
                    item = (y, EMPTY_CTX) if is_global(y) else (y, cy)
                    if item not in visited:
                        visited_add(item)
                        note_live(1)
                        append(item)
            if cs:
                for y, i in param_in.get(x, ()):
                    # exit the callee back to call site i
                    if not c:
                        cy = c
                    elif c[-1] == i:
                        cy = self._ctx_pop(c)
                    else:
                        continue
                    item = (y, EMPTY_CTX) if is_global(y) else (y, cy)
                    if item not in visited:
                        visited_add(item)
                        note_live(1)
                        append(item)
                for y, i in ret_in.get(x, ()):
                    # enter the callee through its return
                    item = (
                        (y, EMPTY_CTX) if is_global(y)
                        else (y, self._ctx_push(c, i))
                    )
                    if item not in visited:
                        visited_add(item)
                        note_live(1)
                        append(item)
            else:
                for pairs in (param_in.get(x, ()), ret_in.get(x, ())):
                    for y, _i in pairs:
                        item = (y, EMPTY_CTX) if is_global(y) else (y, c)
                        if item not in visited:
                            visited_add(item)
                            note_live(1)
                            append(item)

    def _sweep_forwards(
        self,
        worklist: List[Tuple[int, Context]],
        visited: Set[Tuple[int, Context]],
        q: QueryState,
        result: Set[Tuple[int, Context]],
    ) -> None:
        """``FLOWSTO`` direction: outgoing edges (mirror of the above)."""
        pag = self.pag
        cs = self.cfg.context_sensitive
        heap = self._field_mode != "none"
        is_global = pag.is_global
        is_object = pag.is_object
        new_out = pag.new_out
        assign_out = pag.assign_out
        gassign_out = pag.gassign_out
        param_out = pag.param_out
        ret_out = pag.ret_out
        visited_add = visited.add
        append = worklist.append
        note_live = q.note_live
        result_add = result.add
        budget = q.budget
        while worklist:
            q.frontier_sum += len(worklist)
            x, c = worklist.pop()
            q.steps += 1
            q.work += 1
            if q.steps > budget:
                self._out_of_budget(q, 0)
            if is_object(x):
                for v in new_out.get(x, ()):
                    item = (v, EMPTY_CTX) if is_global(v) else (v, c)
                    if item not in visited:
                        visited_add(item)
                        note_live(1)
                        append(item)
                continue
            result_add((x, c))
            for y in assign_out.get(x, ()):
                item = (y, EMPTY_CTX) if is_global(y) else (y, c)
                if item not in visited:
                    visited_add(item)
                    note_live(1)
                    append(item)
            for y in gassign_out.get(x, ()):
                item = (y, EMPTY_CTX)
                if item not in visited:
                    visited_add(item)
                    note_live(1)
                    append(item)
            if heap:
                for y, cy in self._reachable_nodes(FLOWS_TO, x, c, q):
                    item = (y, EMPTY_CTX) if is_global(y) else (y, cy)
                    if item not in visited:
                        visited_add(item)
                        note_live(1)
                        append(item)
            if cs:
                for y, i in param_out.get(x, ()):
                    # enter the callee through its formal
                    item = (
                        (y, EMPTY_CTX) if is_global(y)
                        else (y, self._ctx_push(c, i))
                    )
                    if item not in visited:
                        visited_add(item)
                        note_live(1)
                        append(item)
                for y, i in ret_out.get(x, ()):
                    # exit to call site i through the return value
                    if not c:
                        cy = c
                    elif c[-1] == i:
                        cy = self._ctx_pop(c)
                    else:
                        continue
                    item = (y, EMPTY_CTX) if is_global(y) else (y, cy)
                    if item not in visited:
                        visited_add(item)
                        note_live(1)
                        append(item)
            else:
                for pairs in (param_out.get(x, ()), ret_out.get(x, ())):
                    for y, _i in pairs:
                        item = (y, EMPTY_CTX) if is_global(y) else (y, c)
                        if item not in visited:
                            visited_add(item)
                            note_live(1)
                            append(item)

    # ------------------------------------------------------------------
    # REACHABLENODES — Algorithm 2 (Algorithm 1's version is the
    # jumps=None special case)
    # ------------------------------------------------------------------
    def _reachable_nodes(
        self, direction: bool, x: int, c: Context, q: QueryState
    ) -> List[Tuple[int, Context]]:
        pag = self.pag
        if direction == POINTS_TO:
            heap_edges = pag.load_in.get(x)
        else:
            heap_edges = pag.store_out.get(x)
        if not heap_edges:
            return []
        fp = self.footprint
        if fp is not None:
            # The round's answer depends on every store/load of these
            # fields program-wide (stores_by_field/loads_by_field), so a
            # later edit on one of them must invalidate whatever this
            # query caches or publishes.
            for _b, f in heap_edges:
                fp.add_field(f)

        if self._field_mode == "match":
            # Field-based matching: skip the alias test entirely and
            # return every store/load of the field, context-free — the
            # cheap over-approximation refinement starts from.  (The
            # empty context is maximally permissive downstream, so this
            # over-approximates the sensitive answer.)
            out: List[Tuple[int, Context]] = []
            if direction == POINTS_TO:
                for _p, f in heap_edges:
                    for _q_base, y in pag.stores_by_field.get(f, ()):
                        out.append((y, EMPTY_CTX))
            else:
                for _q_base, f in heap_edges:
                    for _p, t in pag.loads_by_field.get(f, ()):
                        out.append((t, EMPTY_CTX))
            return out

        jumps = self.jumps
        key = (x, c, direction)
        if jumps is not None:
            q.jmp_lookups += 1
            s_unf = jumps.unfinished(key)
            if s_unf is not None:
                # Fig. 3(b): a prior query certified that s_unf steps are
                # needed from here; terminate early if we cannot afford them.
                if self.cfg.early_termination and q.budget - q.steps < s_unf:
                    q.early_terminations += 1
                    self._out_of_budget(q, s_unf)
                # enough budget: recompute in full (paper Section III-B2)
            else:
                fin = jumps.finished(key)
                if fin is not None:
                    # Fig. 3(a): take the shortcuts; charge the recorded
                    # cost so budget behaviour matches a full traversal.
                    if fp is not None:
                        # The shortcut hides the nodes behind the entry,
                        # so the consumer's node footprint is incomplete
                        # — record the dependency instead; invalidating
                        # the entry then cascades to its consumers.
                        fp.add_consumed(key)
                    s_max = max((e.steps for e in fin), default=0)
                    q.steps += s_max
                    q.saved += s_max
                    q.jmp_taken += 1
                    if q.steps > q.budget:
                        # Deferred check (Section III-B2): the charge may
                        # itself exhaust the budget.
                        self._out_of_budget(q, 0)
                    return [(e.target, e.target_ctx) for e in fin]

        # ---- full alias-matching round (Algorithm 1 lines 17-25) ----
        s0 = q.steps
        q.frames.append((x, c, s0, direction))
        reads_at_entry = q.partial_reads
        tracer = self.tracer
        rch: List[Tuple[Tuple[int, Context], int]] = []
        seen: Set[Tuple[int, Context]] = set()
        try:
            prefilter = self.prefilter
            if direction == POINTS_TO:
                # x = p.f matched against every q.f = y
                for p, f in heap_edges:
                    stores = pag.stores_by_field.get(f)
                    if not stores:
                        continue
                    classes = None
                    if prefilter is not None:
                        stores = [
                            (qb, y) for qb, y in stores
                            if prefilter.may_alias(p, qb)
                        ]
                        if not stores:
                            continue  # all matches provably non-aliasing
                        classes = {prefilter.class_id(qb) for qb, _y in stores}
                    alias = self._alias_map(p, c, q, classes)
                    for q_base, y in stores:
                        for cv, witness_obj in alias.get(q_base, {}).items():
                            item = (y, cv)
                            if item not in seen:
                                seen.add(item)
                                rch.append((item, q.steps - s0))
                                if tracer is not None:
                                    tracer.heap(
                                        direction, x, c, item,
                                        f, p, q_base, witness_obj,
                                    )
            else:
                # q.f = x matched against every t = p.f
                for q_base, f in heap_edges:
                    loads = pag.loads_by_field.get(f)
                    if not loads:
                        continue
                    classes = None
                    if prefilter is not None:
                        loads = [
                            (p, t) for p, t in loads
                            if prefilter.may_alias(q_base, p)
                        ]
                        if not loads:
                            continue
                        classes = {prefilter.class_id(p) for p, _t in loads}
                    alias = self._alias_map(q_base, c, q, classes)
                    for p, t in loads:
                        for cv, witness_obj in alias.get(p, {}).items():
                            item = (t, cv)
                            if item not in seen:
                                seen.add(item)
                                rch.append((item, q.steps - s0))
                                if tracer is not None:
                                    tracer.heap(
                                        direction, x, c, item,
                                        f, q_base, p, witness_obj,
                                    )
        finally:
            q.frames.pop()

        round_cost = q.steps - s0
        if (
            jumps is not None
            and q.partial_reads == reads_at_entry
            and (rch or self.cfg.record_empty_rounds)
        ):
            if round_cost >= self.cfg.tau_f:
                edges = tuple(FinishedJump(t, tc, s) for ((t, tc), s) in rch)
                if jumps.insert_finished(key, edges):
                    q.jmp_inserts += max(1, len(edges))
                    if fp is not None:
                        fp.add_published(key)
            else:
                # A publishable (final) round gated out by τ_F alone.
                q.tau_f_suppressed += 1
        return [item for item, _s in rch]

    def _alias_map(
        self,
        base: int,
        c: Context,
        q: QueryState,
        target_classes: Optional[set] = None,
    ) -> Dict[int, Dict[Context, Tuple[int, Context]]]:
        """Aliases of ``(base, c)``: variable -> {context: witness
        object}, computed as ``FLOWSTO(o, c0)`` for every ``(o, c0)`` in
        ``POINTSTO(base, c)`` (Algorithm 1 lines 20-22).  The witness
        object ``(o, c0)`` establishing each alias pair is retained for
        the tracing facility (first witness wins).

        With ``target_classes`` (the must-not-alias pre-filter, [25]),
        the forward ``FLOWSTO`` sweep is skipped for objects whose
        unification class matches none of the matched bases — the
        pre-analysis proves such objects cannot reach them, so the
        sweep's results would all be discarded.
        """
        prefilter = self.prefilter
        alias: Dict[int, Dict[Context, Tuple[int, Context]]] = {}
        for o, c0 in list(self._traverse(POINTS_TO, base, c, q)):
            if (
                target_classes is not None
                and prefilter is not None
                and prefilter.class_id(o) not in target_classes
            ):
                continue
            for v, cv in list(self._traverse(FLOWS_TO, o, c0, q)):
                alias.setdefault(v, {}).setdefault(cv, (o, c0))
        return alias

    # ------------------------------------------------------------------
    def _out_of_budget(self, q: QueryState, bdg: int) -> None:
        """Algorithm 2's ``OUTOFBUDGET``: certify every in-flight round
        as unfinished, then abort the query."""
        if self.jumps is not None:
            for x, c, s0, direction in q.frames:
                s_unf = min(q.budget, bdg + q.steps - s0)
                if s_unf >= self.cfg.tau_u:
                    if self.jumps.insert_unfinished((x, c, direction), s_unf):
                        q.jmp_inserts += 1
                else:
                    # An in-flight frame whose certified cost fell below
                    # τ_U — the paper's gate against useless entries.
                    q.tau_u_suppressed += 1
        raise BudgetExhausted(bdg)
