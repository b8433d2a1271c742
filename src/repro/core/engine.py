"""The CFL-reachability pointer-analysis engine (Algorithms 1 and 2).

``POINTSTO`` and ``FLOWSTO`` are the two directions of one traversal:

* **backwards** (``POINTSTO``): from a variable toward objects, along
  *incoming* value-flow edges — the ``flowsTo-bar`` direction;
* **forwards** (``FLOWSTO``): from an object toward the variables it
  flows to, along *outgoing* edges — the ``flowsTo`` direction.

Both run one sweep whose legs are compiled from the rule table of
:mod:`repro.core.rules`.  Field-sensitivity (grammar (2)) is the
``st(f) alias ld(f)`` matching done by ``REACHABLENODES``;
context-sensitivity (grammar (3)) is the call-site stack matched at
``param_i``/``ret_i`` edges with partially balanced parentheses.  Data
sharing (Algorithm 2) consults and extends a
:class:`~repro.core.jumpmap.JumpMap` around every alias-matching round.

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
* Entering a callee through a call site already on the call string
  resets it to the empty context, so call strings stay bounded on PAGs
  whose edits added a recursion cycle that build-time collapse never
  saw (see :mod:`repro.core.context`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.context import Context, EMPTY_CTX, ctx_enter, ctx_exit
from repro.core.grammar import DEFAULT_GRAMMAR, get_grammar
from repro.core.jumpmap import JumpMapLifecycle
from repro.core.query import Query, QueryResult, QueryState
from repro.core.rules import (
    ANSWER_KIND, FLOWS_TO, MATCHED_BY_FIELD, POINTS_TO, ROUND_KIND, CtxAction, rules,
)
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

#: How :meth:`CFLEngine._sweep` reads one compiled leg's entries: bare
#: nodes keeping or resetting the call string (the ops ``<= _RESET``),
#: ``(node, site)`` pairs entering or leaving a callee or
#: (context-insensitive) keeping the string, and the alias round.
_KEEP, _RESET, _ENTER, _EXIT, _KEEP_LABELLED, _ROUND = range(6)
_OPS = {CtxAction.KEEP: _KEEP, CtxAction.RESET: _RESET,
        CtxAction.PUSH: _ENTER, CtxAction.POP: _EXIT}
#: How a labelled leg crosses its call edge (context-insensitive runs
#: keep the call string).
_CROSSINGS = {_ENTER: ctx_enter, _EXIT: ctx_exit,
              _KEEP_LABELLED: lambda c, _site: c}


@lru_cache(maxsize=None)
def _compiled_legs(
    grammar: str, direction: bool, context_sensitive: bool, heap: bool
) -> Tuple[Optional[str], Callable[[PAG], Tuple[Any, ...]], Tuple[int, ...]]:
    """The sweep in ``direction``, compiled from the rule table of the
    registered ``grammar``: the adjacency its answers are read off
    (``None``: the variable items themselves), then a leg per plain row
    and for the round row (none when field-insensitive), in table order
    — a getter of the legs' adjacencies and their ops."""
    answer = None
    legs = []
    for rule in rules(get_grammar(grammar)):
        name = rule.adjacency[direction]
        if rule.kind is ANSWER_KIND[direction]:
            answer = name
        elif rule.heap:
            if heap and rule.kind is ROUND_KIND[direction]:
                legs.append((name, _ROUND))
        elif rule.labelled and not context_sensitive:
            legs.append((name, _KEEP_LABELLED))
        else:
            legs.append((name, _OPS[rule.action[direction]]))
    names, ops = zip(*legs)
    return answer, attrgetter(*names), ops


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
    [18] start from), or ``"none"`` (field-insensitive).
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
    #: ``traversal`` it has no compiled sweep for.
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
        #: from the config's registered id).  The sweep below is compiled
        #: from its rule table for the ``flowsto`` traversal core; a
        #: grammar declaring any other core has no implementation here.
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
        #: alias round's products; the sweep itself is untouched.
        self.tracer: Optional[Any] = None
        #: Optional footprint sink (see repro.core.incremental's
        #: FootprintCollector); set by IncrementalAnalysis.  Records,
        #: per query, the node/field/jump-entry surface the traversal
        #: touched so edits can invalidate selectively.  Like the
        #: recorder, every hook sits behind an ``is not None`` guard at
        #: sweep/round granularity — never inside the inner edge loops —
        #: so a ``None`` run is the unchanged hot path.
        self.footprint: Optional[Any] = None
        #: The sweep per direction (indexed by ``POINTS_TO``/``FLOWS_TO``).
        cs, heap = self.cfg.context_sensitive, self._field_mode != "none"
        self._compiled = [_compiled_legs(self.cfg.grammar, d, cs, heap)
                          for d in (POINTS_TO, FLOWS_TO)]

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
        """One worklist sweep of Algorithm 1 in the given direction, its
        legs compiled from the rule table (:func:`_compiled_legs`); the
        hooks below run per sweep, never inside the edge loops."""
        q.sweeps += 1
        visited: Set[Tuple[int, Context]] = {(start, ctx0)}
        worklist: List[Tuple[int, Context]] = [(start, ctx0)]
        q.note_live(1)
        try:
            self._sweep(direction, worklist, visited, q, result)
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

    def _sweep(
        self,
        direction: bool,
        worklist: List[Tuple[int, Context]],
        visited: Set[Tuple[int, Context]],
        q: QueryState,
        result: Set[Tuple[int, Context]],
    ) -> None:
        """Algorithm 1 lines 3-15 in either direction: pop an item, read
        off its answers, then follow every compiled leg in table order,
        with worklist pushes inlined."""
        pag = self.pag
        answer, adjacencies, ops = self._compiled[direction]
        # Resolved per sweep, not per engine: edits mutate the PAG.
        answer_adj = getattr(pag, answer) if answer is not None else None
        legs = list(zip(adjacencies(pag), ops))
        is_global = pag.is_global
        is_object = pag.is_object
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
            if answer_adj is not None:
                for o in answer_adj.get(x, ()):
                    result_add((o, c))
            elif not is_object(x):
                result_add((x, c))
            for adjacency, op in legs:
                entries = adjacency.get(x)
                if not entries:
                    continue
                if op <= _RESET:
                    cy = c if op == _KEEP else EMPTY_CTX
                    for y in entries:
                        item = (y, EMPTY_CTX) if is_global(y) else (y, cy)
                        if item not in visited:
                            visited_add(item)
                            note_live(1)
                            append(item)
                elif op == _ROUND:
                    for y, cy in self._reachable_nodes(direction, x, c, q, entries):
                        item = (y, EMPTY_CTX) if is_global(y) else (y, cy)
                        if item not in visited:
                            visited_add(item)
                            note_live(1)
                            append(item)
                else:
                    cross = _CROSSINGS[op]
                    for y, i in entries:
                        cy = cross(c, i)
                        if cy is None:
                            continue  # the call string returns elsewhere
                        item = (y, EMPTY_CTX) if is_global(y) else (y, cy)
                        if item not in visited:
                            visited_add(item)
                            note_live(1)
                            append(item)

    # ------------------------------------------------------------------
    # REACHABLENODES — Algorithm 2 (Algorithm 1's version is the
    # jumps=None special case)
    # ------------------------------------------------------------------
    def _reachable_nodes(
        self,
        direction: bool,
        x: int,
        c: Context,
        q: QueryState,
        heap_edges: Sequence[Tuple[int, str]],
    ) -> List[Tuple[int, Context]]:
        """The alias round of ``x``'s round-row ``(base, f)`` entries:
        ``x = p.f`` matched against every ``q.f = y`` backwards, ``q.f =
        x`` against every ``t = p.f`` forwards."""
        by_field = getattr(self.pag, MATCHED_BY_FIELD[direction])
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
            return [(y, EMPTY_CTX) for _b, f in heap_edges
                    for _other, y in by_field.get(f, ())]

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
            for base, f in heap_edges:
                matched = by_field.get(f)
                if not matched:
                    continue
                classes = None
                if prefilter is not None:
                    matched = [
                        (other, y) for other, y in matched
                        if prefilter.may_alias(base, other)
                    ]
                    if not matched:
                        continue  # all matches provably non-aliasing
                    classes = {prefilter.class_id(other) for other, _y in matched}
                alias = self._alias_map(base, c, q, classes)
                for other, y in matched:
                    for cv, witness_obj in alias.get(other, {}).items():
                        item = (y, cv)
                        if item not in seen:
                            seen.add(item)
                            rch.append((item, q.steps - s0))
                            if tracer is not None:
                                tracer.heap(direction, x, c, item,
                                            f, base, other, witness_obj)
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
