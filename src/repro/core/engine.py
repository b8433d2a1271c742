"""The CFL-reachability pointer-analysis engine (Algorithms 1 and 2).

``POINTSTO`` and ``FLOWSTO`` are the two directions of one traversal:

* **backwards** (``POINTSTO``): from a variable toward objects, along
  *incoming* value-flow edges — the ``flowsTo-bar`` direction;
* **forwards** (``FLOWSTO``): from an object toward the variables it
  flows to, along *outgoing* edges — the ``flowsTo`` direction.

Both run one sweep compiled from the rule table of
:mod:`repro.core.rules` into one op per edge kind: the engine answers
one language, the paper's flowsTo, and its witnesses certify under
:data:`repro.core.grammar.FLOWSTO`.  Each sweep step reads all of its
node's adjacency rows with one lookup in the PAG's leg index
(:meth:`~repro.pag.graph.PAG.rows`), which the PAG keeps current
through edits, and keeps its step, work and live-entry counts in
locals between the points where other code reads them.

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
* Entering a callee through a call site already on the call string
  resets it to the empty context, so call strings stay bounded on PAGs
  whose edits added a recursion cycle that build-time collapse never
  saw (see :mod:`repro.core.context`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.context import Context, EMPTY_CTX, ctx_enter, ctx_exit
from repro.core.jumpmap import JumpMapLifecycle
from repro.core.query import Query, QueryResult, QueryState
from repro.core.rules import (
    ANSWER_KIND, FLOWS_TO, MATCHED_BY_FIELD, POINTS_TO, ROUND_KIND, RULES,
    CtxAction,
)
from repro.errors import AnalysisError, BudgetExhausted
from repro.pag.extended import FinishedJump
from repro.pag.graph import PAG
from repro.pag.nodes import NodeKind

__all__ = ["EngineConfig", "CFLEngine", "FIELD_MODES", "POINTS_TO", "FLOWS_TO"]

# The alias rounds recurse POINTSTO -> REACHABLENODES -> POINTSTO; give
# CPython room for realistically deep access-path chains.
if sys.getrecursionlimit() < 100_000:
    sys.setrecursionlimit(100_000)


#: The validated heap-matching precision values (``field_mode``).
FIELD_MODES = ("sensitive", "match", "none")

#: How :meth:`CFLEngine._sweep` reads one row of the PAG's leg index:
#: bare nodes keeping or resetting the call string (the ops
#: ``<= _RESET``), ``(node, site)`` pairs entering or leaving a callee
#: or (context-insensitive) keeping the string, the alias round, and the
#: backwards ``new`` row whose targets are answers.
_KEEP, _RESET, _ENTER, _EXIT, _KEEP_LABELLED, _ROUND, _ANSWER = range(7)
_OPS = {CtxAction.KEEP: _KEEP, CtxAction.RESET: _RESET,
        CtxAction.PUSH: _ENTER, CtxAction.POP: _EXIT}
#: How a labelled leg crosses its call edge (context-insensitive runs
#: keep the call string).
_CROSSINGS = {_ENTER: ctx_enter, _EXIT: ctx_exit,
              _KEEP_LABELLED: lambda c, _site: c}
_GLOBAL, _OBJECT = int(NodeKind.GLOBAL), int(NodeKind.OBJECT)


@lru_cache(maxsize=None)
def _compiled_legs(
    direction: bool, context_sensitive: bool, heap: bool
) -> Tuple[bool, Tuple[Optional[int], ...]]:
    """The sweep in ``direction``, compiled from the rule table: whether
    the variable items themselves are its answers (forwards), then one
    op per edge kind, indexed by :class:`EdgeKind` — ``_ANSWER`` for the
    row answers are read off (backwards ``new``), ``_ROUND`` for the
    round row (none when field-insensitive), ``None`` for a row that is
    no leg (the other heap row)."""
    ops: List[Optional[int]] = []
    for rule in RULES:
        if rule.kind is ANSWER_KIND[direction]:
            ops.append(_ANSWER)
        elif rule.heap:
            ops.append(_ROUND if heap and rule.kind is ROUND_KIND[direction]
                       else None)
        elif rule.labelled and not context_sensitive:
            ops.append(_KEEP_LABELLED)
        else:
            ops.append(_OPS[rule.action[direction]])
    return ANSWER_KIND[direction] is None, tuple(ops)


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
    #: Minimum round cost for publishing finished jmp edges (τ_F).
    tau_f: int = 100
    #: Minimum certified cost for publishing unfinished jmp edges (τ_U).
    tau_u: int = 10_000
    #: Also publish rounds that found nothing (ablation; the paper does
    #: not record empty rounds — see benchmarks/test_ablation_tau.py).
    record_empty_rounds: bool = False
    #: Safety valve for the chaotic-iteration loop.
    max_passes: int = 64

    def __post_init__(self) -> None:
        if self.field_mode not in FIELD_MODES:
            raise AnalysisError(
                f"field_mode must be sensitive/match/none, got {self.field_mode!r}"
            )

    def with_(self, **changes) -> "EngineConfig":
        """A copy with ``changes`` applied and re-validated."""
        import dataclasses

        return dataclasses.replace(self, **changes)


class CFLEngine:
    """Demand-driven context- and field-sensitive points-to analysis.

    One engine per PAG; queries are independent.  Pass a shared jump
    map (any :class:`JumpMapLifecycle`, read and written directly) to
    enable the data-sharing scheme; ``jumps=None`` is the share-nothing
    baseline (the paper's ``SeqCFL`` / naive-parallel configuration).
    Each alias round matches a heap edge against every store or load
    of its field (Algorithm 1 lines 17-25).
    """

    def __init__(
        self,
        pag: PAG,
        config: Optional[EngineConfig] = None,
        jumps: Optional[JumpMapLifecycle] = None,
        recorder=None,
    ) -> None:
        self.pag = pag
        self.cfg = config or EngineConfig()
        self._field_mode = self.cfg.field_mode
        self.jumps = jumps
        #: Optional :class:`repro.obs.Recorder`.  The engine's only
        #: instrumentation point is a single per-query bulk flush in
        #: ``_query`` — the traversal loops are never touched, so a
        #: ``None``/``NullRecorder`` run is the exact pre-obs code path.
        self.recorder = recorder
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
        self._compiled = [_compiled_legs(d, cs, heap)
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
            rec.record_query(answer)
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
        off its answers, then follow each row of its node's leg index
        (:meth:`PAG.rows`, kept current by the PAG through edits) by its
        compiled op, in table order, with worklist pushes inlined.

        ``steps``, ``work``, ``frontier_sum`` and the live-entry count
        run in locals and reach ``q`` only where other code reads them:
        before an alias round (which reads and advances ``q.steps`` and
        counts its own live entries), before :meth:`_out_of_budget`, and
        at exit.  ``steps`` is written back on normal exit and before
        raising only — a round that exhausted the budget has already
        advanced ``q.steps`` past this sweep's local."""
        pag = self.pag
        items_answer, ops = self._compiled[direction]
        row_of = pag.rows(direction).get
        kinds = pag.kinds
        visited_add = visited.add
        append = worklist.append
        result_add = result.add
        budget = q.budget
        steps = q.steps
        work = frontier = live = 0
        try:
            while worklist:
                frontier += len(worklist)
                x, c = worklist.pop()
                steps += 1
                work += 1
                if steps > budget:
                    q.steps = steps
                    self._out_of_budget(q, 0)
                if items_answer and kinds[x] != _OBJECT:
                    result_add((x, c))
                row = row_of(x)
                if row is None:
                    continue
                for kind, entries in row:
                    op = ops[kind]
                    if op is None:
                        continue
                    if op <= _RESET:
                        cy = c if op == _KEEP else EMPTY_CTX
                        for y in entries:
                            item = (y, EMPTY_CTX) if kinds[y] == _GLOBAL else (y, cy)
                            if item not in visited:
                                visited_add(item)
                                live += 1
                                append(item)
                    elif op == _ANSWER:
                        for o in entries:
                            result_add((o, c))
                    elif op == _ROUND:
                        q.steps = steps
                        q.note_live(live)
                        live = 0
                        products = self._reachable_nodes(direction, x, c, q, entries)
                        steps = q.steps
                        for y, cy in products:
                            item = (y, EMPTY_CTX) if kinds[y] == _GLOBAL else (y, cy)
                            if item not in visited:
                                visited_add(item)
                                live += 1
                                append(item)
                    else:
                        cross = _CROSSINGS[op]
                        for y, i in entries:
                            cy = cross(c, i)
                            if cy is None:
                                continue  # the call string returns elsewhere
                            item = (y, EMPTY_CTX) if kinds[y] == _GLOBAL else (y, cy)
                            if item not in visited:
                                visited_add(item)
                                live += 1
                                append(item)
            q.steps = steps
        finally:
            q.work += work
            q.frontier_sum += frontier
            q.note_live(live)

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
            fp.add_fields(heap_edges)

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
                if q.budget - q.steps < s_unf:
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
            for base, f in heap_edges:
                matched = by_field.get(f)
                if not matched:
                    continue
                alias = self._alias_map(base, c, q)
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
        self, base: int, c: Context, q: QueryState
    ) -> Dict[int, Dict[Context, Tuple[int, Context]]]:
        """Aliases of ``(base, c)``: variable -> {context: witness
        object}, computed as ``FLOWSTO(o, c0)`` for every ``(o, c0)`` in
        ``POINTSTO(base, c)`` (Algorithm 1 lines 20-22).  The witness
        object ``(o, c0)`` establishing each alias pair is retained for
        the tracing facility (first witness wins).
        """
        alias: Dict[int, Dict[Context, Tuple[int, Context]]] = {}
        for o, c0 in list(self._traverse(POINTS_TO, base, c, q)):
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
