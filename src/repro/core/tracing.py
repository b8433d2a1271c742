"""Witness extraction: *why* does ``v`` point to ``o``?

The demand-driven analysis's client-facing virtue (debugging,
Section I) is that every answer corresponds to a concrete
``flowsTo``-path.  :class:`TracingEngine` runs the engine's ordinary
sweeps, keeping only each traversal's visited set and the alias
rounds' products.  For any ``(variable, object)`` answer it then
searches those sets under the rule table of :mod:`repro.core.rules`
and rebuilds the full witness string in the paper's grammar (2) —
alias sub-derivations recursively expanded — which the test suite
*certifies* with the CYK recogniser of :mod:`repro.core.cfl` and the
realisability check of grammar (3).

Data sharing is disabled while tracing (``jmp`` shortcuts erase the
paths they skip); budgets apply as usual.

Example::

    engine = TracingEngine(build.pag)
    result = engine.points_to(var)
    for obj, ctx in result.points_to:
        witness = engine.explain(var, (), obj, ctx)
        print(witness.pretty())
        assert witness.certify(fields=pag_fields)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, TypeVar, Union,
)

from repro.core.cfl import bar
from repro.core.context import EMPTY_CTX, Context
from repro.core.engine import CFLEngine, EngineConfig
from repro.core.grammar import FLOWSTO, terminal
from repro.core.query import QueryResult
from repro.core.rules import (
    ANSWER_KIND, FLOWS_TO, POINTS_TO, ROUND_KIND, RULES, Label, Rule,
)
from repro.errors import AnalysisError
from repro.pag.edges import EdgeKind
from repro.pag.graph import PAG

__all__ = ["TracingEngine", "Witness", "TraceRecorder"]

Item = Tuple[int, Context]
Key = Tuple[bool, int, Context]
#: An alias round's record of one product: (field, pt_base, ft_target,
#: witness object item).
HeapAux = Tuple[str, int, int, Item]
#: How the search reached an item: (source item, rule row, edge label);
#: None for the traversal start.
Hop = Optional[Tuple[Item, Rule, Optional[Label]]]
_V = TypeVar("_V")

#: A witness tree: terminals and nested sub-trees (alias derivations).
Tree = List[Union[str, "Tree"]]


class TraceRecorder:
    """What the engine's tracing hooks record: each traversal key's
    last visited set and every alias round's products.  Parent chains
    are not recorded; :class:`TracingEngine` rebuilds them on demand."""

    def __init__(self) -> None:
        #: per traversal key: the items its last sweep visited
        self.visited: Dict[Key, Set[Item]] = {}
        #: (direction, round node, round ctx) -> {produced item:
        #: (field, pt_base, ft_target, witness object item)}, latest
        #: production last
        self.heap_aux: Dict[Tuple[bool, int, Context], Dict[Item, HeapAux]] = {}

    # -- engine hooks ----------------------------------------------------
    def sweep(self, key: Key, visited: Set[Item]) -> None:
        self.visited[key] = visited

    def heap(
        self,
        direction: bool,
        x: int,
        c: Context,
        item: Item,
        f: str,
        pt_base: int,
        ft_target: int,
        witness_obj: Item,
    ) -> None:
        products = self.heap_aux.setdefault((direction, x, c), {})
        # Re-inserting moves the item last: the order of the latest
        # round is the order its sweep pushed the items in.
        products.pop(item, None)
        products[item] = (f, pt_base, ft_target, witness_obj)


@dataclass
class Witness:
    """A reconstructed ``flowsTo`` witness for one points-to answer."""

    pag: PAG
    var: int
    var_ctx: Context
    obj: int
    obj_ctx: Context
    #: nested terminal tree (alias derivations as sub-trees)
    tree: Tree = field(default_factory=list)

    # ------------------------------------------------------------------
    def terminals(self) -> List[str]:
        """The flat forward ``flowsTo`` string, outermost to innermost,
        with call-site terminals (``param:i``/``ret:i``) and ``reset``
        markers (global crossings) retained."""
        out: List[str] = []

        def walk(tree: Tree) -> None:
            for t in tree:
                if isinstance(t, list):
                    walk(t)
                else:
                    out.append(t)

        walk(self.tree)
        return out

    def has_global_crossing(self) -> bool:
        return any(t.lstrip("~") == "reset" for t in self.terminals())

    def certify(self, fields: Optional[Sequence[str]] = None) -> bool:
        """Check the witness against the formal languages: CYK
        membership under flowsTo (:data:`~repro.core.grammar.FLOWSTO`,
        grammar (2)) and, when the path does not cross a
        context-clearing global, realisability R_CS (grammar (3)).
        """
        if fields is None:
            fields = sorted(
                set(self.pag.stores_by_field) | set(self.pag.loads_by_field)
            )
        return FLOWSTO.certify(self.terminals(), fields)

    def pretty(self) -> str:
        """Readable one-line rendering with nested alias brackets."""

        def walk(tree: Tree) -> str:
            parts = []
            for t in tree:
                parts.append(f"[{walk(t)}]" if isinstance(t, list) else t)
            return " ".join(parts)

        return (
            f"{self.pag.name(self.obj)} flowsTo {self.pag.name(self.var)}: "
            + walk(self.tree)
        )


class TracingEngine(CFLEngine):
    """A :class:`CFLEngine` that can explain its answers.

    It runs the ordinary sweeps; its recorder keeps each traversal's
    visited set and the alias rounds' products, and :meth:`explain`
    rebuilds parent chains from them under the rule table of
    :mod:`repro.core.rules`.  Sharing is rejected (shortcuts skip the
    paths being explained).
    """

    def __init__(self, pag: PAG, config: Optional[EngineConfig] = None) -> None:
        super().__init__(pag, config, jumps=None)
        self.tracer: TraceRecorder = TraceRecorder()
        #: traversal key -> its replayed discovery order, built on
        #: first use and dropped whenever a new query sweeps again
        self._searched: Dict[Key, _Replay] = {}

    def _query(self, direction: bool, node: int, ctx: Context) -> QueryResult:
        self._searched.clear()
        return super()._query(direction, node, ctx)

    # ------------------------------------------------------------------
    def explain(
        self,
        var: int,
        var_ctx: Context,
        obj: int,
        obj_ctx: Context,
    ) -> Witness:
        """Reconstruct the witness for ``(obj, obj_ctx) ∈
        points_to(var, var_ctx)``.  The query must have been executed on
        this engine already (``points_to`` fills the recorder)."""
        var = self.pag.rep(var)
        key: Key = (POINTS_TO, var, var_ctx)
        if key not in self.tracer.visited:
            raise AnalysisError(
                f"no trace for query ({self.pag.name(var)}, {var_ctx}); "
                "run points_to() on this engine first"
            )
        bar_tree = self._pt_tree(key, (obj, obj_ctx), set())
        tree = _reverse_bar(bar_tree)
        return Witness(self.pag, var, var_ctx, obj, obj_ctx, tree)

    def _replay(self, key: Key) -> _Replay:
        replay = self._searched.get(key)
        if replay is None:
            replay = self._searched[key] = _Replay(self, key)
        return replay

    # ------------------------------------------------------------------
    # tree construction
    # ------------------------------------------------------------------
    def _pt_tree(self, key: Key, obj_item: Item, onstack: Set[Key]) -> Tree:
        """``flowsToBar`` tree for the PT traversal ``key`` reaching the
        object ``obj_item`` — barred terminals in hop order, ending with
        ``~new``."""
        replay = self._replay(key)
        at = replay.advance(replay.objs, obj_item)
        if at is None:
            raise AnalysisError(
                f"object {obj_item} not discovered by traversal {key}"
            )
        tree = self._tree(key, at, onstack)
        tree.append(terminal(EdgeKind.NEW, barred=True))
        return tree

    def _tree(self, key: Key, target: Item, onstack: Set[Key]) -> Tree:
        """Terminals of the rebuilt chain from ``key``'s start to
        ``target``, in the traversal's own reading direction (barred
        for PT, plain for FT)."""
        if key in onstack:
            raise AnalysisError(f"cyclic witness reconstruction at {key}")
        replay = self._replay(key)
        parents = replay.parents
        replay.advance(parents, target)
        if target not in parents:
            raise AnalysisError(f"item {target} not reached in traversal {key}")
        onstack.add(key)
        try:
            tree: Tree = []
            item, hop = target, parents[target]
            while hop is not None:
                src, rule, label = hop
                tree[:0] = self._hop_terms(key[0], src, item, rule, label, onstack)
                item, hop = src, parents[src]
            return tree
        finally:
            onstack.discard(key)

    def _hop_terms(
        self,
        direction: bool,
        src: Item,
        dst: Item,
        rule: Rule,
        label: Optional[Label],
        onstack: Set[Key],
    ) -> Tree:
        """Terminals for one traversal hop, in the traversal's own
        reading direction (barred for PT, plain for FT)."""
        barred = direction == POINTS_TO
        if not rule.heap:
            return [terminal(rule.kind, label, barred)]
        x, c = src
        aux = self.tracer.heap_aux.get((direction, x, c), {}).get(dst)
        if aux is None:
            raise AnalysisError(f"missing heap provenance at {src}->{dst}")
        f, pt_base, ft_target, witness_obj = aux
        # The alias sub-derivation: flowsToBar(pt_base ~> obj) then
        # flowsTo(obj ~> ft_target).  PT bases are queried under the
        # round's context c; the FT half under the object's context.
        pt_base = self.pag.rep(pt_base)
        pt_ctx = EMPTY_CTX if self.pag.is_global(pt_base) else c
        pt_key: Key = (POINTS_TO, pt_base, pt_ctx)
        ft_key: Key = (FLOWS_TO, witness_obj[0], witness_obj[1])
        alias_tree: Tree = [
            self._pt_tree(pt_key, witness_obj, onstack),
            self._tree(ft_key, (self.pag.rep(ft_target), dst[1]), onstack),
        ]
        ld = terminal(EdgeKind.LOAD, f, barred)
        st = terminal(EdgeKind.STORE, f, barred)
        if barred:  # stepBar -> ~ld(f) alias ~st(f)
            return [ld, alias_tree, st]
        return [st, alias_tree, ld]  # step -> st(f) alias ld(f)


class _Replay:
    """One traversal's discovery order, re-run over its visited set.

    LIFO from the start, successors in table order (the round row
    yields the recorded round products), kept inside the visited set —
    so every item gets the parent its sweep discovered it from, and
    each ``new`` answer of a ``POINTSTO`` traversal the first variable
    item whose edge produced it.  Items are popped only as far as a
    caller needs.
    """

    def __init__(self, engine: TracingEngine, key: Key) -> None:
        visited = engine.tracer.visited.get(key)
        if visited is None:
            raise AnalysisError(f"traversal {key} was never swept")
        root = (key[1], key[2])
        #: item -> how the sweep reached it (None for the start)
        self.parents: Dict[Item, Hop] = {root: None}
        #: object answer -> the variable item whose ``new`` edge found it
        self.objs: Dict[Item, Item] = {}
        self._steps = self._run(engine, key[0], root, visited)

    def advance(self, table: Mapping[Item, _V], item: Item) -> Optional[_V]:
        """``table[item]`` (``table`` is :attr:`parents` or
        :attr:`objs`), popping items until it appears; None when the
        whole replay never reaches it."""
        if item not in table:
            for _ in self._steps:
                if item in table:
                    break
        return table.get(item)

    def _run(
        self, engine: TracingEngine, direction: bool, root: Item, visited: Set[Item]
    ) -> Iterator[None]:
        pag = engine.pag
        cs = engine.cfg.context_sensitive
        round_kind = ROUND_KIND[direction] if engine.cfg.field_mode != "none" else None
        answers = ANSWER_KIND[direction]
        heap_aux = engine.tracer.heap_aux
        parents = self.parents
        objs = self.objs
        worklist = [root]
        while worklist:
            cur = worklist.pop()
            x, c = cur
            for rule in RULES:
                if not rule.heap:
                    succ = rule.successors(pag, direction, x, c, cs)
                elif rule.kind is round_kind:
                    products = heap_aux.get((direction, x, c), ())
                    succ = [(y, EMPTY_CTX if pag.is_global(y) else cy, None)
                            for y, cy in products]
                else:
                    continue
                for y, cy, label in succ:
                    item = (y, cy)
                    if rule.kind is answers:
                        objs.setdefault(item, cur)
                    elif item in visited and item not in parents:
                        parents[item] = (cur, rule, label)
                        worklist.append(item)
            yield None


def _reverse_bar(tree: Tree) -> Tree:
    """Reverse a witness tree and flip every terminal's bar — turning a
    ``flowsToBar`` derivation into the corresponding ``flowsTo`` one
    (and vice versa).  Alias sub-trees are direction-neutral: their two
    halves swap and flip, which again forms a valid alias."""
    out: Tree = []
    for t in reversed(tree):
        out.append(_reverse_bar(t) if isinstance(t, list) else bar(t))
    return out
