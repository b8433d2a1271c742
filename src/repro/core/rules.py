"""The PAG traversal rule table: one row per edge kind of Fig. 1.

Pointer analysis here is one CFL-reachability problem over the PAG
under grammars (2)/(3); this table is its one statement of how each
edge kind is read.  Per traversal direction a row gives the adjacency
to read (``*_in`` backwards for ``POINTSTO``, ``*_out`` forwards for
``FLOWSTO``), the context action (keep, push the edge's call site, pop
it with an empty call string passing any site, or reset), and the
terminal from :meth:`CFLGrammar.terminal`, projected onto grammar
(2)'s alphabet.  Every row also obeys two rules: a global target gets
the empty context, and a context-insensitive run keeps the call string
where it would push or pop.

The matrix kernel discovers its states by closing the query seeds
under the rows, witness reconstruction (:mod:`repro.core.tracing`)
searches a sweep's visited set under them, and the engine's
hand-inlined sweeps are tested against them.  In the demand engine
the heap rows are the two ends of an alias round rather than single
steps; :data:`ROUND_KIND` names the row that opens a round in each
direction (``x = p.f`` backwards, ``q.f = x`` forwards).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple, Union

from repro.core.cfl import bar
from repro.core.context import EMPTY_CTX, Context
from repro.core.grammar import CFLGrammar, project_terminal
from repro.pag.edges import EdgeKind
from repro.pag.graph import PAG, FrozenPAG

__all__ = ["POINTS_TO", "FLOWS_TO", "CtxAction", "Rule", "ROUND_KIND", "rules"]

#: Direction tags (the ``direction`` component of traversal and
#: jump-map keys); they also index every per-direction pair below.
POINTS_TO = False
FLOWS_TO = True

#: A PAG edge label: field name (heap rows) or call-site id.
Label = Union[int, str]


class CtxAction(enum.Enum):
    """What crossing an edge does to the call string."""

    KEEP = "keep"
    PUSH = "push"
    POP = "pop"
    RESET = "reset"


@dataclass(frozen=True)
class Rule:
    """How one edge kind is traversed, per direction."""

    kind: EdgeKind
    #: PAG adjacency attribute, indexed by direction.
    adjacency: Tuple[str, str]
    #: Context action, indexed by direction.
    action: Tuple[CtxAction, CtxAction]
    #: Projected terminal template (``{label}``: the field name).
    terminal: str
    #: A heap leg (``ld``/``st``): one end of an alias round.
    heap: bool
    #: Adjacency entries are ``(node, label)`` pairs, not bare nodes.
    labelled: bool

    def symbol(self, direction: bool, label: Optional[Label] = None) -> str:
        """The terminal of one edge in ``direction``'s family."""
        term = self.terminal.format(label=label)
        return term if direction == FLOWS_TO else bar(term)

    def successors(
        self,
        pag: Union[PAG, FrozenPAG],
        direction: bool,
        x: int,
        c: Context,
        context_sensitive: bool = True,
    ) -> List[Tuple[int, Context, Optional[Label]]]:
        """``(y, cy, label)`` for every edge of this kind leaving state
        ``(x, c)`` in ``direction``, in adjacency order."""
        adjacent = getattr(pag, self.adjacency[direction]).get(x)
        if not adjacent:
            return []
        action = self.action[direction]
        if not context_sensitive and action in (CtxAction.PUSH, CtxAction.POP):
            action = CtxAction.KEEP
        labelled = self.labelled
        is_global = pag.is_global
        out: List[Tuple[int, Context, Optional[Label]]] = []
        for entry in adjacent:
            if labelled:
                y, label = entry
            else:
                y, label = entry, None
            if action is CtxAction.KEEP:
                cy = c
            elif action is CtxAction.RESET:
                cy = EMPTY_CTX
            elif action is CtxAction.PUSH:
                cy = c + (label,)
            elif not c or c[-1] == label:
                cy = c[:-1]
            else:
                continue  # POP: the call string returns elsewhere
            out.append((y, EMPTY_CTX if is_global(y) else cy, label))
        return out


#: The heap row whose adjacency opens an alias round, per direction.
ROUND_KIND: Tuple[EdgeKind, EdgeKind] = (EdgeKind.LOAD, EdgeKind.STORE)

#: kind -> (action backwards, action forwards).  Entering a callee
#: pushes its call site (``ret`` backwards, ``param`` forwards); leaving
#: it pops (``param`` backwards, ``ret`` forwards).
_ACTIONS = {
    EdgeKind.NEW: (CtxAction.KEEP, CtxAction.KEEP),
    EdgeKind.ASSIGN: (CtxAction.KEEP, CtxAction.KEEP),
    EdgeKind.GASSIGN: (CtxAction.RESET, CtxAction.RESET),
    EdgeKind.LOAD: (CtxAction.KEEP, CtxAction.KEEP),
    EdgeKind.STORE: (CtxAction.KEEP, CtxAction.KEEP),
    EdgeKind.PARAM: (CtxAction.POP, CtxAction.PUSH),
    EdgeKind.RET: (CtxAction.PUSH, CtxAction.POP),
}


@lru_cache(maxsize=None)
def rules(grammar: CFLGrammar) -> Tuple[Rule, ...]:
    """The table for ``grammar``, one row per :class:`EdgeKind` in enum
    order — the order the engine's sweeps expand successors in."""
    return tuple(
        Rule(
            kind,
            (f"{kind.name.lower()}_in", f"{kind.name.lower()}_out"),
            _ACTIONS[kind],
            project_terminal(grammar.terminal(kind, "{label}")),
            heap=kind in (EdgeKind.LOAD, EdgeKind.STORE),
            labelled=kind not in (EdgeKind.NEW, EdgeKind.ASSIGN, EdgeKind.GASSIGN),
        )
        for kind in EdgeKind
    )
