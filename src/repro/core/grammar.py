"""Declarative CFL grammar objects — the analysis-family axis.

The paper hard-codes one grammar into the engine's traversal sweeps:
``flowsTo`` with field-balanced parentheses (grammars (1)-(4)).  But
CFL-reachability is a *family* of static analyses — FlowCFL-style
taint tracking and escape analysis are the same traversal shape with a
different grammar.  This module makes the grammar a first-class,
declarative value:

* a :class:`CFLGrammar` names the symbols, carries the productions (as
  a :class:`~repro.core.cfl.CFG` factory over the program's field
  alphabet), maps PAG edge kinds onto terminals, and names the
  jump/summary nonterminals the data-sharing scheme shortcuts;
* a registry (:func:`register_grammar` / :func:`get_grammar`) lets
  engines, checkers, the jump map and the observability layer refer to
  grammars by id (``"flowsto"``, ``"taint"``, ``"escape"``);
* :meth:`CFLGrammar.certify` is the single entry point for witness
  certification: CYK membership against the declarative productions
  plus (optionally) the R_CS realisability side condition.

How the PAG is traversed is stated once, in the rule table
:mod:`repro.core.rules` builds from a grammar's edge-kind terminals
(DESIGN.md §4.14); matrix state discovery and witness reconstruction
read it, and the engine's hand-inlined sweeps are tested against it.
Every built-in grammar declares ``traversal="flowsto"`` — taint and
escape compose over the same traversal (their extra productions
describe how *client* checkers stitch flowsTo witnesses together, not
new traversal rules).  The declarative object is authoritative for
certification, which :mod:`repro.core.conformance` runs on every suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.cfl import CFG, bar, is_realizable, lfs_with_jumps
from repro.errors import AnalysisError
from repro.pag.edges import EdgeKind

__all__ = [
    "CFLGrammar",
    "register_grammar",
    "get_grammar",
    "grammar_ids",
    "DEFAULT_GRAMMAR",
    "project_terminal",
    "flowsto_productions",
    "taint_productions",
    "escape_productions",
]

#: The grammar every engine runs unless told otherwise.
DEFAULT_GRAMMAR = "flowsto"

#: Edge-kind -> terminal templates shared by every built-in grammar
#: (they all read the same PAG).  ``{label}`` is the field name for
#: LOAD/STORE and the call-site id for PARAM/RET.
_PAG_TERMINALS: Mapping[EdgeKind, str] = {
    EdgeKind.NEW: "new",
    EdgeKind.ASSIGN: "assign",
    EdgeKind.GASSIGN: "reset",
    EdgeKind.LOAD: "ld:{label}",
    EdgeKind.STORE: "st:{label}",
    EdgeKind.PARAM: "param:{label}",
    EdgeKind.RET: "ret:{label}",
}


@dataclass(frozen=True)
class CFLGrammar:
    """One CFL-reachability analysis, declaratively.

    ``productions`` is a factory building the full :class:`CFG` for a
    given field alphabet (field-sensitive grammars have two productions
    per field).  ``start`` is the certification start symbol;
    ``summary`` is the nonterminal whose completed derivation rounds
    the data-sharing scheme publishes as ``jump_symbol`` shortcut
    edges.  ``traversal`` names the compiled sweep family implementing
    the grammar in the engine hot path — only ``"flowsto"`` exists
    today, and :class:`~repro.core.engine.CFLEngine` refuses grammars
    it has no compiled sweeps for.
    """

    name: str
    description: str
    #: Certification start symbol (e.g. ``flowsTo`` / ``taint`` /
    #: ``escapes``).
    start: str
    #: Summary nonterminal shortcut by the data-sharing scheme.
    summary: str
    #: Terminal the sharing scheme records for a published summary.
    jump_symbol: str
    #: How queries against this grammar are phrased (README catalog).
    query_shape: str
    #: CFG factory: field alphabet -> full grammar.
    productions: Callable[[Tuple[str, ...]], CFG] = field(compare=False)
    #: Edge kind -> terminal template (``{label}`` substituted).
    edge_terminals: Mapping[EdgeKind, str] = field(
        default_factory=lambda: _PAG_TERMINALS, compare=False
    )
    #: Compiled sweep family implementing this grammar's traversal.
    traversal: str = "flowsto"
    #: Apply the R_CS call-string realisability side condition
    #: (grammar (3)) during certification.
    context_condition: bool = True

    # ------------------------------------------------------------------
    def cfg(self, fields: Iterable[str] = ()) -> CFG:
        """The full CFG over the given field alphabet (cached: CNF
        conversion is quadratic in the production count)."""
        key = tuple(sorted(set(fields)))
        cache: Dict[Tuple[str, ...], CFG] = _CFG_CACHE.setdefault(self.name, {})
        got = cache.get(key)
        if got is None:
            got = cache[key] = self.productions(key)
        return got

    def terminal(
        self,
        kind: EdgeKind,
        label: Optional[object] = None,
        barred: bool = False,
    ) -> str:
        """The terminal symbol a PAG edge of ``kind`` contributes."""
        template = self.edge_terminals.get(kind)
        if template is None:
            raise AnalysisError(
                f"grammar {self.name!r} maps no terminal for edge kind {kind!r}"
            )
        term = template.format(label=label) if "{label}" in template else template
        return bar(term) if barred else term

    def fields_of(self, pag: object) -> Tuple[str, ...]:
        """The field alphabet of a PAG (store/load field names)."""
        stores = getattr(pag, "stores_by_field", {})
        loads = getattr(pag, "loads_by_field", {})
        return tuple(sorted(set(stores) | set(loads)))

    # ------------------------------------------------------------------
    def recognizes(
        self, terminals: Sequence[str], fields: Iterable[str] = ()
    ) -> bool:
        """CYK membership of a terminal string under ``start``."""
        return self.cfg(fields).recognizes(terminals, self.start)

    def certify(
        self,
        terminals: Sequence[str],
        fields: Iterable[str] = (),
        *,
        skip_context_condition: bool = False,
    ) -> bool:
        """Full certification of a witness string: CYK membership plus
        (when this grammar enforces it and the string does not cross a
        context-clearing ``reset``) R_CS realisability.

        Call-site terminals (``param:i``/``ret:i``) and ``reset``
        markers are projected onto ``assign`` for the membership test —
        the declarative productions describe the field structure, the
        side condition handles the call-string structure, exactly as
        the paper splits grammar (2) from grammar (3).
        """
        projected = [project_terminal(t) for t in terminals]
        crosses_global = any(t.lstrip("~") == "reset" for t in terminals)
        if not self.recognizes(projected, fields):
            return False
        if not self.context_condition or skip_context_condition or crosses_global:
            # Globals are analysed context-insensitively; the flat
            # single-stack R_CS does not apply across a reset.
            return True
        return is_realizable([bar(t) for t in terminals])


def project_terminal(term: str) -> str:
    """Grammar (2)'s view of a terminal: call-site terminals
    (``param:i``/``ret:i``) and ``reset`` become (possibly barred)
    ``assign``; the call-string structure is grammar (3)'s concern."""
    barred = term.startswith("~")
    body = term[1:] if barred else term
    if body.partition(":")[0] in ("param", "ret") or body == "reset":
        return bar("assign") if barred else "assign"
    return term


#: Per-grammar CFG cache (keyed by field alphabet).
_CFG_CACHE: Dict[str, Dict[Tuple[str, ...], CFG]] = {}


# ----------------------------------------------------------------------
# built-in production factories
# ----------------------------------------------------------------------
def flowsto_productions(fields: Tuple[str, ...]) -> CFG:
    """Grammar (4): field-sensitive ``flowsTo`` with ``jmp`` shortcut
    terminals — what the engine's sweeps implement."""
    return lfs_with_jumps(fields)


def taint_productions(fields: Tuple[str, ...]) -> CFG:
    """The taint language: a tainted value reaches a sink when source
    and sink *alias* — share an object whose value flows to both — so
    the start symbol derives ``flowsToBar flowsTo``.  Assignments,
    field store/load matching and (projected) calls are inherited from
    the flowsTo productions unchanged; only the top of the derivation
    differs."""
    g = lfs_with_jumps(fields)
    g.add("taint", "alias")
    return g.with_start("taint")


def escape_productions(fields: Tuple[str, ...]) -> CFG:
    """The escape language: an object escapes when its value flows to a
    *root* variable (a static/global or a formal parameter — the root
    condition is a side condition on the final node, like R_CS), or
    when it is stored into a field of a base whose pointed-to object
    itself escapes:

    ``escapes -> flowsTo | flowsTo st:f flowsToBar escapes``
    """
    g = lfs_with_jumps(fields)
    g.add("escapes", "flowsTo")
    for f in fields:
        g.add("escapes", "flowsTo", f"st:{f}", "flowsToBar", "escapes")
    return g.with_start("escapes")


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, CFLGrammar] = {}


def register_grammar(grammar: CFLGrammar) -> CFLGrammar:
    """Add a grammar to the global registry (unique by name)."""
    if grammar.name in _REGISTRY:
        raise AnalysisError(f"duplicate grammar id {grammar.name!r}")
    _REGISTRY[grammar.name] = grammar
    return grammar


def get_grammar(name: str) -> CFLGrammar:
    """Look a grammar up by id."""
    got = _REGISTRY.get(name)
    if got is None:
        known = ", ".join(sorted(_REGISTRY))
        raise AnalysisError(f"unknown grammar {name!r} (known: {known})")
    return got


def grammar_ids() -> List[str]:
    """Registered grammar ids, in registration order."""
    return list(_REGISTRY)


FLOWSTO = register_grammar(
    CFLGrammar(
        name="flowsto",
        description=(
            "The paper's pointer-analysis grammar: flowsTo with "
            "field-balanced parentheses and jmp shortcuts (grammars (2)/(4))."
        ),
        start="flowsTo",
        summary="alias",
        jump_symbol="jmp",
        query_shape="points_to(var, ctx) / flows_to(obj, ctx)",
        productions=flowsto_productions,
    )
)

TAINT = register_grammar(
    CFLGrammar(
        name="taint",
        description=(
            "Source-to-sink value-flow: source and sink share an object "
            "(taint -> flowsToBar flowsTo), FlowCFL-style."
        ),
        start="taint",
        summary="alias",
        jump_symbol="jmp",
        query_shape="taints(source_var, sink_var) via shared object",
        productions=taint_productions,
    )
)

ESCAPE = register_grammar(
    CFLGrammar(
        name="escape",
        description=(
            "Object reachability from static or parameter roots: "
            "escapes -> flowsTo | flowsTo st:f flowsToBar escapes."
        ),
        start="escapes",
        summary="alias",
        jump_symbol="jmp",
        query_shape="escapes(obj) to a global/parameter root",
        # Heap-transitive escape chains splice independently-derived
        # flowsTo witnesses whose call strings need not compose into
        # one realisable stack; membership alone certifies the chain.
        context_condition=False,
        productions=escape_productions,
    )
)
