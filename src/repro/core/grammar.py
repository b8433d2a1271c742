"""The declarative grammars witnesses are certified under.

The engine answers one language: the paper's ``flowsTo`` with
field-balanced parentheses and ``jmp`` shortcuts (grammars (2)-(4)).
How it traverses the PAG is stated once, in the rule table of
:mod:`repro.core.rules`, built from this module's PAG terminals
(:func:`terminal`); the demand engine, the matrix kernel and witness
reconstruction all read that table (DESIGN.md §4.14).  This module
states three languages declaratively, for certification only:

* :data:`FLOWSTO` — grammar (4), the traversal's own language: every
  engine witness and every conformance run is certified under it, and
  the matrix kernel closes its CNF;
* :data:`TAINT` and :data:`ESCAPE` — the taint and escape checkers'
  certification grammars.  Their extra productions describe how those
  checkers stitch flowsTo witnesses together; they add no traversal.

A :class:`CFLGrammar` carries the productions (a
:class:`~repro.core.cfl.CFG` factory over the program's field
alphabet); :meth:`CFLGrammar.certify` is the single entry point for
witness certification: CYK membership plus, where the grammar declares
it, the R_CS realisability side condition.  :func:`get_grammar` looks
the three up by id (a checker's ``grammar`` attribute).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.core.cfl import CFG, bar, is_realizable, lfs_with_jumps
from repro.errors import AnalysisError
from repro.pag.edges import EdgeKind

__all__ = [
    "CFLGrammar",
    "FLOWSTO",
    "TAINT",
    "ESCAPE",
    "get_grammar",
    "terminal",
    "project_terminal",
    "flowsto_productions",
    "taint_productions",
    "escape_productions",
]

#: Edge-kind -> terminal templates.  ``{label}`` is the field name for
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


def terminal(
    kind: EdgeKind, label: Optional[object] = None, barred: bool = False
) -> str:
    """The terminal symbol a PAG edge of ``kind`` contributes."""
    template = _PAG_TERMINALS[kind]
    term = template.format(label=label) if "{label}" in template else template
    return bar(term) if barred else term


@dataclass(frozen=True)
class CFLGrammar:
    """One certification language, declaratively.

    ``productions`` is a factory building the full :class:`CFG` for a
    given field alphabet (field-sensitive grammars have two productions
    per field); ``start`` is the certification start symbol.
    """

    name: str
    description: str
    #: Certification start symbol (e.g. ``flowsTo`` / ``taint`` /
    #: ``escapes``).
    start: str
    #: CFG factory: field alphabet -> full grammar.
    productions: Callable[[Tuple[str, ...]], CFG] = field(compare=False)
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
        if not self.context_condition or crosses_global:
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
# the three grammars
# ----------------------------------------------------------------------
FLOWSTO = CFLGrammar(
    name="flowsto",
    description=(
        "The paper's pointer-analysis grammar: flowsTo with "
        "field-balanced parentheses and jmp shortcuts (grammars (2)/(4))."
    ),
    start="flowsTo",
    productions=flowsto_productions,
)

TAINT = CFLGrammar(
    name="taint",
    description=(
        "Source-to-sink value-flow: source and sink share an object "
        "(taint -> flowsToBar flowsTo), FlowCFL-style."
    ),
    start="taint",
    productions=taint_productions,
)

ESCAPE = CFLGrammar(
    name="escape",
    description=(
        "Object reachability from static or parameter roots: "
        "escapes -> flowsTo | flowsTo st:f flowsToBar escapes."
    ),
    start="escapes",
    # Heap-transitive escape chains splice independently-derived
    # flowsTo witnesses whose call strings need not compose into
    # one realisable stack; membership alone certifies the chain.
    context_condition=False,
    productions=escape_productions,
)

_GRAMMARS: Dict[str, CFLGrammar] = {g.name: g for g in (FLOWSTO, TAINT, ESCAPE)}


def get_grammar(name: str) -> CFLGrammar:
    """Look a grammar up by id."""
    got = _GRAMMARS.get(name)
    if got is None:
        known = ", ".join(_GRAMMARS)
        raise AnalysisError(f"unknown grammar {name!r} (known: {known})")
    return got
