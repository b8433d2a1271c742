"""Checker framework substrate: severities, findings, the checker API
and the registry.

The paper's whole argument for demand-driven CFL-reachability is that
it serves *client analyses* — null-pointer debugging and alias
disambiguation motivate Section I, downcast checking motivates the
refinement configuration of Section V-A.  This package makes those
clients first-class: a :class:`Checker` declares the points-to queries
it *demands* and turns the batch's answers into
:class:`Finding` diagnostics; the driver (:mod:`repro.analyses.driver`)
dispatches every checker's demands through **one** scheduled
``ParallelCFL`` pass so clients inherit the data-sharing and
query-scheduling speedups of Sections III-B/III-C instead of issuing
queries one at a time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Type

from repro.core.query import Query
from repro.errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analyses.driver import CheckContext

__all__ = [
    "Severity",
    "Finding",
    "Checker",
    "register",
    "checker_ids",
    "make_checkers",
]


class Severity(enum.IntEnum):
    """Ordered diagnostic severities (SARIF levels ``note`` /
    ``warning`` / ``error``)."""

    NOTE = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise AnalysisError(
                f"unknown severity {text!r}: expected note, warning or error"
            ) from None

    @property
    def sarif_level(self) -> str:
        return self.name.lower()


@dataclass
class Finding:
    """One diagnostic produced by a checker.

    ``file``/``line`` locate the statement when the program came from
    source (``Statement.loc``); ``method``/``statement`` always locate
    it structurally.  ``witness`` optionally carries a certified
    ``flowsTo`` derivation (:meth:`repro.core.tracing.Witness.pretty`)
    explaining *why* the finding holds.
    """

    checker: str
    severity: Severity
    message: str
    method: Optional[str] = None
    statement: Optional[str] = None
    file: Optional[str] = None
    line: Optional[int] = None
    witness: Optional[str] = None
    witness_certified: Optional[bool] = None
    #: Ordered value-flow steps (source → ... → sink) rendered as SARIF
    #: ``codeFlows``.  Each step is ``{"message": str}`` plus optional
    #: ``"line"``/``"file"`` keys.
    flow: Optional[List[Dict[str, object]]] = None
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def location(self) -> str:
        """Human-readable location, preferring ``file:line``."""
        if self.file is not None and self.line is not None:
            return f"{self.file}:{self.line}"
        if self.file is not None:
            return self.file
        return self.method or "<unknown>"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (used by ``--format json``)."""
        out: Dict[str, object] = {
            "checker": self.checker,
            "severity": self.severity.name.lower(),
            "message": self.message,
            "method": self.method,
            "statement": self.statement,
            "file": self.file,
            "line": self.line,
        }
        if self.witness is not None:
            out["witness"] = self.witness
            out["witness_certified"] = self.witness_certified
        if self.flow is not None:
            out["flow"] = [dict(step) for step in self.flow]
        if self.extra:
            out["extra"] = dict(self.extra)
        return out


class Checker:
    """Base class for checkers.

    Lifecycle (driven by :func:`repro.analyses.driver.run_checkers`):

    1. :meth:`demands` — enumerate the points-to queries this checker
       needs.  Demands from all checkers are deduplicated and run as
       **one** scheduled batch.
    2. :meth:`finish` — read answers back (``ctx.answer``) and produce
       findings.

    Subclasses set ``id`` (the registry key and SARIF rule id),
    ``description`` and ``paper_section`` (the paper passage motivating
    the client — surfaced in SARIF rule metadata and DESIGN.md).
    """

    id: str = ""
    description: str = ""
    paper_section: str = ""
    default_severity: Severity = Severity.WARNING
    #: The :mod:`repro.core.grammar` id (``flowsto``/``taint``/
    #: ``escape``) this checker certifies its witnesses against
    #: (surfaced in SARIF rule properties).
    grammar: str = "flowsto"
    #: Whether a bare ``repro check`` (no ``--checker``) runs this
    #: checker.  Report-style analyses that flag correct-but-interesting
    #: code (e.g. ``escape``) set this False and are selected explicitly.
    default_enabled: bool = True

    def demands(self, ctx: "CheckContext") -> Iterable[Query]:
        """Points-to queries this checker needs answered."""
        return ()

    def finish(self, ctx: "CheckContext") -> List[Finding]:
        """Turn batch answers into findings."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def finding(self, message: str, **kw) -> Finding:
        """Convenience constructor pre-filled with this checker's id."""
        kw.setdefault("severity", self.default_severity)
        return Finding(checker=self.id, message=message, **kw)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[Checker]] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not cls.id:
        raise AnalysisError(f"checker {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise AnalysisError(f"duplicate checker id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def checker_ids() -> List[str]:
    """Registered checker ids, in registration order."""
    return list(_REGISTRY)


def make_checkers(ids: Optional[Sequence[str]] = None) -> List[Checker]:
    """Instantiate checkers by id.  ``None`` selects every registered
    checker whose ``default_enabled`` flag is set; opt-in checkers must
    be named explicitly."""
    if ids is None:
        ids = [cid for cid, cls in _REGISTRY.items() if cls.default_enabled]
    out: List[Checker] = []
    for cid in ids:
        cls = _REGISTRY.get(cid)
        if cls is None:
            known = ", ".join(checker_ids())
            raise AnalysisError(f"unknown checker {cid!r} (known: {known})")
        out.append(cls())
    return out
