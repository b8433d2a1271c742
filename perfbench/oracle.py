"""Independent answer check: Andersen's analysis of the whole program.

The demand engine is context-sensitive and budget-limited; Andersen's
inclusion-based solver is context-insensitive and exhaustive, so every
object the engine reports for a variable must be in Andersen's set for
it.  Answers are compared by name (``var@Class.method`` and
allocation-site labels), which lets one oracle judge a PAG built from
other text (an edited program) or answers that crossed the wire.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable

from repro.api import AndersenSolver, BuildResult


class Oracle:
    """Andersen points-to sets of one lowered program, keyed by names."""

    def __init__(self, build: BuildResult) -> None:
        pag = build.pag
        solved = AndersenSolver(pag).solve()
        self._pts: Dict[str, FrozenSet[str]] = {
            name: frozenset(pag.name(o) for o in solved.points_to(pag.rep(nid)))
            for name, nid in build.var_ids.items()
        }

    def admits(self, var: str, objects: Iterable[str]) -> bool:
        """Is every object in ``objects`` in Andersen's set for ``var``?
        An unknown variable is rejected."""
        allowed = self._pts.get(var)
        return allowed is not None and allowed.issuperset(objects)
