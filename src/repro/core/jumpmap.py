"""The jump-edge store — reproduction of the paper's ``ConcurrentHashMap``.

Entries are keyed by ``(node, context, direction)``
(:data:`repro.pag.extended.JumpKey`); ``direction`` is ``False`` for
the ``POINTSTO``-side alias rounds and ``True`` for the symmetric
``FLOWSTO``-side rounds.  A key maps to either

* a **finished** tuple of :class:`~repro.pag.extended.FinishedJump`
  shortcut edges (published only when the whole alias-matching round
  completed — Fig. 3a), or
* an **unfinished** step count ``s`` (Fig. 3b) certifying that a query
  reaching the key with fewer than ``s`` remaining steps will run out
  of budget.

Concurrency semantics mirror Section IV-A:

* a finished set is inserted at once under its key, so it is seen
  atomically ("no two threads ... will insert this set twice");
* unfinished insertions are **first-writer-wins** — the paper rejects
  picking the larger ``s`` as "cost-ineffective";
* a finished insertion clears any unfinished marker for the key (the
  round is now known to complete, so the marker's prediction is moot).

:class:`LayeredJumpMap` gives the simulated parallel executor
transaction-like visibility: reads see a committed base plus the
running query's own insertions; at query end the overlay is committed
by the executor at the query's finish time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.pag.extended import FinishedJump, JumpKey

__all__ = [
    "DeltaEntry",
    "JumpMap",
    "JumpMapLifecycle",
    "LayeredJumpMap",
    "JumpMapStats",
]

#: One committed jump entry in transit or at rest: ``("fin", key,
#: edges)`` or ``("unf", key, steps)``.  This is simultaneously the mp
#: epoch protocol's wire format (the coordinator's commit log is a
#: ``List[DeltaEntry]``; workers receive log suffixes) and the payload
#: format of warm-start snapshots (:mod:`repro.core.snapshot`), so one
#: replay routine (:meth:`JumpMap.warm_from`) serves both.
DeltaEntry = Tuple[str, JumpKey, object]


@runtime_checkable
class JumpMapLifecycle(Protocol):
    """The jump-map lifecycle: create / warm / invalidate / snapshot / ship.

    Implemented by :class:`JumpMap` (seq engine, local executor, mp
    coordinator base), :class:`LayeredJumpMap` (simulated executor's
    transactional view) and
    :class:`~repro.runtime.threaded.ConcurrentJumpMap` (thread
    backend), so every backend can warm-start from — and contribute to —
    the same on-disk artifact.  ``grammar`` labels the store; sharing
    entries across grammars is unsound and every implementation refuses
    it at merge/engine-attach time.
    """

    grammar: str

    def finished(self, key: JumpKey) -> Optional[Tuple[FinishedJump, ...]]: ...

    def unfinished(self, key: JumpKey) -> Optional[int]: ...

    def insert_finished(
        self, key: JumpKey, edges: Tuple[FinishedJump, ...]
    ) -> bool: ...

    def insert_unfinished(self, key: JumpKey, steps: int) -> bool: ...

    @property
    def n_finished_edges(self) -> int: ...

    @property
    def n_unfinished_edges(self) -> int: ...

    def export_log(self) -> List[DeltaEntry]: ...

    def warm_from(self, log: Iterable[DeltaEntry]) -> int: ...

    def invalidate_keys(self, keys: Iterable[JumpKey]) -> int: ...

    def clear_finished(self) -> int: ...


@dataclass
class JumpMapStats:
    """Operation counters (drive the runtime cost model)."""

    lookups: int = 0
    fin_inserts: int = 0       #: finished sets accepted
    fin_edges: int = 0         #: total finished jmp edges stored
    unf_inserts: int = 0       #: unfinished markers accepted
    rejected_inserts: int = 0  #: lost first-writer-wins races / dup sets


class JumpMap:
    """Single-writer jump store (sequential engine / committed base).

    ``grammar`` labels the store with the :mod:`repro.core.grammar` id
    whose summary edges it holds; the engine refuses to share a map
    labelled for a different grammar (mixing summaries across analyses
    would be unsound), and the observability layer uses the label to
    split its jump-map metrics per grammar.
    """

    def __init__(self, grammar: str = "flowsto") -> None:
        self.grammar = grammar
        self._fin: Dict[JumpKey, Tuple[FinishedJump, ...]] = {}
        self._unf: Dict[JumpKey, int] = {}
        #: Finished jmp edges currently stored, kept by every write so
        #: the size views cost O(1): executors read them per batch.
        self._n_fin_edges = 0
        self.stats = JumpMapStats()

    # -- reads ----------------------------------------------------------
    def finished(self, key: JumpKey) -> Optional[Tuple[FinishedJump, ...]]:
        self.stats.lookups += 1
        return self._fin.get(key)

    def unfinished(self, key: JumpKey) -> Optional[int]:
        self.stats.lookups += 1
        return self._unf.get(key)

    # -- writes ---------------------------------------------------------
    def insert_finished(self, key: JumpKey, edges: Tuple[FinishedJump, ...]) -> bool:
        """Insert a completed round's shortcut set; first set wins.

        Clears any unfinished marker: the round is proven completable.
        """
        if key in self._fin:
            self.stats.rejected_inserts += 1
            return False
        self._fin[key] = edges
        self._n_fin_edges += len(edges)
        self._unf.pop(key, None)
        self.stats.fin_inserts += 1
        self.stats.fin_edges += len(edges)
        return True

    def insert_unfinished(self, key: JumpKey, steps: int) -> bool:
        """Insert an out-of-budget marker; first writer wins, and a
        finished entry for the key suppresses the marker entirely."""
        if key in self._unf or key in self._fin:
            self.stats.rejected_inserts += 1
            return False
        self._unf[key] = steps
        self.stats.unf_inserts += 1
        return True

    # -- aggregate views --------------------------------------------------
    @property
    def n_jumps(self) -> int:
        """Total jmp edges stored (Table I's ``#Jumps``)."""
        return self._n_fin_edges + len(self._unf)

    @property
    def n_finished_edges(self) -> int:
        return self._n_fin_edges

    @property
    def n_unfinished_edges(self) -> int:
        return len(self._unf)

    def finished_items(self) -> Iterator[Tuple[JumpKey, Tuple[FinishedJump, ...]]]:
        return iter(self._fin.items())

    def unfinished_items(self) -> Iterator[Tuple[JumpKey, int]]:
        return iter(self._unf.items())

    def clear_finished(self) -> int:
        """Drop every finished entry (incremental invalidation: edge
        additions can extend completed rounds, so recorded shortcut
        sets may have become incomplete).  Unfinished markers stay —
        added edges only increase traversal costs, so an out-of-budget
        certificate remains valid.  Returns the number of dropped
        entries (summed jmp edges, consistent with
        :attr:`n_finished_edges` — not the number of dropped keys)."""
        n = self._n_fin_edges
        self._fin.clear()
        self._n_fin_edges = 0
        return n

    def invalidate_keys(self, keys: Iterable[JumpKey]) -> int:
        """Selectively drop the finished entries stored under ``keys``
        (absent keys are ignored).  Unfinished markers survive for the
        same monotonicity reason as in :meth:`clear_finished`.  Returns
        the number of dropped entries (summed jmp edges)."""
        dropped = 0
        for key in keys:
            edges = self._fin.pop(key, None)
            if edges is not None:
                dropped += len(edges)
        self._n_fin_edges -= dropped
        return dropped

    def export_log(self) -> List[DeltaEntry]:
        """Serialise the store as a replayable commit log in the mp
        epoch :data:`DeltaEntry` wire format — the artifact that
        snapshots persist and warm starts replay."""
        log: List[DeltaEntry] = [
            ("fin", key, edges) for key, edges in self._fin.items()
        ]
        log.extend(("unf", key, steps) for key, steps in self._unf.items())
        return log

    def warm_from(self, log: Iterable[DeltaEntry]) -> int:
        """Replay a commit log into this store (idempotent: entries the
        store already owns lose first-writer-wins and are dropped).
        Returns the number of accepted insertions."""
        accepted = 0
        for tag, key, payload in log:
            if tag == "fin":
                ok = self.insert_finished(key, payload)  # type: ignore[arg-type]
            elif tag == "unf":
                ok = self.insert_unfinished(key, payload)  # type: ignore[arg-type]
            else:
                raise ValueError(f"unknown delta entry tag {tag!r}")
            if ok:
                accepted += 1
        return accepted

    def merge_from(self, other: "JumpMap") -> int:
        """Commit ``other``'s entries into this map (executor commit
        step).  Returns the number of accepted insertions."""
        if other.grammar != self.grammar:
            raise ValueError(
                f"cannot merge jump map for grammar {other.grammar!r} "
                f"into one for {self.grammar!r}"
            )
        accepted = 0
        for key, edges in other._fin.items():
            if self.insert_finished(key, edges):
                accepted += 1
        for key, steps in other._unf.items():
            if self.insert_unfinished(key, steps):
                accepted += 1
        return accepted

    def __len__(self) -> int:
        return len(self._fin) + len(self._unf)

    def __repr__(self) -> str:
        return (
            f"JumpMap({len(self._fin)} finished keys / "
            f"{self.n_finished_edges} edges, {len(self._unf)} unfinished)"
        )


class LayeredJumpMap:
    """Read-through view: a committed ``base`` plus a private overlay.

    The running query reads both layers (its own discoveries included)
    but writes only the overlay; the executor later merges the overlay
    into the base at the query's simulated finish time.  This models the
    paper's visibility conservatively: edges published by *concurrently
    running* queries become visible only once those queries finish.
    """

    def __init__(self, base: JumpMap) -> None:
        self.base = base
        self.grammar = base.grammar
        self.overlay = JumpMap(base.grammar)

    def finished(self, key: JumpKey) -> Optional[Tuple[FinishedJump, ...]]:
        got = self.overlay.finished(key)
        if got is not None:
            return got
        return self.base.finished(key)

    def unfinished(self, key: JumpKey) -> Optional[int]:
        # A finished set in the overlay supersedes a base unfinished marker.
        if key in self.overlay._fin:
            return None
        got = self.overlay.unfinished(key)
        if got is not None:
            return got
        return self.base.unfinished(key)

    def insert_finished(self, key: JumpKey, edges: Tuple[FinishedJump, ...]) -> bool:
        if self.base.finished(key) is not None:
            self.base.stats.rejected_inserts += 1
            return False
        return self.overlay.insert_finished(key, edges)

    def insert_unfinished(self, key: JumpKey, steps: int) -> bool:
        if self.base.finished(key) is not None or self.base.unfinished(key) is not None:
            self.base.stats.rejected_inserts += 1
            return False
        return self.overlay.insert_unfinished(key, steps)

    @property
    def n_jumps(self) -> int:
        return self.base.n_jumps + self.overlay.n_jumps

    @property
    def n_finished_edges(self) -> int:
        return self.base.n_finished_edges + self.overlay.n_finished_edges

    @property
    def n_unfinished_edges(self) -> int:
        return self.base.n_unfinished_edges + self.overlay.n_unfinished_edges

    def commit(self) -> int:
        """Merge the overlay into the base; returns accepted insertions."""
        return self.base.merge_from(self.overlay)

    # -- lifecycle (JumpMapLifecycle) ----------------------------------
    # The layered view participates in the lifecycle so a simulated
    # session can be snapshotted/warmed like any other: exports cover
    # both layers, replays land in the committed base (they are already
    # committed state from elsewhere), invalidation must hit both
    # layers to be sound.
    def export_log(self) -> List[DeltaEntry]:
        return self.base.export_log() + self.overlay.export_log()

    def warm_from(self, log: Iterable[DeltaEntry]) -> int:
        return self.base.warm_from(log)

    def invalidate_keys(self, keys: Iterable[JumpKey]) -> int:
        keys = list(keys)
        return self.base.invalidate_keys(keys) + self.overlay.invalidate_keys(keys)

    def clear_finished(self) -> int:
        return self.base.clear_finished() + self.overlay.clear_finished()
