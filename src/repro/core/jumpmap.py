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

Every executor's engine reads and writes its executor's map directly;
there is no per-query overlay.  The ``local`` and ``sim`` executors and
each mp worker run one query at a time over one :class:`JumpMap`, the
``threads`` backend shares a lock-striped map between its threads, and
a query sees every entry written before its reads, whichever query
wrote it.  For the simulator this means every entry committed by
queries popped before it in event order, including queries still
running in simulated time (see :mod:`repro.runtime.simclock`).

Every write of one store's entries into another goes through one
replay routine, :meth:`JumpMap.replay`, which returns the entries it
accepted: the mp coordinator's merge of a worker delta, a worker's
catch-up on the coordinator's log suffix, and warm starts from a
snapshot.  The mp executor's maps also record what they accept, in
order (:class:`repro.runtime.mp.JournalingJumpMap`); that record is
the epoch protocol's commit log.

Entries summarise rounds of the engine's one traversal (flowsTo), so a
store carries no grammar label: any store's entries may warm any other.
"""

from __future__ import annotations

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
]

#: One committed jump entry in transit or at rest: ``("fin", key,
#: edges)`` or ``("unf", key, steps)``.  This is simultaneously the mp
#: epoch protocol's wire format (the coordinator map's commit log is a
#: ``List[DeltaEntry]``; workers receive log suffixes) and the payload
#: format of warm-start snapshots (:mod:`repro.core.snapshot`), so one
#: replay routine (:meth:`JumpMap.replay`) serves both.
DeltaEntry = Tuple[str, JumpKey, object]


@runtime_checkable
class JumpMapLifecycle(Protocol):
    """The jump-map lifecycle: create / warm / invalidate / snapshot / ship.

    Implemented by :class:`JumpMap` (seq engine, local and simulated
    executors; the mp coordinator and workers use its journaling
    subclass) and :class:`~repro.runtime.threaded.ConcurrentJumpMap`
    (thread backend), so every backend can warm-start from — and
    contribute to — the same on-disk artifact.  The engine takes any
    implementation as its ``jumps`` and writes into it directly.
    """

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


class JumpMap:
    """Single-writer jump store (sequential engine / committed base)."""

    def __init__(self) -> None:
        self._fin: Dict[JumpKey, Tuple[FinishedJump, ...]] = {}
        self._unf: Dict[JumpKey, int] = {}
        #: Finished jmp edges currently stored, kept by every write so
        #: the size views cost O(1): executors read them per batch.
        self._n_fin_edges = 0

    # -- reads ----------------------------------------------------------
    def finished(self, key: JumpKey) -> Optional[Tuple[FinishedJump, ...]]:
        return self._fin.get(key)

    def unfinished(self, key: JumpKey) -> Optional[int]:
        return self._unf.get(key)

    # -- writes ---------------------------------------------------------
    def insert_finished(self, key: JumpKey, edges: Tuple[FinishedJump, ...]) -> bool:
        """Insert a completed round's shortcut set; first set wins.

        Clears any unfinished marker: the round is proven completable.
        """
        if key in self._fin:
            return False
        self._fin[key] = edges
        self._n_fin_edges += len(edges)
        self._unf.pop(key, None)
        return True

    def insert_unfinished(self, key: JumpKey, steps: int) -> bool:
        """Insert an out-of-budget marker; first writer wins, and a
        finished entry for the key suppresses the marker entirely."""
        if key in self._unf or key in self._fin:
            return False
        self._unf[key] = steps
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

    def invalidate_keys(self, keys: Iterable[JumpKey]) -> int:
        """Selectively drop the finished entries stored under ``keys``
        (absent keys are ignored): edge additions can extend completed
        rounds, so their recorded shortcut sets may have become
        incomplete.  Unfinished markers stay — added edges only
        increase traversal costs, so an out-of-budget certificate
        remains valid.  Returns the number of dropped entries (summed
        jmp edges, consistent with :attr:`n_finished_edges` — not the
        number of dropped keys)."""
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

    def replay(self, log: Iterable[DeltaEntry]) -> List[DeltaEntry]:
        """Insert a commit log's entries in order, first writer wins
        (an entry whose key the store already owns is dropped, so a
        replay is idempotent).  Returns the accepted entries — what a
        copy of the store before the call would need replayed to equal
        the store after it."""
        accepted: List[DeltaEntry] = []
        for entry in log:
            tag, key, payload = entry
            if tag == "fin":
                ok = self.insert_finished(key, payload)  # type: ignore[arg-type]
            elif tag == "unf":
                ok = self.insert_unfinished(key, payload)  # type: ignore[arg-type]
            else:
                raise ValueError(f"unknown delta entry tag {tag!r}")
            if ok:
                accepted.append(entry)
        return accepted

    def warm_from(self, log: Iterable[DeltaEntry]) -> int:
        """Seed the store from an exported commit log; returns the
        number of accepted entries (see :meth:`replay`)."""
        return len(self.replay(log))

    def __len__(self) -> int:
        return len(self._fin) + len(self._unf)

    def __repr__(self) -> str:
        return (
            f"JumpMap({len(self._fin)} finished keys / "
            f"{self.n_finished_edges} edges, {len(self._unf)} unfinished)"
        )
