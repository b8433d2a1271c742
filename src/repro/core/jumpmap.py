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

Every engine of a runner reads and writes its runner's store map
(:attr:`repro.core.incremental.IncrementalAnalysis.jumps`; a
:class:`repro.api.Session`'s runners all share ``Session.seq``'s)
directly; there is no per-query overlay.  The ``local`` and ``sim``
executors run one query at a time over it, the ``threads`` backend's
threads share it under lock stripes
(:class:`~repro.runtime.threaded.ConcurrentJumpMap`), and a query sees
every entry written before its reads, whichever query wrote it.  For
the simulator this means every entry committed by queries popped
before it in event order, including queries still running in
simulated time (see :mod:`repro.runtime.simclock`).  mp workers each
hold a private copy that the coordinator keeps in step with the
store's map, batch by batch (:mod:`repro.runtime.mp`).

Every write of one store's entries into another goes through one
replay routine, :meth:`JumpMap.replay`, which returns the entries it
accepted: the mp coordinator's merge of a worker delta, a worker's
catch-up on the coordinator's log suffix, and warm starts from a
snapshot.  mp workers' maps also record what they accept, in order
(:class:`repro.runtime.mp.JournalingJumpMap`), and the coordinator
appends what its merges accept to the batch's commit log.

Entries summarise rounds of the engine's one traversal (flowsTo), so a
store carries no grammar label: any store's entries may warm any other.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.pag.extended import FinishedJump, JumpKey

__all__ = [
    "DeltaEntry",
    "JumpMap",
]

#: One committed jump entry in transit or at rest: ``("fin", key,
#: edges)`` or ``("unf", key, steps)``.  This is simultaneously the mp
#: epoch protocol's wire format (an mp batch's commit log is a
#: ``List[DeltaEntry]``; workers receive log suffixes) and the payload
#: format of warm-start snapshots (:mod:`repro.core.snapshot`), so one
#: replay routine (:meth:`JumpMap.replay`) serves both.
DeltaEntry = Tuple[str, JumpKey, object]


class JumpMap:
    """Single-writer jump store: a runner's store map (written by one
    thread at a time, or under :class:`~repro.runtime.threaded.ConcurrentJumpMap`'s
    stripes), or an mp worker's copy."""

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
