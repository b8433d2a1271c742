"""Batch execution results and aggregate statistics.

:class:`BatchResult` collects what Table I and Figs. 6-8 report:
simulated makespan, total steps (``#S``), steps saved / ratio saved
(``R_S``), jump-edge counts (``#Jumps``), early terminations
(``#ETs``), plus the memory-usage proxy of Section IV-D5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.query import QueryResult

__all__ = ["BatchResult", "QueryExecution"]


@dataclass
class QueryExecution:
    """One query's execution record inside a batch."""

    result: QueryResult
    worker: int
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class BatchResult:
    """Outcome of running a query batch on an executor."""

    mode: str
    n_threads: int
    executions: List[QueryExecution]
    #: Simulated wall-clock: the latest query finish time.
    makespan: float
    #: Per-worker busy time (for utilisation / imbalance analysis).
    worker_busy: List[float]
    #: Jump edges in the shared map after the batch (Table I ``#Jumps``).
    n_jumps: int = 0
    n_finished_jumps: int = 0
    n_unfinished_jumps: int = 0
    #: Peak of the memory proxy: max over time of the summed live
    #: traversal footprints of concurrently running queries, plus the
    #: jump map's final size (Section IV-D5).
    peak_memory_proxy: float = 0.0
    #: Per-dispatch-chunk terminal outcome, indexed by chunk id:
    #: ``"completed"`` (first owner answered), ``"retried"`` (answered
    #: after >= 1 requeue), or ``"quarantined"`` (executed inline by
    #: the coordinator — poison chunk or no workers left).  Empty for
    #: backends without chunk tracking.
    chunk_status: List[str] = field(default_factory=list)
    #: Worker failures observed (process exits, reported exceptions,
    #: garbage messages, deadline kills).
    n_worker_crashes: int = 0
    #: Chunk requeues performed, counted per occurrence.
    n_chunk_retries: int = 0
    #: Worker slots respawned after a failure.
    n_worker_respawns: int = 0
    #: Diagnostic text for every *recovered* failure (empty on a clean
    #: run); the batch still completed despite these.
    errors: List[str] = field(default_factory=list)
    #: Observability counters accumulated by this batch (see
    #: :mod:`repro.obs`): the dotted ``engine.* / jumps.* / sched.* /
    #: mp.*`` namespace.  Empty unless a recorder was attached.
    metrics: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def count_jumps(self, jumps) -> None:
        """Record the size of the map the batch ran on, after the batch
        (``#Jumps`` and its finished/unfinished split); a share-nothing
        run has no map (``None``) and keeps the zeros."""
        if jumps is not None:
            self.n_jumps = jumps.n_jumps
            self.n_finished_jumps = jumps.n_finished_edges
            self.n_unfinished_jumps = jumps.n_unfinished_edges

    @property
    def results(self) -> List[QueryResult]:
        return [e.result for e in self.executions]

    @property
    def n_queries(self) -> int:
        return len(self.executions)

    @property
    def total_steps(self) -> int:
        """Budget-semantic steps over all queries (the paper's ``#S``
        when sharing is off, since then steps == work)."""
        return sum(e.result.costs.steps for e in self.executions)

    @property
    def total_work(self) -> int:
        """Steps actually traversed across original edges."""
        return sum(e.result.costs.work for e in self.executions)

    @property
    def total_saved(self) -> int:
        """Steps taken over ``jmp`` shortcuts instead of re-traversed."""
        return sum(e.result.costs.saved for e in self.executions)

    @property
    def saved_ratio(self) -> float:
        """The paper's ``R_S``: steps saved / steps traversed across the
        original edges (0 when sharing is off)."""
        work = self.total_work
        return self.total_saved / work if work else 0.0

    @property
    def allocation_proxy(self) -> float:
        """Cumulative bookkeeping-allocation pressure: the sum of every
        query's peak visited/memo footprint, plus the jump map entries.
        Under a generational GC this tracks heap pressure better than an
        instantaneous footprint — the paper itself notes precise
        measurement is hard with GC enabled (Section IV-D5).  Data
        sharing lowers it by shrinking traversal structures; the jump
        map adds back its own storage."""
        return (
            sum(e.result.costs.peak_visited for e in self.executions)
            + self.n_jumps
        )

    @property
    def n_early_terminations(self) -> int:
        """Early terminations over the batch (Table I ``#ETs``)."""
        return sum(e.result.costs.early_terminations for e in self.executions)

    @property
    def n_exhausted(self) -> int:
        return sum(1 for e in self.executions if e.result.exhausted)

    @property
    def n_chunks_retried(self) -> int:
        """Chunks answered after at least one requeue."""
        return sum(1 for s in self.chunk_status if s == "retried")

    @property
    def n_chunks_quarantined(self) -> int:
        """Chunks the coordinator had to execute inline."""
        return sum(1 for s in self.chunk_status if s == "quarantined")

    @property
    def utilisation(self) -> float:
        """Mean worker busy fraction of the makespan.

        An empty or zero-makespan batch did no work on no workers, so
        its utilisation is 0.0 (not a vacuous 1.0 that would skew
        cross-mode comparisons)."""
        if not self.worker_busy or self.makespan <= 0:
            return 0.0
        return sum(self.worker_busy) / (len(self.worker_busy) * self.makespan)

    def speedup_over(self, baseline: "BatchResult") -> float:
        """Speedup of this run relative to ``baseline`` (e.g. SeqCFL)."""
        if self.makespan <= 0:
            return float("inf")
        return baseline.makespan / self.makespan

    def points_to_map(self) -> Dict[Tuple[int, tuple], frozenset]:
        """(var, ctx) -> plain object set, for cross-mode comparisons."""
        return {
            (e.result.query.var, e.result.query.ctx): e.result.objects
            for e in self.executions
        }

    def results_by_query(self) -> Dict[Tuple[int, tuple], QueryResult]:
        """(var, ctx) -> full :class:`QueryResult` — the answer table
        clients (the checker framework) read batch answers back from.
        Keys are representative node ids, as recorded on the executed
        query."""
        return {
            (e.result.query.var, e.result.query.ctx): e.result
            for e in self.executions
        }

    def __repr__(self) -> str:
        fault = ""
        if self.n_worker_crashes or self.n_chunk_retries:
            fault = (
                f", crashes={self.n_worker_crashes}"
                f", retries={self.n_chunk_retries}"
                f", quarantined={self.n_chunks_quarantined}"
            )
        return (
            f"BatchResult(mode={self.mode!r}, t={self.n_threads}, "
            f"queries={self.n_queries}, makespan={self.makespan:.0f}, "
            f"jumps={self.n_jumps}, ETs={self.n_early_terminations}{fault})"
        )
