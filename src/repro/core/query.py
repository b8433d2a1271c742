"""Query and result records, and the per-query mutable state.

A query ``(l, c)`` asks for the points-to set of local variable ``l``
under context ``c`` (almost always the empty context in batch mode).
The per-query :class:`QueryState` carries everything Algorithm 1 marks
``QueryLocal``: the ``steps`` budget counter and the ``S`` frame stack
of in-flight ``REACHABLENODES`` rounds — plus this implementation's
memo tables and cost accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.context import Context, EMPTY_CTX

__all__ = ["Query", "QueryResult", "QueryState", "QueryCosts"]


@dataclass(frozen=True)
class Query:
    """A demand points-to query for ``(var, ctx)``."""

    var: int
    ctx: Context = EMPTY_CTX


@dataclass
class QueryCosts:
    """Cost accounting for one executed query.

    ``steps`` is the budget-semantic counter of Algorithm 1/2: it
    advances on every node pop *and* by ``s`` whenever a finished
    ``jmp(s)`` shortcut is taken (Algorithm 2 line 5), so budget
    behaviour matches the share-nothing analysis.  ``work`` counts only
    node pops actually performed — the quantity that costs wall-clock
    time.  ``steps - work``-style savings are reported as ``saved``.
    """

    steps: int = 0          #: budget-semantic steps (Algorithm 1 line 5)
    work: int = 0           #: node pops actually traversed
    saved: int = 0          #: steps charged via shortcuts instead of traversed
    jmp_taken: int = 0      #: finished-shortcut hits
    jmp_lookups: int = 0    #: jump-map reads
    jmp_inserts: int = 0    #: jump-edge insertions (post-threshold)
    early_terminations: int = 0
    sweeps: int = 0         #: worklist sweeps run
    tau_f_suppressed: int = 0  #: finished rounds below tau_F, not published
    tau_u_suppressed: int = 0  #: unfinished frames below tau_U, not published
    peak_visited: int = 0   #: high-water mark of live visited/memo entries
                            #: (memory-usage proxy, Section IV-D5)
    frontier_sum: int = 0   #: sum of worklist lengths at each pop — the
                            #: mean (frontier_sum / work) estimates the
                            #: traversal's available intra-query
                            #: parallelism (Section III's argument)

    @property
    def frontier_mean(self) -> float:
        """Average worklist width: an upper bound on how many threads an
        intra-query parallelisation could keep busy."""
        return self.frontier_sum / self.work if self.work else 0.0


@dataclass
class QueryResult:
    """Outcome of one query."""

    query: Query
    #: Context-tagged points-to pairs ``(object node, ctx)``.
    points_to: FrozenSet[Tuple[int, Context]]
    #: True when the per-query budget ran out (the answer is partial).
    exhausted: bool
    costs: QueryCosts

    @property
    def objects(self) -> FrozenSet[int]:
        """The plain points-to set (contexts stripped)."""
        return frozenset(o for o, _c in self.points_to)

    @property
    def definitely_empty(self) -> bool:
        """True when the analysis *proved* the points-to set empty — the
        budget did not run out, so no allocation can reach the variable.
        This is the null-dereference client's verdict (Section I): an
        exhausted empty result is merely *unknown*, not a bug.
        """
        return not self.exhausted and not self.points_to


# Frame of an in-flight REACHABLENODES round: (node, ctx, steps-at-entry,
# direction) — the paper's S entries (x, c, s).
Frame = Tuple[int, Context, int, bool]


class QueryState:
    """Mutable state threaded through one query's traversals."""

    __slots__ = (
        "budget",
        "steps",
        "work",
        "saved",
        "jmp_taken",
        "jmp_lookups",
        "jmp_inserts",
        "early_terminations",
        "sweeps",
        "tau_f_suppressed",
        "tau_u_suppressed",
        "frontier_sum",
        "frames",
        "memo",
        "complete",
        "pass_done",
        "partial_reads",
        "changed",
        "live_entries",
        "peak_visited",
    )

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.steps = 0
        self.work = 0
        self.saved = 0
        self.jmp_taken = 0
        self.jmp_lookups = 0
        self.jmp_inserts = 0
        self.early_terminations = 0
        self.sweeps = 0
        self.tau_f_suppressed = 0
        self.tau_u_suppressed = 0
        self.frontier_sum = 0
        #: The paper's ``S``: in-flight REACHABLENODES frames.
        self.frames: List[Frame] = []
        #: (direction, node, ctx) -> result set, grown monotonically.
        self.memo: Dict[Tuple[bool, int, Context], Set[Tuple[int, Context]]] = {}
        #: Memo keys whose sets are final.
        self.complete: Set[Tuple[bool, int, Context]] = set()
        #: Memo keys already (re)computed in the current fixpoint pass,
        #: those still being computed included.
        self.pass_done: Set[Tuple[bool, int, Context]] = set()
        #: Bumped whenever a memo entry in ``pass_done`` but not
        #: ``complete`` is read; frames observing a bump are
        #: provisional, not final.
        self.partial_reads = 0
        #: Did any memo set grow during the current fixpoint pass?
        self.changed = False
        #: Live (node, ctx) bookkeeping entries — memory proxy.
        self.live_entries = 0
        self.peak_visited = 0

    def note_live(self, delta: int) -> None:
        """Track the memory-usage proxy's high-water mark.

        Callers may batch increments: the engine's sweep counts the
        items it pushes in a local and reports them before anything
        else changes the live count (an alias round, its own exit).
        Between those points the count only grows, so the batched
        high-water mark equals the per-item one."""
        self.live_entries += delta
        if self.live_entries > self.peak_visited:
            self.peak_visited = self.live_entries

    def costs(self) -> QueryCosts:
        return QueryCosts(
            steps=self.steps,
            work=self.work,
            saved=self.saved,
            jmp_taken=self.jmp_taken,
            jmp_lookups=self.jmp_lookups,
            jmp_inserts=self.jmp_inserts,
            early_terminations=self.early_terminations,
            sweeps=self.sweeps,
            tau_f_suppressed=self.tau_f_suppressed,
            tau_u_suppressed=self.tau_u_suppressed,
            peak_visited=self.peak_visited,
            frontier_sum=self.frontier_sum,
        )
