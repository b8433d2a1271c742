"""Bulk CFL-reachability over sparse row bitsets (``backend="matrix"``).

The demand engine (:mod:`repro.core.engine`) pays a traversal per query;
when a checker batch effectively asks for all-pairs flowsTo that is the
wrong hot path.  This kernel keeps **one boolean relation per grammar
symbol** over the states of a context-expanded PAG — one Python ``int``
bitset per row, so an empty row costs nothing and a row OR is one
C-level big-integer operation — and runs the classic semiring-product
fixpoint: for every Chomsky-normal-form production ``A -> B C``,
``A |= B ⊗ C`` until nothing changes, then answers the *whole* query
batch by reading rows of the closed answer relation.

Three design points make the answers byte-identical to ``SeqCFL``:

* **States are ``(node, ctx)`` pairs**, discovered by closure from the
  normalised query nodes under the rule table of
  :mod:`repro.core.rules` — the one the engine's sweep is compiled
  from (global variables pinned to the empty context, call-string
  push/pop at ``param``/``ret`` edges, ``reset`` clearing the context).
  Context-sensitivity is thereby compiled into the *graph*, so the
  grammar fixpoint itself needs no side condition.
* **Two independent terminal families.**  The backward (barred) family
  is *not* the transpose of the forward family: exiting a callee
  backwards at an empty call string is allowed through any site
  (partially balanced parentheses), and the symmetric rule holds
  forwards at ``ret`` edges.  Each family reads the table in its own
  direction.
* **The fixpoint is driven by the flowsTo grammar's productions**
  (:data:`repro.core.grammar.FLOWSTO`, via
  :meth:`repro.core.cfl.CFG.cnf`); points-to answers are read from the
  closed ``flowsToBar`` rows.

The kernel computes the *exact* (unlimited-budget) CFL fixpoint; every
result carries ``exhausted=False``.  Compare against the demand engine
at an exhaustive budget (see DESIGN.md §4.15).
"""

from __future__ import annotations

import itertools
from typing import (
    TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.core.cfl import CFG
from repro.core.context import EMPTY_CTX, Context
from repro.core.grammar import FLOWSTO
from repro.core.query import Query, QueryCosts, QueryResult
from repro.core.rules import (
    FLOWS_TO, MATCHED_BY_FIELD, POINTS_TO, ROUND_KIND, RULES, Rule,
)
from repro.errors import AnalysisError
from repro.pag.edges import EdgeKind
from repro.pag.graph import PAG

if TYPE_CHECKING:
    from repro.core.cfl import _CNF
    from repro.core.engine import EngineConfig
    from repro.obs.recorder import Recorder

__all__ = ["MatrixKernel", "close_rows"]


def _bits(x: int) -> Iterator[int]:
    """The set bit positions of ``x``, highest first.  Clearing the top
    bit shrinks ``x``, so each step is cheaper than the last."""
    while x:
        j = x.bit_length() - 1
        yield j
        x ^= 1 << j


# ----------------------------------------------------------------------
# the bulk kernel
# ----------------------------------------------------------------------
#: A state of the context-expanded graph.
State = Tuple[int, Context]


class MatrixKernel:
    """All-pairs CFL-reachability over one PAG.

    Build once per batch, call :meth:`run_batch` with the queries; the
    kernel discovers the reachable ``(node, ctx)`` state space, lowers
    the PAG onto per-terminal row bitsets, closes them under the
    flowsTo grammar's CNF productions, and reads every answer from the
    closed ``flowsToBar`` rows.  Answers are byte-identical to the demand
    engine at an unlimited budget (``exhausted`` is always False).
    """

    #: Points-to answers are rows of this closed nonterminal.
    ANSWER_SYMBOL = "flowsToBar"

    #: Safety valves: the state closure is precise for well-formed PAGs
    #: (recursion is collapsed before lowering, so call strings cannot
    #: grow without bound), but a malformed graph must fail loudly
    #: rather than allocate forever.
    MAX_CTX_DEPTH = 256
    MAX_STATES = 2_000_000

    def __init__(
        self,
        pag: PAG,
        config: Optional["EngineConfig"] = None,
        recorder: Optional["Recorder"] = None,
    ) -> None:
        if config is None:
            from repro.core.engine import EngineConfig

            config = EngineConfig()
        self.pag = pag
        self.cfg = config
        self.recorder = recorder
        #: (direction, rule, adjacency) for every table row the state
        #: closure follows: heap rows are single steps only when
        #: field-sensitive.
        self._legs: List[Tuple[bool, Rule, Mapping[int, Sequence[object]]]] = [
            (direction, rule, getattr(pag, rule.adjacency[direction]))
            for direction in (POINTS_TO, FLOWS_TO)
            for rule in RULES
            if not rule.heap or config.field_mode == "sensitive"
        ]
        #: (assign symbol, round-row adjacency, matched field index) per
        #: direction: the ``match`` fold pairs them as engine rounds do.
        by_kind = {rule.kind: rule for rule in RULES}
        self._match_legs = [
            (by_kind[EdgeKind.ASSIGN].symbol(d),
             getattr(pag, by_kind[ROUND_KIND[d]].adjacency[d]),
             getattr(pag, MATCHED_BY_FIELD[d]))
            for d in (POINTS_TO, FLOWS_TO) if config.field_mode == "match"
        ]
        self._fields = FLOWSTO.fields_of(pag)
        cfg_obj: CFG = FLOWSTO.cfg(self._fields)
        self._cnf = cfg_obj.cnf()
        self._symbols = sorted(cfg_obj.productions)
        self._seeds: List[State] = []
        self._index: Dict[State, int] = {}
        self._states: List[State] = []
        #: symbol -> one bitset per state row (bit j = state j)
        self._rows: Dict[str, List[int]] = {}
        self._solved = False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run_batch(self, queries: Sequence[Query]) -> List[QueryResult]:
        """Answer a whole batch from one closed fixpoint."""
        seeds = [self._normalize(q.var, q.ctx) for q in queries]
        self._require_solved(seeds)
        return [self._answer(s) for s in seeds]

    def points_to(self, var: int, ctx: Context = EMPTY_CTX) -> QueryResult:
        """Single-query convenience mirroring the engine's signature."""
        seed = self._normalize(var, ctx)
        self._require_solved([seed])
        return self._answer(seed)

    # ------------------------------------------------------------------
    # query normalisation and answering
    # ------------------------------------------------------------------
    def _normalize(self, var: int, ctx: Context) -> State:
        node = self.pag.rep(var)
        if not self.pag.is_variable(node):
            raise AnalysisError(f"points_to target {var} is not a variable node")
        return (node, EMPTY_CTX if self.pag.is_global(node) else ctx)

    def _answer(self, seed: State) -> QueryResult:
        answers = self._rows.get(self.ANSWER_SYMBOL)
        row = answers[self._index[seed]] if answers is not None else 0
        states = self._states
        result = QueryResult(
            query=Query(seed[0], seed[1]),
            points_to=frozenset(states[j] for j in _bits(row)),
            exhausted=False,
            costs=QueryCosts(),
        )
        rec = self.recorder
        if rec:
            rec.record_query(result)
        return result

    def _require_solved(self, seeds: Sequence[State]) -> None:
        if self._solved and all(s in self._index for s in seeds):
            return
        known = set(self._seeds)
        for s in seeds:
            if s not in known:
                known.add(s)
                self._seeds.append(s)
        self._solve()

    # ------------------------------------------------------------------
    # state discovery: closure of the context-expanded graph
    # ------------------------------------------------------------------
    def _edges_from(self, x: int, c: Context) -> List[Tuple[str, int, Context]]:
        """Out-edges of state ``(x, c)`` in both terminal families.

        Every row of the rule table (:mod:`repro.core.rules`), read
        backwards for the barred family and forwards for the plain one,
        with the call-string transfer baked into the target state.  The
        heap legs are the kernel's own choice: single ``ld``/``st``
        steps when field-sensitive, the ``match`` fold below, or nothing
        when field-insensitive.
        """
        pag = self.pag
        cs = self.cfg.context_sensitive
        out: List[Tuple[str, int, Context]] = []
        for direction, rule, adjacency in self._legs:
            if adjacency.get(x):
                for y, cy, label in rule.successors(pag, direction, x, c, cs):
                    out.append((rule.symbol(direction, label), y, cy))
        # field-based matching folds st(f) alias ld(f) into one
        # context-free step, emitted on the assign terminal
        for symbol, round_edges, by_field in self._match_legs:
            for _base, f in round_edges.get(x, ()):
                for _other, y in by_field.get(f, ()):
                    out.append((symbol, y, EMPTY_CTX))
        return out

    def _discover(self) -> Dict[str, List[Tuple[int, int]]]:
        """BFS closure from the query seeds under all edge rules.

        Returns terminal -> [(src_state, dst_state)] edge lists over the
        interned state ids.  Sound and precise: extra states only add
        rows the answers never read, and no grammar path from a query
        row can leave the closure.
        """
        self._index = {}
        self._states = []
        index = self._index
        states = self._states
        edges: Dict[str, List[Tuple[int, int]]] = {}
        frontier: List[State] = []

        def intern(node: int, ctx: Context) -> int:
            state = (node, ctx)
            got = index.get(state)
            if got is None:
                if len(ctx) > self.MAX_CTX_DEPTH:
                    raise AnalysisError(
                        f"matrix kernel: call-string depth exceeded "
                        f"{self.MAX_CTX_DEPTH} at node {node} — "
                        "uncollapsed recursion in the PAG?"
                    )
                got = len(states)
                index[state] = got
                states.append(state)
                frontier.append(state)
                if len(states) > self.MAX_STATES:
                    raise AnalysisError(
                        f"matrix kernel: state space exceeded "
                        f"{self.MAX_STATES} states; use a demand backend "
                        "for this workload"
                    )
            return got

        for node, ctx in self._seeds:
            intern(node, ctx)
        while frontier:
            x, c = frontier.pop()
            src = index[(x, c)]
            for term, y, cy in self._edges_from(x, c):
                edges.setdefault(term, []).append((src, intern(y, cy)))
        return edges

    # ------------------------------------------------------------------
    # the CNF product fixpoint
    # ------------------------------------------------------------------
    def _solve(self) -> None:
        term_edges = self._discover()
        n = len(self._states)
        self._rows, stats = close_rows(self._cnf, n, term_edges)
        self._solved = True
        rec = self.recorder
        if rec:
            counts = {f"matrix.{key}": value for key, value in stats.items()}
            counts["matrix.states"] = n
            for sym in self._symbols:
                full = self._rows.get(sym, ())
                counts[f"matrix.nnz.{sym}"] = sum(r.bit_count() for r in full)
            rec.count_many(counts)


def close_rows(
    cnf: "_CNF", n: int, term_edges: Mapping[str, Sequence[Tuple[int, int]]],
) -> Tuple[Dict[str, List[int]], Dict[str, int]]:
    """Close labelled edges over states ``0..n-1`` under ``cnf``.

    ``term_edges`` maps a terminal to its ``(src, dst)`` edges.  Returns
    symbol -> one bitset per row (bit ``j`` of row ``i`` set iff the
    symbol derives some path from ``i`` to ``j``), for every symbol
    with a fact, plus the work counters ``edges``, ``fixpoint_rounds``,
    ``products``, ``word_ops`` and ``frontier_bits``.
    """
    rows: Dict[str, List[int]] = {}
    #: symbol -> column j -> bitset of the rows holding bit j, kept for
    #: the left operands of a binary production (full x delta)
    cols: Dict[str, List[int]] = {b: [0] * n for b, _c in cnf.pair}
    pending: Dict[str, Dict[int, int]] = {}
    #: every symbol a merge targets -> it plus its unit ancestors
    closure = {
        sym: (sym, *cnf.unit.get(sym, ()))
        for heads in itertools.chain(cnf.term.values(), cnf.pair.values())
        for sym in heads
    }
    rounds = products = word_ops = frontier_bits = 0

    def merge(symbol: str, updates: Dict[int, int]) -> None:
        # fold new facts into `symbol` and every unit-production
        # ancestor (the unit relation is transitively closed)
        for sym in closure[symbol]:
            full = rows.get(sym)
            if full is None:
                full = rows[sym] = [0] * n
            col = cols.get(sym)
            pend = pending.get(sym)
            for i, bits in updates.items():
                new = bits & ~full[i]
                if not new:
                    continue
                full[i] |= new
                if pend is None:
                    pend = pending[sym] = {}
                pend[i] = pend.get(i, 0) | new
                if col is not None:
                    bit = 1 << i
                    for j in _bits(new):
                        col[j] |= bit

    # seed terminals: one edge relation per terminal, folded into the
    # symbols a single edge already derives (direct A -> t heads and
    # t's CNF proxy)
    n_edges = 0
    for term, pairs in term_edges.items():
        heads = cnf.term.get(term)
        if not heads:
            continue  # terminal unused by this grammar
        edge_rows: Dict[int, int] = {}
        for src, dst in pairs:
            edge_rows[src] = edge_rows.get(src, 0) | (1 << dst)
        n_edges += len(pairs)
        for head in heads:
            merge(head, edge_rows)

    # semi-naive closure: only the previous round's delta rows are
    # multiplied, against the full current relations.  Bits a merge
    # adds mid-round are pending too, so a product that misses them
    # now runs with them next round.
    while pending:
        rounds += 1
        cur, pending = pending, {}
        frontier_bits += sum(
            d.bit_count() for delta in cur.values() for d in delta.values()
        )
        for (b, c), heads in cnf.pair.items():
            out: Dict[int, int] = {}
            delta_b, full_c = cur.get(b), rows.get(c)
            if delta_b and full_c is not None:
                # delta x full: row i gains C[j] for each bit j of dB[i]
                products += 1
                for i, d in delta_b.items():
                    acc = 0
                    for j in _bits(d):
                        r = full_c[j]
                        if r:
                            acc |= r
                            word_ops += (r.bit_length() + 63) >> 6
                    if acc:
                        out[i] = out.get(i, 0) | acc
            delta_c = cur.get(c)
            if delta_c and b in rows:
                # full x delta: every row of B with bit j gains dC[j]
                products += 1
                col_b = cols[b]
                for j, d in delta_c.items():
                    users = col_b[j]
                    if users:
                        word_ops += users.bit_count() * ((d.bit_length() + 63) >> 6)
                        for i in _bits(users):
                            out[i] = out.get(i, 0) | d
            if out:
                for head in heads:
                    merge(head, out)

    return rows, {
        "edges": n_edges,
        "fixpoint_rounds": rounds,
        "products": products,
        "word_ops": word_ops,
        "frontier_bits": frontier_bits,
    }
