"""Bulk CFL-reachability over packed boolean matrices (``backend="matrix"``).

The demand engine (:mod:`repro.core.engine`) pays a traversal per query;
when a checker batch effectively asks for all-pairs flowsTo that is the
wrong hot path.  This kernel keeps **one boolean adjacency matrix per
grammar symbol** — numpy ``uint64`` packed bitsets over the states of a
context-expanded PAG — and runs the classic semiring-product fixpoint:
for every Chomsky-normal-form production ``A -> B C``,
``M_A |= M_B ⊗ M_C`` until nothing changes, then answers the *whole*
query batch by reading rows of the closed answer matrix.

Three design points make the answers byte-identical to ``SeqCFL``:

* **States are ``(node, ctx)`` pairs**, discovered by closure from the
  normalised query nodes under the rule table of
  :mod:`repro.core.rules` — the one the engine's sweeps are checked
  against (global variables pinned to the empty context, call-string
  push/pop at ``param``/``ret`` edges, ``reset`` clearing the context).
  Context-sensitivity is thereby compiled into the *graph*, so the
  grammar fixpoint itself needs no side condition.
* **Two independent terminal families.**  The backward (barred) family
  is *not* the transpose of the forward family: exiting a callee
  backwards at an empty call string is allowed through any site
  (partially balanced parentheses), and the symmetric rule holds
  forwards at ``ret`` edges.  Each family reads the table in its own
  direction.
* **The fixpoint is driven by the registered grammar's productions**
  (via :meth:`repro.core.cfl.CFG.cnf`), so flowsto, taint and escape
  run unchanged — their extra productions sit above ``flowsToBar``,
  which is the single symbol points-to answers are read from.

The kernel computes the *exact* (unlimited-budget) CFL fixpoint; every
result carries ``exhausted=False``.  Compare against the demand engine
at an exhaustive budget (see DESIGN.md §4.15).
"""

from __future__ import annotations

import itertools
from typing import (
    TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union,
)

from repro.core.cfl import CFG
from repro.core.context import EMPTY_CTX, Context
from repro.core.grammar import get_grammar
from repro.core.query import Query, QueryCosts, QueryResult
from repro.core.rules import FLOWS_TO, POINTS_TO, Rule, rules
from repro.errors import AnalysisError, InputError
from repro.pag.graph import PAG, FrozenPAG

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by monkeypatching
    np = None  # type: ignore[assignment]

if TYPE_CHECKING:
    from numpy.typing import NDArray

    from repro.core.engine import EngineConfig
    from repro.obs.recorder import Recorder

    BitMatrix = NDArray[np.uint64]

__all__ = [
    "MatrixKernel",
    "ensure_numpy",
    "WORD_BITS",
    "n_words",
    "zero_matrix",
    "set_bit",
    "get_bit",
    "or_into",
    "pack_rows",
    "unpack_rows",
    "row_indices",
    "transpose",
    "matmul",
    "popcount",
]

#: What pyproject.toml declares; quoted in the missing-numpy error.
NUMPY_REQUIREMENT = "numpy>=1.22"

WORD_BITS = 64


def ensure_numpy() -> None:
    """Fail with a clear :class:`InputError` when numpy is missing.

    The matrix kernel is the only part of the system that needs numpy;
    the demand backends (``sim``/``local``/``threads``/``mp``) never
    import it, so a missing dependency must surface as a user-facing
    configuration error, not an ImportError traceback.
    """
    if np is None:
        raise InputError(
            "the matrix backend requires numpy (declared as "
            f"'{NUMPY_REQUIREMENT}' in pyproject.toml) but it is not "
            "importable in this environment; install numpy or pick one "
            "of the demand backends (sim/local/threads/mp), which do not "
            "use it"
        )


# ----------------------------------------------------------------------
# packed-bitset primitives
# ----------------------------------------------------------------------
def n_words(n_cols: int) -> int:
    """uint64 words needed for ``n_cols`` bit columns (at least 1)."""
    return max(1, (n_cols + WORD_BITS - 1) // WORD_BITS)


def zero_matrix(n_rows: int, n_cols: int) -> "BitMatrix":
    """An all-zero packed boolean matrix of ``n_rows`` x ``n_cols``."""
    ensure_numpy()
    return np.zeros((n_rows, n_words(n_cols)), dtype=np.uint64)


def set_bit(m: "BitMatrix", row: int, col: int) -> None:
    m[row, col >> 6] |= np.uint64(1 << (col & 63))


def get_bit(m: "BitMatrix", row: int, col: int) -> bool:
    return bool(m[row, col >> 6] & np.uint64(1 << (col & 63)))


def or_into(dst: "BitMatrix", src: "BitMatrix") -> bool:
    """``dst |= src``; True when any bit of ``dst`` changed."""
    changed = bool(np.any(src & ~dst))
    if changed:
        np.bitwise_or(dst, src, out=dst)
    return changed


def pack_rows(rows: Sequence[Set[int]], n_cols: int) -> "BitMatrix":
    """Pack per-row column sets into a bit matrix."""
    m = zero_matrix(len(rows), n_cols)
    for i, cols in enumerate(rows):
        for j in cols:
            m[i, j >> 6] |= np.uint64(1 << (j & 63))
    return m


def row_indices(row: "BitMatrix") -> List[int]:
    """The set bit positions of one packed row, ascending."""
    out: List[int] = []
    base = 0
    for w in row.tolist():
        bits = int(w)
        while bits:
            low = bits & -bits
            out.append(base + low.bit_length() - 1)
            bits &= bits - 1
        base += WORD_BITS
    return out


def unpack_rows(m: "BitMatrix") -> List[Set[int]]:
    """Inverse of :func:`pack_rows` (column bound rounded up to words)."""
    return [set(row_indices(m[i])) for i in range(m.shape[0])]


def transpose(m: "BitMatrix", n_rows: int, n_cols: int) -> "BitMatrix":
    """Packed transpose: bit ``(i, j)`` of ``m`` becomes ``(j, i)``."""
    out = zero_matrix(n_cols, n_rows)
    for i in range(n_rows):
        for j in row_indices(m[i]):
            out[j, i >> 6] |= np.uint64(1 << (i & 63))
    return out


def matmul(
    left: "BitMatrix",
    right: "BitMatrix",
    out: Optional["BitMatrix"] = None,
    stats: Optional[Dict[str, int]] = None,
    colmask: Optional["BitMatrix"] = None,
    right_rows: Optional[List[int]] = None,
) -> "BitMatrix":
    """Boolean matrix product: ``out[i] = OR over j in left[i] of right[j]``.

    Vectorised column-at-a-time: for each column ``j`` that is set
    anywhere in ``left`` *and* whose ``right[j]`` row is non-empty, OR
    ``right[j]`` into every row of ``out`` whose ``left`` row has bit
    ``j`` — one masked word-wise OR over the whole row dimension per
    contributing column, no per-bit Python loop.  The empty-right-row
    skip is what makes semi-naive products against a sparse delta cheap
    even when the left operand is a dense closed matrix.

    ``stats`` (optional) accumulates ``"word_ops"``: uint64 words ORed.
    ``colmask``/``right_rows`` (optional) are precomputed operand
    summaries — the populated-column mask of ``left`` and the non-empty
    row ids of ``right`` — so a caller multiplying the same operand in
    several productions pays the scans once.
    """
    ensure_numpy()
    if out is None:
        out = np.zeros((left.shape[0], right.shape[1]), dtype=np.uint64)
    if colmask is None:
        colmask = np.bitwise_or.reduce(left, axis=0)
    if right_rows is None:
        right_rows = np.flatnonzero(right.any(axis=1)).tolist()
    word_ops = 0
    width = right.shape[1]
    # Fancy indexing beats a full-height masked OR while the selected
    # row set is small; the cutover is a coarse bandwidth heuristic.
    dense_cut = max(1, left.shape[0] >> 3)
    for j in right_rows:
        w = j >> 6
        if w >= colmask.shape[0]:
            break
        bit = np.uint64(1 << (j & 63))
        if not colmask[w] & bit:
            continue
        rows = (left[:, w] & bit) != 0
        idx = np.flatnonzero(rows)
        word_ops += int(idx.size) * width
        if idx.size <= dense_cut:
            out[idx] |= right[j]
        else:
            np.bitwise_or(out, right[j], out=out, where=rows[:, None])
    if stats is not None:
        stats["word_ops"] = stats.get("word_ops", 0) + word_ops
    return out


def popcount(m: "BitMatrix") -> int:
    """Total number of set bits in a packed matrix."""
    ensure_numpy()
    if hasattr(np, "bitwise_count"):
        return int(np.bitwise_count(m).sum())
    flat = np.ascontiguousarray(m).view(np.uint8)  # pragma: no cover
    return int(_POPCOUNT8[flat].sum())  # pragma: no cover


if np is not None and not hasattr(np, "bitwise_count"):  # pragma: no cover
    _POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint32)


# ----------------------------------------------------------------------
# the bulk kernel
# ----------------------------------------------------------------------
#: A state of the context-expanded graph.
State = Tuple[int, Context]


class MatrixKernel:
    """All-pairs CFL-reachability over one PAG and one grammar.

    Build once per batch, call :meth:`run_batch` with the queries; the
    kernel discovers the reachable ``(node, ctx)`` state space, lowers
    the PAG onto per-terminal bit matrices, closes them under the
    grammar's CNF productions, and reads every answer from the closed
    ``flowsToBar`` matrix.  Answers are byte-identical to the demand
    engine at an unlimited budget (``exhausted`` is always False).
    """

    #: Points-to answers are rows of this closed nonterminal; every
    #: built-in grammar (flowsto, taint, escape) contains it.
    ANSWER_SYMBOL = "flowsToBar"

    #: Safety valves: the state closure is precise for well-formed PAGs
    #: (recursion is collapsed before lowering, so call strings cannot
    #: grow without bound), but a malformed graph must fail loudly
    #: rather than allocate forever.
    MAX_CTX_DEPTH = 256
    MAX_STATES = 2_000_000

    def __init__(
        self,
        pag: Union[PAG, FrozenPAG],
        config: Optional["EngineConfig"] = None,
        recorder: Optional["Recorder"] = None,
    ) -> None:
        ensure_numpy()
        if config is None:
            from repro.core.engine import EngineConfig

            config = EngineConfig()
        self.pag = pag
        self.cfg = config
        self.recorder = recorder
        self.grammar = get_grammar(config.grammar)
        if self.grammar.traversal != "flowsto":
            raise AnalysisError(
                f"grammar {self.grammar.name!r} declares traversal core "
                f"{self.grammar.traversal!r}; the matrix kernel only "
                "compiles the 'flowsto' core"
            )
        #: (direction, rule, adjacency) for every table row the state
        #: closure follows: heap rows are single steps only when
        #: field-sensitive.
        self._legs: List[Tuple[bool, Rule, Mapping[int, Sequence[object]]]] = [
            (direction, rule, getattr(pag, rule.adjacency[direction]))
            for direction in (POINTS_TO, FLOWS_TO)
            for rule in rules(self.grammar)
            if not rule.heap or config.field_mode == "sensitive"
        ]
        self._fields = self.grammar.fields_of(pag)
        cfg_obj: CFG = self.grammar.cfg(self._fields)
        if self.ANSWER_SYMBOL not in cfg_obj.productions:
            raise AnalysisError(
                f"grammar {self.grammar.name!r} has no "
                f"{self.ANSWER_SYMBOL!r} nonterminal; the matrix kernel "
                "reads points-to answers from its closed rows"
            )
        self._cnf = cfg_obj.cnf()
        self._symbols = sorted(cfg_obj.productions)
        # seed-terminal -> CNF symbols it initially populates: the
        # nonterminals with a direct A -> t production plus t's proxy.
        heads: Dict[str, Set[str]] = {}
        for term, direct in self._cnf.term.items():
            heads.setdefault(term, set()).update(direct)
        for proxy, term in self._cnf.term_index.items():
            heads.setdefault(term, set()).add(proxy)
        self._terminal_heads = heads
        self._seeds: List[State] = []
        self._index: Dict[State, int] = {}
        self._states: List[State] = []
        self._matrices: Dict[str, "BitMatrix"] = {}
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
        answers = self._matrices.get(self.ANSWER_SYMBOL)
        points_to: Set[State] = set()
        if answers is not None:
            states = self._states
            for j in row_indices(answers[self._index[seed]]):
                points_to.add(states[j])
        result = QueryResult(
            query=Query(seed[0], seed[1]),
            points_to=frozenset(points_to),
            exhausted=False,
            costs=QueryCosts(),
        )
        rec = self.recorder
        if rec:
            rec.record_query(result, self.cfg.grammar)
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
        if self.cfg.field_mode == "match":
            # field-based matching folds st(f) alias ld(f) into one
            # context-free step, emitted on the assign terminal
            for _p, f in pag.load_in.get(x, ()):
                for _qb, y in pag.stores_by_field.get(f, ()):
                    out.append(("~assign", y, EMPTY_CTX))
            for _qb, f in pag.store_out.get(x, ()):
                for _p, t in pag.loads_by_field.get(f, ()):
                    out.append(("assign", t, EMPTY_CTX))
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
        cnf = self._cnf
        mats: Dict[str, "BitMatrix"] = {}
        pending: Dict[str, "BitMatrix"] = {}
        self._matrices = mats
        stats = {"rounds": 0, "products": 0, "word_ops": 0, "frontier_bits": 0}
        scratch = zero_matrix(n, n)

        def merge(symbol: str, bits: "BitMatrix") -> None:
            # fold new facts into `symbol` and every unit-production
            # ancestor (the unit relation is transitively closed)
            for sym in itertools.chain((symbol,), cnf.unit.get(symbol, ())):
                tgt = mats.get(sym)
                if tgt is None:
                    tgt = mats[sym] = zero_matrix(n, n)
                np.bitwise_not(tgt, out=scratch)
                np.bitwise_and(scratch, bits, out=scratch)
                if not scratch.any():
                    continue
                np.bitwise_or(tgt, scratch, out=tgt)
                pend = pending.get(sym)
                if pend is None:
                    pending[sym] = scratch.copy()
                else:
                    np.bitwise_or(pend, scratch, out=pend)

        # seed terminals: one edge matrix per terminal, folded into the
        # symbols a single edge already derives
        n_edges = 0
        for term, pairs in term_edges.items():
            heads = self._terminal_heads.get(term)
            if not heads:
                continue  # terminal unused by this grammar (e.g. jmp)
            edge_matrix = zero_matrix(n, n)
            for src, dst in pairs:
                edge_matrix[src, dst >> 6] |= np.uint64(1 << (dst & 63))
            n_edges += len(pairs)
            for head in heads:
                merge(head, edge_matrix)

        # semi-naive closure: only deltas from the previous round are
        # multiplied, against the full current matrices
        while pending:
            stats["rounds"] += 1
            cur, pending = pending, {}
            for bits in cur.values():
                stats["frontier_bits"] += popcount(bits)
            # per-round operand summaries, keyed by array identity; a
            # summary going stale mid-round (a merge adding bits to a
            # full matrix) is safe — the added bits are in `pending`
            # and their products run next round (semi-naive invariant)
            colmasks: Dict[int, "BitMatrix"] = {}
            nz_rows: Dict[int, List[int]] = {}
            for (b, c_sym), heads in cnf.pair.items():
                for left, right in (
                    (cur.get(b), mats.get(c_sym)),
                    (mats.get(b), cur.get(c_sym)),
                ):
                    if left is None or right is None:
                        continue
                    cm = colmasks.get(id(left))
                    if cm is None:
                        cm = colmasks[id(left)] = np.bitwise_or.reduce(left, axis=0)
                    rr = nz_rows.get(id(right))
                    if rr is None:
                        rr = nz_rows[id(right)] = np.flatnonzero(
                            right.any(axis=1)
                        ).tolist()
                    product = matmul(left, right, stats=stats, colmask=cm, right_rows=rr)
                    stats["products"] += 1
                    if product.any():
                        for head in heads:
                            merge(head, product)

        self._solved = True
        rec = self.recorder
        if rec:
            counts: Dict[str, int] = {
                "matrix.states": n,
                "matrix.edges": n_edges,
                "matrix.fixpoint_rounds": stats["rounds"],
                "matrix.products": stats["products"],
                "matrix.word_ops": stats["word_ops"],
                "matrix.frontier_bits": stats["frontier_bits"],
            }
            for sym in self._symbols:
                m = mats.get(sym)
                counts[f"matrix.nnz.{sym}"] = popcount(m) if m is not None else 0
            rec.count_many(counts)
