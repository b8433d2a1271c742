"""Row-bitset operations of the matrix kernel against a pure Python
set-based reference.

The kernel stores one Python ``int`` per row (bit ``j`` = column ``j``)
and closes relations with :func:`repro.core.matrix.close_rows`.  Each
operation it builds on — reading a row's bits, folding facts into a
relation, the column index (transpose) behind the full x delta
product, the delta x full product, popcount-based counters and the
word-op counter — is cross-checked here through tiny hand-written
grammars on randomised boolean relations.  The shapes span the
word-boundary cases (widths 1, 63, 64, 65, 130) where bitset bugs live.
"""

import random

import pytest

from repro.core.cfl import CFG
from repro.core.matrix import _bits, close_rows

SHAPES = [(1, 1), (3, 63), (2, 64), (5, 65), (4, 130), (64, 7), (65, 65)]


def random_rows(n_rows, n_cols, rng, density=0.3):
    return [
        {c for c in range(n_cols) if rng.random() < density}
        for _ in range(n_rows)
    ]


def ref_matmul(left_rows, right_rows, n_cols):
    """Boolean product over sets: out[i] = union of right[j] for j in left[i]."""
    out = []
    for row in left_rows:
        acc = set()
        for j in row:
            if j < len(right_rows):
                acc |= right_rows[j]
        out.append(acc)
    return out


def pack(rows):
    return [sum(1 << j for j in row) for row in rows]


def unpack(bitsets, n_rows):
    return [set(_bits(bitsets[i])) if i < len(bitsets) else set()
            for i in range(n_rows)]


def edges_of(rows):
    return [(i, j) for i, row in enumerate(rows) for j in row]


def grammar(*productions):
    g = CFG("A")
    for head, *rhs in productions:
        g.add(head, *rhs)
    return g.cnf()


#: A -> b c: one binary product of two terminal relations.
PRODUCT = grammar(("A", "b", "c"))


def close(cnf, n, **edges):
    return close_rows(cnf, n, {t: edges_of(rows) for t, rows in edges.items()})


def test_n_words_boundaries():
    # A single product row whose top bit is column j spans j // 64 + 1
    # words; both semi-naive halves OR it once (delta x full reads
    # C[1], full x delta folds the delta row c[1]).
    for top, words in ((0, 1), (63, 1), (64, 2), (129, 3), (192, 4)):
        right = [set(), {top}]
        _rows, stats = close(PRODUCT, max(top + 1, 2), b=[{1}], c=right)
        assert stats["word_ops"] == 2 * words, top


@pytest.mark.parametrize("n_rows,n_cols", SHAPES)
def test_pack_unpack_roundtrip(n_rows, n_cols):
    rng = random.Random(n_rows * 1000 + n_cols)
    rows = random_rows(n_rows, n_cols, rng)
    bitsets = pack(rows)
    assert unpack(bitsets, n_rows) == rows
    for bitset, row in zip(bitsets, rows):
        # highest bit first, each exactly once
        assert list(_bits(bitset)) == sorted(row, reverse=True)


def test_set_get_bit():
    row = 0
    for col in (0, 63, 64, 129):
        assert not row >> col & 1
        row |= 1 << col
        assert row >> col & 1
    assert list(_bits(row)) == [129, 64, 63, 0]
    assert list(_bits(0)) == []


@pytest.mark.parametrize("n_rows,n_cols", SHAPES)
def test_or_into_matches_union(n_rows, n_cols):
    # A -> b | c: both terminals fold into A's rows.
    rng = random.Random(n_rows * 77 + n_cols)
    a = random_rows(n_rows, n_cols, rng)
    b = random_rows(n_rows, n_cols, rng)
    n = max(n_rows, n_cols)
    rows, stats = close(grammar(("A", "b"), ("A", "c")), n, b=a, c=b)
    assert unpack(rows.get("A", []), n_rows) == [x | y for x, y in zip(a, b)]
    # Overlapping bits are folded once: the frontier counts the union.
    assert stats["frontier_bits"] == sum(len(x | y) for x, y in zip(a, b))


@pytest.mark.parametrize("n_rows,n_cols", SHAPES)
def test_transpose_matches_reference(n_rows, n_cols):
    # A -> b C, C -> d e, with d the identity: C = e appears one round
    # after b, and b's delta has already gone, so A is derived only by
    # the full x delta product, which reads b through its column index.
    rng = random.Random(n_rows * 31 + n_cols)
    n = max(n_rows, n_cols)
    left = random_rows(n_rows, n, rng)
    right = random_rows(n, n_cols, rng)
    cnf = grammar(("A", "b", "C"), ("C", "d", "e"))
    identity = [{k} for k in range(n)]
    rows, _stats = close(cnf, n, b=left, d=identity, e=right)
    assert unpack(rows.get("A", []), n_rows) == ref_matmul(left, right, n_cols)


@pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 100])
def test_matmul_matches_reference(n):
    rng = random.Random(n)
    left = random_rows(n, n, rng)
    right = random_rows(n, n, rng)
    rows, _stats = close(PRODUCT, n, b=left, c=right)
    assert unpack(rows.get("A", []), n) == ref_matmul(left, right, n)


def test_matmul_accumulates_into_out():
    # A -> b c | a: the product lands on top of A's own seed facts.
    n = 70
    rng = random.Random(7)
    left = random_rows(n, n, rng)
    right = random_rows(n, n, rng)
    seed = random_rows(n, n, rng, density=0.05)
    cnf = grammar(("A", "b", "c"), ("A", "a"))
    rows, _stats = close(cnf, n, a=seed, b=left, c=right)
    expect = [s | p for s, p in zip(seed, ref_matmul(left, right, n))]
    assert unpack(rows["A"], n) == expect


def test_matmul_word_ops_stat():
    n = 66
    rng = random.Random(11)
    left = random_rows(n, n, rng)
    right = random_rows(n, n, rng)
    _rows, stats = close(PRODUCT, n, b=left, c=right)
    assert stats["word_ops"] > 0
    assert stats["products"] == 2  # delta x full and full x delta, once
    # An empty operand does no word work.
    _rows, stats2 = close(PRODUCT, n, c=right)
    assert stats2["word_ops"] == 0
    assert stats2["products"] == 0


@pytest.mark.parametrize("n_rows,n_cols", SHAPES)
def test_popcount_matches_reference(n_rows, n_cols):
    # A -> b: one round whose frontier is exactly b's set bits.
    rng = random.Random(n_rows + n_cols)
    rows = random_rows(n_rows, n_cols, rng)
    n = max(n_rows, n_cols)
    closed, stats = close(grammar(("A", "b")), n, b=rows)
    assert stats["frontier_bits"] == sum(len(r) for r in rows)
    assert sum(r.bit_count() for r in closed.get("A", [])) == stats["frontier_bits"]
    _closed, empty = close(grammar(("A", "b")), n)
    assert empty["frontier_bits"] == 0
