"""The matrix kernel's row-bitset closure against a naive oracle.

:func:`repro.core.matrix.close_rows` is checked on random labelled
graphs against a set-of-pairs CNF fixpoint written here from the
grammar's ``cnf()`` tables alone.  No engine, rule table, state
discovery or sweep is involved, so a bug shared by the kernel and the
demand engine cannot hide from this check.  Graph sizes cross the
64-bit word boundaries where bitset code tends to break.
"""

from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.grammar import get_grammar
from repro.core.matrix import close_rows

FIELDS = ("f", "g")
GRAMMARS = ("flowsto", "taint", "escape")

Pair = Tuple[int, int]


def cnf_of(grammar: str):
    return get_grammar(grammar).cfg(FIELDS).cnf()


def naive_closure(cnf, edges: Dict[str, List[Pair]]) -> Dict[str, Set[Pair]]:
    """Symbol -> the (src, dst) pairs it derives, by plain iteration:
    seed every edge into its terminal's heads, then apply each binary
    production to whole relations until nothing changes."""
    rel: Dict[str, Set[Pair]] = {}

    def add(symbol: str, pairs: Set[Pair]) -> bool:
        grew = False
        for sym in (symbol, *cnf.unit.get(symbol, ())):
            have = rel.setdefault(sym, set())
            if not pairs <= have:
                have |= pairs
                grew = True
        return grew

    for term, pairs in edges.items():
        for head in cnf.term.get(term, ()):
            add(head, set(pairs))
    changed = True
    while changed:
        changed = False
        for (b, c), heads in cnf.pair.items():
            right = rel.get(c, set())
            derived = {
                (i, j)
                for i, k in rel.get(b, set())
                for k2, j in right
                if k == k2
            }
            for head in heads:
                changed |= add(head, derived)
    return {sym: pairs for sym, pairs in rel.items() if pairs}


def as_pairs(rows: Dict[str, List[int]]) -> Dict[str, Set[Pair]]:
    out: Dict[str, Set[Pair]] = {}
    for sym, bitsets in rows.items():
        pairs = {
            (i, j)
            for i, row in enumerate(bitsets)
            for j in range(row.bit_length())
            if row >> j & 1
        }
        if pairs:
            out[sym] = pairs
    return out


@st.composite
def labelled_graphs(draw, grammar: str):
    terminals = sorted(cnf_of(grammar).term)
    n = draw(st.sampled_from([1, 2, 5, 63, 64, 65, 70]))
    node = st.integers(0, n - 1)
    triples = draw(st.lists(
        st.tuples(st.sampled_from(terminals), node, node), max_size=60,
    ))
    edges: Dict[str, List[Pair]] = {}
    for term, src, dst in triples:
        edges.setdefault(term, []).append((src, dst))
    return n, edges


@pytest.mark.parametrize("grammar", GRAMMARS)
def test_closure_equals_naive_fixpoint(grammar):
    cnf = cnf_of(grammar)

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(labelled_graphs(grammar))
    def check(graph):
        n, edges = graph
        rows, stats = close_rows(cnf, n, edges)
        assert as_pairs(rows) == naive_closure(cnf, edges)
        assert all(len(bitsets) == n for bitsets in rows.values())
        assert stats["edges"] == sum(
            len(pairs) for term, pairs in edges.items() if term in cnf.term
        )

    check()


def test_flows_to_bar_chain():
    # o <-new- x <-assign- y : y's flowsToBar row holds o, and so does x's
    cnf = cnf_of("flowsto")
    edges = {"~assign": [(2, 1)], "~new": [(1, 0)]}
    rows, stats = close_rows(cnf, 3, edges)
    assert rows["flowsToBar"] == [0, 1 << 0, 1 << 0]
    assert stats["fixpoint_rounds"] >= 1
    assert stats["word_ops"] > 0


def test_empty_graph():
    rows, stats = close_rows(cnf_of("flowsto"), 4, {})
    assert rows == {}
    assert stats["fixpoint_rounds"] == 0
