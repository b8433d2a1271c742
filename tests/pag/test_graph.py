"""Unit tests for the raw PAG data structure."""

import pickle

import pytest

from repro.errors import PAGError
from repro.pag import PAG, EdgeKind, NodeKind
from repro.pag.dot import to_dot


@pytest.fixture
def pag():
    return PAG()


class TestNodes:
    def test_unfinished_node_exists(self, pag):
        assert pag.kind(pag.unfinished_node) is NodeKind.UNFINISHED
        assert pag.n_nodes == 0  # O is excluded from counts

    def test_add_local(self, pag):
        v = pag.add_local("x@M.m", "Object", "M.m")
        assert pag.kind(v) is NodeKind.LOCAL
        assert pag.is_variable(v)
        assert not pag.is_object(v)
        assert pag.name(v) == "x@M.m"
        assert pag.method_of(v) == "M.m"
        assert pag.node_id("x@M.m") == v

    def test_add_global(self, pag):
        g = pag.add_global("G", "Object")
        assert pag.kind(g) is NodeKind.GLOBAL
        assert pag.is_global(g)
        assert pag.is_variable(g)

    def test_add_obj(self, pag):
        o = pag.add_obj("o:M.m:0", "Vector")
        assert pag.is_object(o)
        assert not pag.is_variable(o)
        assert pag.type_name(o) == "Vector"

    def test_duplicate_name_rejected(self, pag):
        pag.add_local("x")
        with pytest.raises(PAGError):
            pag.add_local("x")

    def test_unknown_name_lookup(self, pag):
        with pytest.raises(PAGError):
            pag.node_id("ghost")
        assert not pag.has_node("ghost")

    def test_node_ids_excludes_O(self, pag):
        pag.add_local("x")
        pag.add_obj("o1")
        ids = list(pag.node_ids())
        assert pag.unfinished_node not in ids
        assert len(ids) == 2

    def test_app_locals(self, pag):
        a = pag.add_local("a", is_app=True)
        pag.add_local("lib", is_app=False)
        pag.add_global("G", is_app=True)  # globals are never 'app locals'
        assert pag.app_locals() == [a]

    def test_info_str(self, pag):
        v = pag.add_local("x")
        o = pag.add_obj("site0")
        assert str(pag.info(v)) == "x"
        assert str(pag.info(o)) == "o[site0]"
        assert str(pag.info(pag.unfinished_node)) == "O"


class TestEdges:
    def test_new_edge(self, pag):
        v, o = pag.add_local("v"), pag.add_obj("o1")
        pag.add_new_edge(v, o)
        assert pag.new_in[v] == [o]
        assert pag.new_out[o] == [v]
        assert pag.n_edges == 1

    def test_new_edge_type_checks(self, pag):
        v, o = pag.add_local("v"), pag.add_obj("o1")
        with pytest.raises(PAGError):
            pag.add_new_edge(o, o)  # dst must be a variable
        with pytest.raises(PAGError):
            pag.add_new_edge(v, v)  # src must be an object

    def test_assign_edge_both_directions(self, pag):
        a, b = pag.add_local("a"), pag.add_local("b")
        pag.add_assign_edge(a, b)
        assert pag.assign_in[a] == [b]
        assert pag.assign_out[b] == [a]

    def test_gassign_requires_global(self, pag):
        a, b = pag.add_local("a"), pag.add_local("b")
        with pytest.raises(PAGError):
            pag.add_gassign_edge(a, b)
        g = pag.add_global("G")
        pag.add_gassign_edge(g, a)
        pag.add_gassign_edge(b, g)
        assert pag.gassign_in[g] == [a]
        assert pag.gassign_in[b] == [g]

    def test_load_edge_indexes(self, pag):
        x, p = pag.add_local("x"), pag.add_local("p")
        pag.add_load_edge(x, p, "f")
        assert pag.load_in[x] == [(p, "f")]
        assert pag.load_out[p] == [(x, "f")]
        assert pag.loads_by_field["f"] == [(p, x)]

    def test_store_edge_indexes(self, pag):
        q, y = pag.add_local("q"), pag.add_local("y")
        pag.add_store_edge(q, "f", y)
        assert pag.store_in[q] == [(y, "f")]
        assert pag.store_out[y] == [(q, "f")]
        assert pag.stores_by_field["f"] == [(q, y)]

    def test_param_ret_edges(self, pag):
        f, a = pag.add_local("formal"), pag.add_local("actual")
        r, rv = pag.add_local("res"), pag.add_local("$ret")
        pag.add_param_edge(f, a, 7)
        pag.add_ret_edge(r, rv, 7)
        assert pag.param_in[f] == [(a, 7)]
        assert pag.param_out[a] == [(f, 7)]
        assert pag.ret_in[r] == [(rv, 7)]
        assert pag.ret_out[rv] == [(r, 7)]

    def test_duplicate_edges_deduplicated(self, pag):
        a, b = pag.add_local("a"), pag.add_local("b")
        pag.add_assign_edge(a, b)
        pag.add_assign_edge(a, b)
        assert pag.n_edges == 1
        assert pag.assign_in[a] == [b]

    def test_same_pair_different_field_kept(self, pag):
        x, p = pag.add_local("x"), pag.add_local("p")
        pag.add_load_edge(x, p, "f")
        pag.add_load_edge(x, p, "g")
        assert pag.n_edges == 2

    def test_edges_iterator_roundtrip(self, pag):
        v, o = pag.add_local("v"), pag.add_obj("o1")
        q = pag.add_local("q")
        pag.add_new_edge(v, o)
        pag.add_store_edge(q, "f", v)
        kinds = sorted(e.kind for e in pag.edges())
        assert kinds == [EdgeKind.NEW, EdgeKind.STORE]
        assert pag.n_edges == 2

    def test_edge_str(self, pag):
        x, p = pag.add_local("x"), pag.add_local("p")
        pag.add_load_edge(x, p, "f")
        (edge,) = pag.edges()
        assert "load(f)" in str(edge)


class TestCycleCollapsing:
    def test_simple_assign_cycle_merged(self, pag):
        a, b, c = pag.add_local("a"), pag.add_local("b"), pag.add_local("c")
        o = pag.add_obj("o1")
        pag.add_new_edge(a, o)
        pag.add_assign_edge(a, b)
        pag.add_assign_edge(b, a)
        pag.add_assign_edge(c, a)
        merged = pag.collapse_assign_sccs()
        assert merged == 1
        assert pag.rep(a) == pag.rep(b)
        assert pag.rep(c) != pag.rep(a)
        # The cycle's internal edges vanish; c <- rep(a) survives.
        rep = pag.rep(a)
        assert pag.assign_in.get(rep, []) == []
        assert pag.assign_in[c] == [rep]
        # new edge follows the representative
        assert pag.new_in[rep] == [o]

    def test_collapse_without_cycles_is_noop(self, pag):
        a, b = pag.add_local("a"), pag.add_local("b")
        pag.add_assign_edge(a, b)
        assert pag.collapse_assign_sccs() == 0
        assert pag.rep(a) == a

    def test_labeled_edges_remapped(self, pag):
        a, b = pag.add_local("a"), pag.add_local("b")
        x = pag.add_local("x")
        pag.add_assign_edge(a, b)
        pag.add_assign_edge(b, a)
        pag.add_load_edge(x, a, "f")
        pag.add_store_edge(b, "f", x)
        pag.collapse_assign_sccs()
        rep = pag.rep(a)
        assert pag.load_in[x] == [(rep, "f")]
        assert pag.stores_by_field["f"] == [(rep, x)]

    def test_duplicate_edges_after_merge_deduplicated(self, pag):
        a, b, s = pag.add_local("a"), pag.add_local("b"), pag.add_local("s")
        pag.add_assign_edge(a, b)
        pag.add_assign_edge(b, a)
        pag.add_assign_edge(a, s)
        pag.add_assign_edge(b, s)
        pag.collapse_assign_sccs()
        rep = pag.rep(a)
        assert pag.assign_in[rep] == [s]


class TestLegIndex:
    def test_rows_in_kind_order_sharing_the_dict_lists(self, pag):
        x, p, o = pag.add_local("x"), pag.add_local("p"), pag.add_obj("o")
        pag.add_load_edge(x, p, "f")
        pag.add_new_edge(x, o)
        (new_row, load_row) = pag.rows(False)[x]
        assert new_row == (EdgeKind.NEW, [o]) and new_row[1] is pag.new_in[x]
        assert load_row == (EdgeKind.LOAD, [(p, "f")])
        assert pag.rows(True)[p] == ((EdgeKind.LOAD, [(x, "f")]),)
        y = pag.add_local("y")
        pag.add_assign_edge(x, y)  # a new row, added after first use
        assert [k for k, _ in pag.rows(False)[x]] == [
            EdgeKind.NEW, EdgeKind.ASSIGN, EdgeKind.LOAD]

    def test_pickle_keeps_rows_on_the_dict_lists(self, pag):
        a, b, o = pag.add_local("a"), pag.add_local("b"), pag.add_obj("o")
        pag.add_new_edge(a, o)
        pag.add_assign_edge(b, a)
        pag.rows(False)  # built before pickling, as MPExecutor does
        thawed = pickle.loads(pickle.dumps(pag, protocol=pickle.HIGHEST_PROTOCOL))
        for outgoing in (False, True):
            assert thawed.rows(outgoing) == pag.rows(outgoing)
        ((kind, entries),) = thawed.rows(False)[b]
        assert kind == EdgeKind.ASSIGN and entries == [a]
        assert entries is thawed.assign_in[b]
        c = thawed.add_local("c")
        thawed.add_assign_edge(b, c)  # an edit shows through the row
        assert thawed.rows(False)[b] == ((EdgeKind.ASSIGN, [a, c]),)


class TestDot:
    def test_dot_contains_nodes_and_edges(self, pag):
        v, o = pag.add_local("v"), pag.add_obj("o1")
        pag.add_new_edge(v, o)
        text = to_dot(pag)
        assert "digraph pag {" in text
        assert '"v"' in text and '"o[o1]"' in text
        assert "new" in text

    def test_dot_subgraph_filter(self, pag):
        v, o = pag.add_local("v"), pag.add_obj("o1")
        w = pag.add_local("w")
        pag.add_new_edge(v, o)
        pag.add_assign_edge(w, v)
        text = to_dot(pag, nodes=[v, o])
        assert '"w"' not in text
        assert "assign" not in text
