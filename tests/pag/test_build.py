"""Unit tests for IR -> PAG lowering (repro.pag.build)."""

import pytest

from repro.errors import PAGError
from repro.ir import parse_program
from repro.pag import build_pag
from repro.pag.edges import EdgeKind


class TestFig2Lowering:
    """Structure of the lowered Fig. 2 PAG (paper Fig. 2(b))."""

    def test_new_edges(self, fig2):
        b, n = fig2
        assert n["o_vec1"] in b.pag.new_in[n["v1"]]
        assert n["o_arr"] in b.pag.new_in[n["t_init"]]

    def test_store_elems_edge(self, fig2):
        # this.elems = t in <init>:  this_init <-st(elems)- t_init
        b, n = fig2
        assert (n["t_init"], "elems") in b.pag.store_in[n["this_init"]]

    def test_load_elems_edges(self, fig2):
        b, n = fig2
        assert (n["this_add"], "elems") in b.pag.load_in[n["t_add"]]
        assert (n["this_get"], "elems") in b.pag.load_in[n["t_get"]]

    def test_array_store_and_load(self, fig2):
        # t.arr = e in add; r = t.arr in get
        b, n = fig2
        assert (n["e_add"], "arr") in b.pag.store_in[n["t_add"]]
        assert (n["t_get"], "arr") in b.pag.load_in[n["r_get"]]

    def test_param_edges_with_sites(self, fig2):
        b, n = fig2
        # v1.add(n1) is call site 1: receiver and argument flow in.
        assert (n["v1"], 1) in b.pag.param_in[n["this_add"]]
        assert (n["n1"], 1) in b.pag.param_in[n["e_add"]]
        # v2.add(n2) is call site 4.
        assert (n["v2"], 4) in b.pag.param_in[n["this_add"]]
        assert (n["n2"], 4) in b.pag.param_in[n["e_add"]]

    def test_ret_edges_with_sites(self, fig2):
        b, n = fig2
        assert (n["ret_get"], 2) in b.pag.ret_in[n["s1"]]
        assert (n["ret_get"], 5) in b.pag.ret_in[n["s2"]]

    def test_return_lowered_to_assign_into_ret(self, fig2):
        b, n = fig2
        assert n["r_get"] in b.pag.assign_in[n["ret_get"]]

    def test_stores_by_field_index(self, fig2):
        b, n = fig2
        assert (n["this_init"], n["t_init"]) in b.pag.stores_by_field["elems"]
        assert (n["t_add"], n["e_add"]) in b.pag.stores_by_field["arr"]

    def test_app_locals_are_queryable(self, fig2):
        b, n = fig2
        app = set(b.pag.app_locals())
        assert n["s1"] in app and n["v1"] in app

    def test_counts_match_structure(self, fig2):
        b, _ = fig2
        # 5 objects; all reference locals incl this/$ret.
        assert sum(1 for _ in b.pag.objects()) == 5
        assert b.pag.n_edges > 10


class TestLoweringRules:
    def test_primitive_locals_skipped(self):
        p = parse_program(
            """
            class A { method m() { var x: int \n var y: Object \n y = new Object } }
            """
        )
        b = build_pag(p)
        assert not b.pag.has_node("x@A.m")
        assert b.pag.has_node("y@A.m")

    def test_primitive_field_store_skipped(self):
        p = parse_program(
            """
            class A { field n: int
              method m(v: int) { this.n = v }
            }
            """
        )
        b = build_pag(p)
        assert "n" not in b.pag.stores_by_field

    def test_global_assign_becomes_gassign(self):
        p = parse_program(
            """
            global G: Object
            class A { method m() { var x: Object \n x = new Object \n G = x } }
            """
        )
        b = build_pag(p)
        g, x = b.var("G"), b.var("x", "A.m")
        assert x in b.pag.gassign_in[g]

    def test_global_as_call_argument_normalised(self):
        # Fig. 1 requires param edges to connect locals only; a global
        # argument is routed through a synthetic local via assign_g.
        p = parse_program(
            """
            global G: Object
            class A { method f(x: Object) { } }
            class M { static method main() {
                var a: A \n a = new A \n a.f(G)
            } }
            """
        )
        b = build_pag(p)
        formal = b.var("x", "A.f")
        (actual, _site) = b.pag.param_in[formal][0]
        assert not b.pag.is_global(actual)
        g = b.var("G")
        assert g in b.pag.gassign_in[actual]

    def test_global_store_base_normalised(self):
        p = parse_program(
            """
            global G: A
            class A { field f: Object
              method m(v: Object) { G.f = v }
            }
            """
        )
        b = build_pag(p)
        (base, _value) = b.pag.stores_by_field["f"][0]
        assert not b.pag.is_global(base)

    def test_recursive_call_collapsed_to_assign(self):
        p = parse_program(
            """
            class A {
              method f(x: Object): Object {
                var y: Object
                y = this.f(x)
                return y
              }
            }
            """
        )
        b = build_pag(p)
        assert b.n_collapsed_recursive_sites == 1
        x = b.var("x", "A.f")
        # The param edge is demoted to the assign self-loop x <- x, which
        # is not entered: no param edge and no self-loop.
        assert x not in b.pag.param_in
        assert x not in b.pag.assign_in.get(x, [])

    def test_pt_cycle_collapse(self):
        p = parse_program(
            """
            class A { method m() {
                var a: Object \n var b: Object
                a = new Object \n a = b \n b = a
            } }
            """
        )
        b = build_pag(p)
        assert b.n_merged_assign_nodes == 1
        assert b.var("a", "A.m") == b.var("b", "A.m")

    def test_virtual_site_wires_every_callee(self):
        p = parse_program(
            """
            class Base { method f(x: Object) { } }
            class Sub extends Base { method f(x: Object) { } }
            class M { static method main() {
                var b: Base \n var o: Object
                b = new Base \n o = new Object \n b.f(o)
            } }
            """
        )
        b = build_pag(p)
        o = b.var("o", "M.main")
        base_x, sub_x = b.var("x", "Base.f"), b.var("x", "Sub.f")
        site = b.pag.param_in[base_x][0][1]
        assert (o, site) in b.pag.param_in[base_x]
        assert (o, site) in b.pag.param_in[sub_x]

    def test_unsealed_program_rejected(self):
        from repro.ir.builder import ProgramBuilder

        b = ProgramBuilder()
        b.clazz("A").method("m")
        with pytest.raises(PAGError):
            build_pag(b.program)

    def test_build_result_lookup_errors(self, fig2_build):
        with pytest.raises(PAGError):
            fig2_build.var("ghost", "Main.main")
        with pytest.raises(PAGError):
            fig2_build.obj("ghost")

    def test_void_call_produces_no_ret_edge(self):
        p = parse_program(
            """
            class A { method f() { } }
            class M { static method main() { var a: A \n a = new A \n a.f() } }
            """
        )
        b = build_pag(p)
        assert all(e.kind != EdgeKind.RET for e in b.pag.edges())
