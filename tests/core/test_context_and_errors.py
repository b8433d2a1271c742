"""Small-unit coverage: context operations, error hierarchy, node/edge
records, and the DOT / printer utilities' edge cases."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.context import (
    EMPTY_CTX, ctx_depth, ctx_enter, ctx_exit, ctx_pop, ctx_push, ctx_top,
)
from repro.errors import (
    AnalysisError,
    BudgetExhausted,
    IRError,
    PAGError,
    ParseError,
    ReproError,
    RuntimeConfigError,
    SchedulingError,
    ValidationError,
)


class TestContextOps:
    def test_push_pop_roundtrip(self):
        c = ctx_push(EMPTY_CTX, 3)
        assert ctx_top(c) == 3
        assert ctx_pop(c) == EMPTY_CTX

    def test_pop_empty_is_identity(self):
        # the paper's ∅.pop() ≡ ∅ (Algorithm 1 line 14)
        assert ctx_pop(EMPTY_CTX) == EMPTY_CTX

    def test_top_of_empty_is_none(self):
        assert ctx_top(EMPTY_CTX) is None

    def test_depth(self):
        c = ctx_push(ctx_push(EMPTY_CTX, 1), 2)
        assert ctx_depth(c) == 2
        assert ctx_depth(EMPTY_CTX) == 0

    @given(st.lists(st.integers(0, 100), max_size=12))
    def test_push_pop_laws(self, sites):
        c = EMPTY_CTX
        for s in sites:
            c = ctx_push(c, s)
        assert ctx_depth(c) == len(sites)
        for s in reversed(sites):
            assert ctx_top(c) == s
            c = ctx_pop(c)
        assert c == EMPTY_CTX

    def test_enter_resets_on_a_repeated_site(self):
        # an uncollapsed cycle: entering through a site already on the
        # string resets it, so no string holds a site twice
        c = ctx_enter(ctx_enter(EMPTY_CTX, 1), 2)
        assert c == (1, 2)
        assert ctx_enter(c, 1) == EMPTY_CTX
        assert ctx_enter(c, 2) == EMPTY_CTX

    @given(st.lists(st.integers(0, 5), max_size=20))
    def test_entered_strings_stay_repeat_free(self, sites):
        c = EMPTY_CTX
        for s in sites:
            c = ctx_enter(c, s)
            assert len(set(c)) == len(c) <= 6

    def test_exit_pops_only_the_top_site(self):
        assert ctx_exit((1, 2), 2) == (1,)
        assert ctx_exit((1, 2), 1) is None
        # the empty string passes every site (partially balanced paths)
        assert ctx_exit(EMPTY_CTX, 7) == EMPTY_CTX

    def test_contexts_are_hashable_values(self):
        a = ctx_push(EMPTY_CTX, 1)
        b = ctx_push(EMPTY_CTX, 1)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [IRError, ParseError, ValidationError, PAGError, AnalysisError,
         BudgetExhausted, SchedulingError, RuntimeConfigError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_parse_error_line_prefix(self):
        err = ParseError("boom", line=7)
        assert err.line == 7
        assert "line 7" in str(err)
        assert ParseError("no line").line is None

    def test_budget_exhausted_hint(self):
        err = BudgetExhausted(42)
        assert err.remaining_hint == 42
        assert "42" in str(err)
        assert isinstance(err, AnalysisError)


class TestPrinterEdgeCases:
    def test_empty_program(self):
        from repro.ir.builder import ProgramBuilder
        from repro.ir.printer import program_to_source

        src = program_to_source(ProgramBuilder().build())
        assert src.strip() == ""

    def test_library_and_extends_preserved(self):
        from repro.ir import parse_program
        from repro.ir.printer import program_to_source

        p = parse_program(
            "library class L { }\nclass A extends L { method m() { } }"
        )
        src = program_to_source(p)
        assert "library class L" in src
        assert "class A extends L" in src
        reparsed = parse_program(src)
        assert not reparsed.classes["L"].is_app
        assert reparsed.classes["A"].superclass == "L"

    def test_globals_emitted_first(self):
        from repro.ir import parse_program
        from repro.ir.printer import program_to_source

        p = parse_program("global G: Object\nclass A { }")
        src = program_to_source(p)
        assert src.splitlines()[0] == "global G: Object"

    def test_static_call_printed(self):
        from repro.ir import parse_program
        from repro.ir.printer import program_to_source

        p = parse_program(
            """
            class U { static method f(x: Object): Object { return x } }
            class M { static method main() {
                var a: Object \n var b: Object
                a = new Object \n b = U::f(a)
            } }
            """
        )
        src = program_to_source(p)
        assert "b = U::f(a)" in src
        parse_program(src)  # round-trips


class TestNodeEdgeRecords:
    def test_node_info_predicates(self, fig2):
        b, n = fig2
        info_var = b.pag.info(n["v1"])
        info_obj = b.pag.info(n["o_vec1"])
        assert info_var.is_variable and not info_obj.is_variable

    def test_edge_str_variants(self):
        from repro.pag.edges import Edge, EdgeKind

        assert "param(3)" in str(Edge(EdgeKind.PARAM, 1, 2, 3))
        assert "assign" in str(Edge(EdgeKind.ASSIGN, 1, 2))

    def test_finished_jump_fields(self):
        from repro.pag.extended import FinishedJump, UnfinishedJump

        fj = FinishedJump(4, (1, 2), 99)
        assert fj.target == 4 and fj.target_ctx == (1, 2) and fj.steps == 99
        assert UnfinishedJump(7).steps == 7
