"""Declarative grammar tests: the lookup table, certification
semantics, the PAG terminals, and witnesses certifying under flowsTo."""

import dataclasses

import pytest

from repro.core.cfl import bar
from repro.core.context import EMPTY_CTX
from repro.core.engine import EngineConfig
from repro.core.grammar import (
    ESCAPE,
    FLOWSTO,
    TAINT,
    get_grammar,
    terminal,
)
from repro.core.tracing import TracingEngine
from repro.errors import AnalysisError


class TestRegistry:
    def test_builtin_grammars_registered(self):
        assert get_grammar("flowsto") is FLOWSTO
        assert get_grammar("taint") is TAINT
        assert get_grammar("escape") is ESCAPE

    def test_unknown_grammar_raises(self):
        with pytest.raises(AnalysisError, match="unknown grammar"):
            get_grammar("points-to-but-wrong")

    def test_cfg_is_cached_per_field_alphabet(self):
        assert FLOWSTO.cfg(("f",)) is FLOWSTO.cfg(("f",))
        assert FLOWSTO.cfg(("f",)) is not FLOWSTO.cfg(("g",))


class TestCertification:
    def test_flowsto_accepts_field_balanced(self):
        assert FLOWSTO.certify(["new", "st:f", bar("new"), "new", "ld:f"],
                               ["f"])

    def test_flowsto_rejects_mismatched_fields(self):
        assert not FLOWSTO.certify(["new", "st:f", bar("new"), "new", "ld:g"],
                                   ["f", "g"])

    def test_call_terminals_project_onto_assign(self):
        # param:i/ret:i are interprocedural assignments to the CFL; the
        # realisability side condition handles the call-string part.
        assert FLOWSTO.certify(["new", "param:0", "assign", "ret:0"], [])

    def test_unrealizable_call_string_rejected(self):
        # Entering via call site 0 but returning through site 1 is
        # CFL-member (both project to assign) but violates R_CS.
        assert FLOWSTO.certify(["new", "param:0", "ret:0"], [])
        assert not FLOWSTO.certify(["new", "param:0", "ret:1"], [])

    def test_global_crossing_skips_realizability(self):
        # A reset (global read/write) clears the call stack; the
        # realisability condition is not applied across it.
        assert FLOWSTO.certify(["new", "param:0", "reset", "ret:1"], [])

    def test_skip_context_condition_flag(self):
        # The grammar's context_condition flag is the one switch that
        # skips R_CS (escape turns it off).
        bad = ["new", "param:0", "ret:1"]
        assert not FLOWSTO.certify(bad, [])
        unchecked = dataclasses.replace(FLOWSTO, context_condition=False)
        assert unchecked.certify(bad, [])

    def test_taint_is_spliced_alias(self):
        # source <-flowsToBar- obj -flowsTo-> sink, reversed+barred on
        # the source half.
        src = ["new", "assign"]
        snk = ["new", "assign", "assign"]
        spliced = [bar(t) for t in reversed(src)] + snk
        assert TAINT.certify(spliced, [])
        # A bare flowsTo string is NOT a taint derivation.
        assert not TAINT.certify(["new", "assign"], [])

    def test_escape_accepts_heap_transitive_chain(self):
        # data flowsTo-> (store payload) <-flowsToBar- node escapes
        chain = ["new", "st:payload", bar("new"), "new", "param:0"]
        assert ESCAPE.certify(chain, ["payload"])
        assert ESCAPE.certify(["new", "reset"], [])  # direct to a global
        # escape declares no context condition: mismatched call strings
        # in a spliced chain do not fail certification.
        assert not ESCAPE.context_condition
        assert ESCAPE.certify(["new", "param:0", "ret:1"], [])

    def test_recognizes_uses_start_symbol(self):
        assert TAINT.start == "taint"
        assert ESCAPE.start == "escapes"
        assert FLOWSTO.recognizes(["new"], ())
        assert not TAINT.recognizes(["new"], ())


class TestEnginePlumbing:
    def test_typoed_grammar_fails_at_config_construction(self):
        # The engine runs one grammar: any grammar setting, typo'd or
        # not, is an unknown field of the config.
        with pytest.raises(TypeError, match="grammar"):
            EngineConfig(grammar="flowto")

    def test_witness_certifies_under_flowsto(self, fig2):
        b, n = fig2
        eng = TracingEngine(b.pag)
        res = eng.points_to(n["s1"])
        obj, obj_ctx = sorted(res.points_to)[0]
        w = eng.explain(n["s1"], EMPTY_CTX, obj, obj_ctx)
        # Witnesses certify under flowsTo; a flowsTo string is not a
        # taint derivation, so the taint grammar refuses the same one.
        fields = FLOWSTO.fields_of(b.pag)
        assert w.certify(fields)
        assert not TAINT.certify(w.terminals(), fields)


class TestGrammarValue:
    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            FLOWSTO.name = "other"

    def test_terminal_templates(self):
        from repro.pag.graph import EdgeKind

        assert terminal(EdgeKind.NEW, "") == "new"
        assert terminal(EdgeKind.LOAD, "f") == "ld:f"
        assert terminal(EdgeKind.STORE, "f", barred=True) == bar("st:f")
