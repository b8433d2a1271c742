"""Declarative grammar tests: the registry, certification semantics,
and the grammar plumbing through engine / jump maps / tracing."""

import dataclasses

import pytest

from repro.core.cfl import bar
from repro.core.context import EMPTY_CTX
from repro.core.engine import CFLEngine, EngineConfig
from repro.core.grammar import (
    DEFAULT_GRAMMAR,
    CFLGrammar,
    ESCAPE,
    FLOWSTO,
    TAINT,
    get_grammar,
    grammar_ids,
    register_grammar,
)
from repro.core.jumpmap import JumpMap, LayeredJumpMap
from repro.core.tracing import TracingEngine
from repro.errors import AnalysisError


class TestRegistry:
    def test_builtin_grammars_registered(self):
        assert grammar_ids() == ["flowsto", "taint", "escape"]
        assert get_grammar("flowsto") is FLOWSTO
        assert get_grammar("taint") is TAINT
        assert get_grammar("escape") is ESCAPE
        assert DEFAULT_GRAMMAR == "flowsto"

    def test_unknown_grammar_raises(self):
        with pytest.raises(AnalysisError, match="unknown grammar"):
            get_grammar("points-to-but-wrong")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(AnalysisError, match="duplicate"):
            register_grammar(
                dataclasses.replace(FLOWSTO, description="impostor")
            )

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
        bad = ["new", "param:0", "ret:1"]
        assert not FLOWSTO.certify(bad, [])
        assert FLOWSTO.certify(bad, [], skip_context_condition=True)

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
        with pytest.raises(AnalysisError, match="unknown grammar"):
            EngineConfig(grammar="flowto")

    def test_engine_refuses_unimplemented_traversal(self, fig2):
        b, _ = fig2
        exotic = dataclasses.replace(
            FLOWSTO, name="graph-reach-test", traversal="dyck"
        )
        register_grammar(exotic)
        try:
            with pytest.raises(AnalysisError, match="traversal"):
                CFLEngine(b.pag, EngineConfig(grammar="graph-reach-test"))
        finally:
            from repro.core import grammar as _g

            del _g._REGISTRY["graph-reach-test"]

    def test_taint_grammar_shares_flowsto_traversal(self, fig2):
        # Every built-in grammar rides the same sweeps: answers match.
        b, n = fig2
        base = CFLEngine(b.pag, EngineConfig()).points_to(n["s1"])
        taint = CFLEngine(
            b.pag, EngineConfig(grammar="taint")
        ).points_to(n["s1"])
        assert base.points_to == taint.points_to

    def test_engine_rejects_mismatched_jumpmap(self, fig2):
        b, _ = fig2
        with pytest.raises(AnalysisError, match="unsound"):
            CFLEngine(
                b.pag, EngineConfig(grammar="taint"), jumps=JumpMap()
            )
        # Matching label is accepted.
        CFLEngine(
            b.pag, EngineConfig(grammar="taint"), jumps=JumpMap("taint")
        )

    def test_layered_jumpmap_inherits_grammar(self):
        layered = LayeredJumpMap(JumpMap("escape"))
        assert layered.grammar == "escape"
        assert layered.overlay.grammar == "escape"

    def test_witness_carries_engine_grammar(self, fig2):
        b, n = fig2
        eng = TracingEngine(b.pag, EngineConfig(grammar="taint"))
        res = eng.points_to(n["s1"])
        obj, obj_ctx = sorted(res.points_to)[0]
        w = eng.explain(n["s1"], EMPTY_CTX, obj, obj_ctx)
        assert w.grammar == "taint"
        # flowsTo strings are not taint derivations: certification under
        # the witness's own grammar refuses, under flowsto it accepts.
        assert not w.certify()
        assert w.certify(grammar="flowsto")


class TestGrammarValue:
    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            FLOWSTO.name = "other"

    def test_terminal_templates(self):
        from repro.pag.graph import EdgeKind

        assert FLOWSTO.terminal(EdgeKind.NEW, "") == "new"
        assert FLOWSTO.terminal(EdgeKind.LOAD, "f") == "ld:f"
        assert FLOWSTO.terminal(EdgeKind.STORE, "f", barred=True) == bar("st:f")
