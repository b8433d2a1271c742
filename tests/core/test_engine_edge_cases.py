"""Engine edge cases: degenerate graphs, deep structures, and knob
interactions not covered by the main behavioural suites."""

import pytest

from repro.core import CFLEngine, EngineConfig, JumpMap, Query
from repro.core import engine as engine_module
from repro.errors import AnalysisError
from repro.ir import ProgramBuilder, parse_program
from repro.pag import PAG, build_pag


class TestDegenerateGraphs:
    def test_empty_pag(self):
        pag = PAG()
        v = pag.add_local("lonely")
        res = CFLEngine(pag).points_to(v)
        assert res.points_to == frozenset()
        assert not res.exhausted

    def test_unassigned_variable(self):
        pag = PAG()
        a, b = pag.add_local("a"), pag.add_local("b")
        pag.add_assign_edge(a, b)  # b never assigned
        assert CFLEngine(pag).points_to(a).points_to == frozenset()

    def test_assign_self_loop(self):
        pag = PAG()
        a = pag.add_local("a")
        o = pag.add_obj("o")
        pag.add_new_edge(a, o)
        pag.add_assign_edge(a, a)
        res = CFLEngine(pag).points_to(a)
        assert {obj for obj, _ in res.points_to} == {o}

    def test_mutual_assign_cycle_without_collapse(self):
        pag = PAG()
        a, b = pag.add_local("a"), pag.add_local("b")
        o = pag.add_obj("o")
        pag.add_new_edge(a, o)
        pag.add_assign_edge(a, b)
        pag.add_assign_edge(b, a)
        eng = CFLEngine(pag)
        assert {x for x, _ in eng.points_to(b).points_to} == {o}
        assert {x for x, _ in eng.flows_to(o).points_to} == {a, b}

    def test_store_load_self_cycle(self):
        # x = x.f; x.f = x — heap self-reference must terminate
        pag = PAG()
        x = pag.add_local("x")
        o = pag.add_obj("o")
        pag.add_new_edge(x, o)
        pag.add_load_edge(x, x, "f")
        pag.add_store_edge(x, "f", x)
        res = CFLEngine(pag).points_to(x)
        assert not res.exhausted
        assert {obj for obj, _ in res.points_to} == {o}

    def test_load_with_no_matching_store(self):
        pag = PAG()
        x, p = pag.add_local("x"), pag.add_local("p")
        o = pag.add_obj("o")
        pag.add_new_edge(p, o)
        pag.add_load_edge(x, p, "ghost")
        assert CFLEngine(pag).points_to(x).points_to == frozenset()

    def test_store_with_no_matching_load(self):
        pag = PAG()
        q, y = pag.add_local("q"), pag.add_local("y")
        o = pag.add_obj("o")
        pag.add_new_edge(y, o)
        pag.add_store_edge(q, "f", y)
        res = CFLEngine(pag).flows_to(o)
        assert {v for v, _ in res.points_to} == {y}


class TestDeepStructures:
    def test_long_assign_chain(self):
        pag = PAG()
        prev = pag.add_local("v0")
        o = pag.add_obj("o")
        pag.add_new_edge(prev, o)
        for i in range(1, 2000):
            cur = pag.add_local(f"v{i}")
            pag.add_assign_edge(cur, prev)
            prev = cur
        res = CFLEngine(pag, EngineConfig(budget=10**9)).points_to(prev)
        assert {obj for obj, _ in res.points_to} == {o}
        assert res.costs.work >= 2000

    def test_deep_call_string(self):
        # nested wrapper calls: context depth equals the chain length
        b = ProgramBuilder()
        cls = b.clazz("W")
        cls.method("w0", params=[("x", "Object")], returns="Object", static=True).ret("x")
        depth = 40
        for k in range(1, depth):
            (
                cls.method(f"w{k}", params=[("x", "Object")], returns="Object", static=True)
                .local("y", "Object")
                .call_static("W", f"w{k-1}", ["x"], result="y")
                .ret("y")
            )
        m = b.clazz("M").method("main", static=True)
        m.local("o", "Object").local("r", "Object")
        m.alloc("o", "Object")
        m.call_static("W", f"w{depth-1}", ["o"], result="r")
        build = build_pag(b.build())
        res = CFLEngine(build.pag, EngineConfig(budget=10**9)).points_to(
            build.var("r", "M.main")
        )
        assert len(res.objects) == 1
        assert not res.exhausted

    def test_nested_field_chain(self):
        # r = a.f.f.f ... through distinct holder objects
        b = ProgramBuilder()
        holder = b.clazz("H")
        holder.field("f", "Object")
        m = b.clazz("M").method("main", static=True)
        depth = 12
        m.local("leaf", "Object").alloc("leaf", "Object")
        prev_val = "leaf"
        for k in range(depth):
            m.local(f"h{k}", "H").alloc(f"h{k}", "H")
            m.store(f"h{k}", "f", prev_val)
            prev_val = f"h{k}"
        cur = prev_val
        for k in range(depth):
            m.local(f"r{k}", "H" if k < depth - 1 else "Object")
            m.load(f"r{k}", cur, "f")
            cur = f"r{k}"
        build = build_pag(b.build())
        res = CFLEngine(build.pag, EngineConfig(budget=10**9)).points_to(
            build.var(f"r{depth-1}", "M.main")
        )
        names = {build.pag.name(o) for o in res.objects}
        assert "o:M.main:0" in names  # the leaf object comes back out


class TestKnobInteractions:
    def test_match_mode_bypasses_jump_map(self, fig2):
        # field-based rounds return before consulting the map: no
        # entries should materialise
        b, n = fig2
        jumps = JumpMap()
        eng = CFLEngine(
            b.pag,
            EngineConfig(field_mode="match", tau_f=0, tau_u=0),
            jumps=jumps,
        )
        eng.points_to(n["s1"])
        assert jumps.n_jumps == 0

    def test_ci_with_sharing(self, fig2):
        b, n = fig2
        plain = CFLEngine(b.pag, EngineConfig(context_sensitive=False))
        shared = CFLEngine(
            b.pag,
            EngineConfig(context_sensitive=False, tau_f=0, tau_u=0),
            jumps=JumpMap(),
        )
        for var in b.pag.app_locals():
            assert shared.points_to(var).points_to == plain.points_to(var).points_to

    def test_zero_budget(self, fig2):
        b, n = fig2
        res = CFLEngine(b.pag, EngineConfig(budget=0)).points_to(n["s1"])
        assert res.exhausted
        assert res.points_to == frozenset()

    def test_query_with_nonempty_initial_context(self, fig2):
        b, n = fig2
        eng = CFLEngine(b.pag)
        # a bogus (unmatched) context constrains param exits: site 999
        # never matches, but partially-balanced exits through c=∅ are
        # impossible since c is never empty — expect a subset
        constrained = eng.points_to(n["this_add"], ctx=(999,))
        free = eng.points_to(n["this_add"])
        assert constrained.objects <= free.objects

    def test_global_query_normalises_context(self):
        build = build_pag(parse_program(
            """
            global G: Object
            class M { static method main() {
                var a: Object \n a = new Object \n G = a
            } }
            """
        ))
        eng = CFLEngine(build.pag)
        res = eng.points_to(build.var("G"), ctx=(5, 6))
        assert res.query.ctx == ()  # globals are context-insensitive
        assert len(res.objects) == 1

    def test_max_passes_guard(self, monkeypatch):
        # A self-referential heap round (x = x.f; x.f = x) forces the
        # chaotic iteration to re-run; with the guard at one pass the
        # engine must fail loudly rather than return silently partial
        # results.  (Fig. 2 itself converges in a single pass.)
        pag = PAG()
        x = pag.add_local("x")
        o = pag.add_obj("o")
        pag.add_new_edge(x, o)
        pag.add_load_edge(x, x, "f")
        pag.add_store_edge(x, "f", x)
        monkeypatch.setattr(engine_module, "MAX_PASSES", 1)
        eng = CFLEngine(pag, EngineConfig())
        with pytest.raises(AnalysisError):
            eng.points_to(x)

    def test_run_batch_order_preserved(self, fig2):
        b, n = fig2
        eng = CFLEngine(b.pag)
        queries = [Query(n["s2"]), Query(n["s1"])]
        results = eng.run_batch(queries)
        assert [r.query.var for r in results] == [n["s2"], n["s1"]]
