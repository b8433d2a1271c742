"""Tests for the data-sharing scheme (Algorithm 2 / Section III-B)."""

from repro.core import CFLEngine, EngineConfig, JumpMap, Query
from repro.core.engine import POINTS_TO
from repro.pag.extended import FinishedJump


def sharing_engine(pag, tau_f=0, tau_u=0, budget=75_000, **kw):
    cfg = EngineConfig(budget=budget, tau_f=tau_f, tau_u=tau_u, **kw)
    return CFLEngine(pag, cfg, jumps=JumpMap())


class TestShortcutRecording:
    def test_jumps_recorded_for_heap_rounds(self, fig2):
        b, n = fig2
        eng = sharing_engine(b.pag)
        eng.points_to(n["s1"])
        assert eng.jumps.n_jumps > 0
        assert eng.jumps.n_finished_edges > 0

    def test_no_jumps_without_heap_access(self, fig2):
        b, n = fig2
        eng = sharing_engine(b.pag)
        eng.points_to(n["v1"])  # v1 = new Vector — no field traffic
        assert eng.jumps.n_jumps == 0

    def test_tau_f_suppresses_cheap_rounds(self, fig2):
        b, n = fig2
        eng = sharing_engine(b.pag, tau_f=10**9)
        eng.points_to(n["s1"])
        assert eng.jumps.n_finished_edges == 0

    def test_results_identical_with_sharing(self, fig2):
        b, n = fig2
        base = CFLEngine(b.pag)
        shared = sharing_engine(b.pag)
        queries = [Query(v) for v in b.pag.app_locals()]
        for query in queries:
            expect = base.run_query(query)
            got = shared.run_query(query)
            assert got.points_to == expect.points_to, b.pag.name(query.var)
            assert got.exhausted == expect.exhausted

    def test_second_query_takes_shortcuts(self, fig2):
        b, n = fig2
        eng = sharing_engine(b.pag)
        first = eng.points_to(n["s1"])
        second = eng.points_to(n["s1"])
        assert second.points_to == first.points_to
        assert second.costs.jmp_taken > 0
        assert second.costs.saved > 0
        # Actual traversal work shrinks even though charged steps match
        # the budget semantics.
        assert second.costs.work < first.costs.work

    def test_sibling_query_benefits(self, fig2):
        b, n = fig2
        eng = sharing_engine(b.pag)
        eng.points_to(n["s1"])
        res = eng.points_to(n["s2"])
        # s2's traversal reuses alias rounds shared with s1 (e.g. at
        # r_get/t_get within matching contexts) — the jump map was
        # consulted at least once.
        assert res.costs.jmp_lookups > 0

    def test_saved_steps_counted(self, fig2):
        b, n = fig2
        eng = sharing_engine(b.pag)
        eng.points_to(n["s1"])
        res = eng.points_to(n["s1"])
        assert res.costs.saved > 0
        assert res.costs.steps >= res.costs.work


class TestUnfinishedJumps:
    def test_unfinished_recorded_on_exhaustion(self, fig2):
        b, n = fig2
        eng = sharing_engine(b.pag, budget=10)
        res = eng.points_to(n["s1"])
        assert res.exhausted
        assert eng.jumps.n_unfinished_edges > 0

    def test_tau_u_suppresses_unfinished(self, fig2):
        b, n = fig2
        eng = sharing_engine(b.pag, budget=10, tau_u=10**9)
        eng.points_to(n["s1"])
        assert eng.jumps.n_unfinished_edges == 0

    def test_early_termination_on_unfinished_marker(self, fig2):
        b, n = fig2
        eng = sharing_engine(b.pag, budget=10)
        eng.points_to(n["s1"])  # plants unfinished markers
        res = eng.points_to(n["s1"])
        assert res.exhausted
        assert res.costs.early_terminations >= 1
        # ET keeps the re-run cheaper than the original failing attempt.
        assert res.costs.work <= eng.cfg.budget

    def test_finished_insert_clears_unfinished(self, fig2):
        b, n = fig2
        # Fail with a small budget, then succeed with a big one: the
        # completed rounds must supersede stale unfinished markers.
        jumps = JumpMap()
        small = CFLEngine(b.pag, EngineConfig(budget=10, tau_f=0, tau_u=0), jumps=jumps)
        small.points_to(n["s1"])
        unf_before = jumps.n_unfinished_edges
        big = CFLEngine(b.pag, EngineConfig(budget=75_000, tau_f=0, tau_u=0), jumps=jumps)
        res = big.points_to(n["s1"])
        assert not res.exhausted
        assert res.objects == {n["o_n1"]}
        assert jumps.n_unfinished_edges <= unf_before


class TestJumpMapSemantics:
    def test_first_writer_wins_unfinished(self):
        m = JumpMap()
        key = (1, (), POINTS_TO)
        assert m.insert_unfinished(key, 100)
        assert not m.insert_unfinished(key, 200)
        assert m.unfinished(key) == 100
        # the same two writes replayed: exactly one is rejected
        log = [("unf", key, 100), ("unf", key, 200)]
        assert JumpMap().replay(log) == [("unf", key, 100)]

    def test_first_writer_wins_finished(self):
        m = JumpMap()
        key = (1, (), POINTS_TO)
        edges = (FinishedJump(2, (), 50),)
        assert m.insert_finished(key, edges)
        assert not m.insert_finished(key, (FinishedJump(3, (), 60),))
        assert m.finished(key) == edges

    def test_finished_clears_unfinished(self):
        m = JumpMap()
        key = (1, (), POINTS_TO)
        m.insert_unfinished(key, 100)
        m.insert_finished(key, (FinishedJump(2, (), 50),))
        assert m.unfinished(key) is None
        assert m.n_unfinished_edges == 0

    def test_unfinished_rejected_after_finished(self):
        m = JumpMap()
        key = (1, (), POINTS_TO)
        m.insert_finished(key, (FinishedJump(2, (), 50),))
        assert not m.insert_unfinished(key, 100)

    def test_n_jumps_counts_edges(self):
        m = JumpMap()
        m.insert_finished((1, (), POINTS_TO), (FinishedJump(2, (), 5), FinishedJump(3, (), 9)))
        m.insert_unfinished((4, (), POINTS_TO), 77)
        assert m.n_jumps == 3
        assert m.n_finished_edges == 2
        assert m.n_unfinished_edges == 1

    def test_merge_from(self):
        a, b = JumpMap(), JumpMap()
        b.insert_finished((1, (), POINTS_TO), (FinishedJump(2, (), 5),))
        b.insert_unfinished((3, (), POINTS_TO), 10)
        assert a.replay(b.export_log()) == b.export_log()
        assert a.n_jumps == 2
        # re-merge is fully rejected
        assert a.replay(b.export_log()) == []


class TestProvisionalRounds:
    # After an edit adds a flow between methods, a round can read a sweep
    # left provisional earlier in the same pass; that read is partial, so
    # the round is not published and a later query takes no incomplete
    # shortcut.
    def test_round_after_a_cross_method_edit_publishes_the_full_answer(self):
        from repro.benchgen import SynthesisParams, synthesize_program
        from repro.pag import build_pag

        params = SynthesisParams(
            seed=7137, n_data_classes=1, containment_depth=2, n_boxes=1,
            n_vecs=0, n_box_subclasses=0, n_util_chains=0,
            wrapper_chain_len=1, n_app_classes=1, methods_per_app_class=1,
            actions_per_method=1, n_globals=0, n_hub_containers=0,
            read_fanout=0,
        )
        pag = build_pag(synthesize_program(params)).pag
        a = pag.node_id("a@App0.help0")
        v1 = pag.node_id("v1@App0.help0")
        caller = pag.node_id("v1@App0.run0")
        pag.add_assign_edge(v1, a)
        pag.add_load_edge(a, caller, "f0")  # the flow between methods
        unlimited = 10**9
        shared = sharing_engine(pag, budget=unlimited)
        shared.points_to(a)  # publishes the round at (a, (0,))
        want = CFLEngine(pag, EngineConfig(budget=unlimited)).points_to(caller)
        assert shared.points_to(caller).points_to == want.points_to
