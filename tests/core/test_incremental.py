"""Tests for incremental (add-only) analysis sessions."""

import pytest

from repro.core import CFLEngine, EngineConfig, Query
from repro.core.incremental import IncrementalAnalysis
from repro.obs import MetricsRecorder
from repro.pag import PAG


def fresh_answer(pag, var, budget=75_000):
    return CFLEngine(pag, EngineConfig(budget=budget)).points_to(var).points_to


class TestIncrementalEdits:
    def test_new_edge_extends_answers(self):
        pag = PAG()
        a = pag.add_local("a")
        o1 = pag.add_obj("o1")
        pag.add_new_edge(a, o1)
        inc = IncrementalAnalysis(pag)
        assert {o for o, _ in inc.points_to(a).points_to} == {o1}
        o2 = inc.add_obj("o2")
        inc.add_new_edge(a, o2)
        assert {o for o, _ in inc.points_to(a).points_to} == {o1, o2}

    def test_post_edit_answers_match_scratch(self, fig2):
        b, n = fig2
        inc = IncrementalAnalysis(b.pag)
        # warm the session
        for var in b.pag.app_locals():
            inc.points_to(var)
        # edit: a new alias route — v3 copies v1 and reads it
        v3 = inc.add_local("v3@Main.main$new")
        out = inc.add_local("out@Main.main$new")
        inc.add_assign_edge(v3, n["v1"])
        inc.add_param_edge(n["this_get"], v3, 99)
        inc.add_ret_edge(out, n["ret_get"], 99)
        for var in list(b.pag.app_locals()) + [v3, out]:
            got = inc.points_to(var).points_to
            want = fresh_answer(b.pag, var)
            assert got == want, b.pag.name(var)

    def test_store_edit_invalidates_finished(self, fig2):
        b, n = fig2
        inc = IncrementalAnalysis(
            b.pag, EngineConfig(tau_f=0, tau_u=0)
        )
        inc.points_to(n["s1"])
        assert inc.jumps.n_finished_edges > 0
        # new store into the vector's element array from a new source
        extra = inc.add_local("extra@Main.main$new")
        o_new = inc.add_obj("o_extra")
        inc.add_new_edge(extra, o_new)
        inc.add_store_edge(n["t_add"], "arr", extra)
        assert inc.jumps.n_finished_edges == 0  # invalidated
        assert inc.n_invalidated > 0
        # and the new fact is found
        got = {o for o, _ in inc.points_to(n["s1"]).points_to}
        assert o_new in got
        assert got == {o for o, _ in fresh_answer(b.pag, n["s1"])}

    def test_unfinished_markers_survive_edits(self, fig2):
        b, n = fig2
        inc = IncrementalAnalysis(b.pag, EngineConfig(budget=10, tau_f=0, tau_u=0))
        inc.points_to(n["s1"])  # exhausts, plants markers
        markers_before = inc.n_reusable_markers
        assert markers_before > 0
        v = inc.add_local("fresh@x")
        inc.add_assign_edge(v, n["v1"])
        assert inc.n_reusable_markers == markers_before

    def test_node_additions_do_not_invalidate(self, fig2):
        b, n = fig2
        inc = IncrementalAnalysis(b.pag, EngineConfig(tau_f=0, tau_u=0))
        inc.points_to(n["s1"])
        fin = inc.jumps.n_finished_edges
        inc.add_local("island@y")
        inc.add_obj("island_obj")
        # a fresh node is unconnected: node-only edits invalidate
        # nothing
        assert inc.jumps.n_finished_edges == fin

    def test_edge_edits_are_counted(self):
        # the edge adds count, the node add not
        pag = PAG()
        a, b_ = pag.add_local("a"), pag.add_local("b")
        rec = MetricsRecorder()
        inc = IncrementalAnalysis(pag, recorder=rec)
        inc.add_assign_edge(a, b_)
        o = inc.add_obj("o")
        inc.add_new_edge(b_, o)
        assert rec.snapshot()["inc.edits"] == 2

    def test_gassign_and_load_edits(self):
        pag = PAG()
        g = pag.add_global("G")
        a = pag.add_local("a")
        x = pag.add_local("x")
        p = pag.add_local("p")
        rec = MetricsRecorder()
        inc = IncrementalAnalysis(pag, recorder=rec)
        o = inc.add_obj("o")
        inc.add_new_edge(a, o)
        inc.add_gassign_edge(g, a)
        inc.add_load_edge(x, p, "f")
        assert rec.snapshot()["inc.edits"] == 3
        assert {obj for obj, _ in inc.points_to(g).points_to} == {o}

    def test_selective_invalidation_spares_untouched_island(self):
        # Two disjoint heap islands; an edit in one must not drop the
        # other's finished entries (the blanket-clear regression).
        pag = PAG()
        nodes = {}
        for tag in ("a", "b"):
            p = pag.add_local(f"p_{tag}@M.m")
            v = pag.add_local(f"v_{tag}@M.m")
            x = pag.add_local(f"x_{tag}@M.m")
            pag.add_new_edge(p, pag.add_obj(f"o_base_{tag}"))
            pag.add_new_edge(v, pag.add_obj(f"o_val_{tag}"))
            pag.add_store_edge(p, f"f_{tag}", v)
            pag.add_load_edge(x, p, f"f_{tag}")
            nodes[tag] = (p, v, x)
        rec = MetricsRecorder()
        inc = IncrementalAnalysis(
            pag, EngineConfig(tau_f=0, tau_u=0), recorder=rec
        )
        for tag in ("a", "b"):
            inc.points_to(nodes[tag][2])
        fin_before = inc.jumps.n_finished_edges
        assert fin_before > 0
        # edit island b: new value stored into its base object
        extra = inc.add_local("extra@M.m")
        o_new = inc.add_obj("o_extra")
        inc.add_new_edge(extra, o_new)
        inc.add_store_edge(nodes["b"][0], "f_b", extra)
        # island a's entries survived, island b's were dropped
        assert inc.last_edit_invalidated > 0
        assert inc.last_edit_survived > 0
        counts = rec.snapshot()
        assert counts["inc.entries_survived"] > 0
        assert counts["inc.entries_invalidated"] > 0
        # both islands still answer exactly like a from-scratch engine
        scratch = CFLEngine(pag, EngineConfig())
        for tag in ("a", "b"):
            x = nodes[tag][2]
            assert inc.points_to(x).points_to == \
                scratch.points_to(x).points_to, tag

    def test_cached_answers_are_reused(self, fig2):
        b, n = fig2
        rec = MetricsRecorder()
        inc = IncrementalAnalysis(b.pag, recorder=rec)
        first = inc.points_to(n["s1"])
        again = inc.points_to(n["s1"])
        assert again is first
        assert rec.snapshot()["inc.queries_reused"] == 1
        # an edit touching the answer's footprint requeues it
        extra = inc.add_local("extra@Main.main")
        inc.add_assign_edge(n["s1"], extra)
        assert inc.points_to(n["s1"]) is not first

    def test_batch_entries_invalidated_by_an_edit_on_a_visited_node(self):
        # x = p.f reads v through p's alias set.  A batch publishes that
        # round; then p = r makes r (whose .f holds w) an alias of p.
        # The assign touches no field, so only the batch entry's node
        # footprint (p) can invalidate it.
        pag = PAG()
        p, v, x, r, w = (pag.add_local(f"{n}@M.m") for n in "pvxrw")
        pag.add_new_edge(p, pag.add_obj("o_p"))
        pag.add_new_edge(v, pag.add_obj("o_v"))
        pag.add_new_edge(r, pag.add_obj("o_r"))
        pag.add_new_edge(w, pag.add_obj("o_w"))
        pag.add_store_edge(p, "f", v)
        pag.add_store_edge(r, "f", w)
        pag.add_load_edge(x, p, "f")
        inc = IncrementalAnalysis(pag, EngineConfig(tau_f=0, tau_u=0))
        inc.run_units([[Query(x)]])
        assert inc.jumps.n_finished_edges > 0
        inc.add_assign_edge(p, r)
        assert inc.last_edit_invalidated > 0
        batch = inc.run_units([[Query(x)]])
        assert batch.executions[0].result.points_to == fresh_answer(pag, x)

    def test_flows_to_in_session(self):
        pag = PAG()
        a = pag.add_local("a")
        inc = IncrementalAnalysis(pag)
        o = inc.add_obj("o")
        inc.add_new_edge(a, o)
        reached = {v for v, _ in inc.flows_to(o).points_to}
        assert reached == {a}


class TestSessionConfiguration:
    def test_unsupported_backend_raises(self, fig2):
        # The session drives the sequential engine and takes no backend.
        b, _n = fig2
        with pytest.raises(TypeError, match="backend"):
            IncrementalAnalysis(b.pag, backend="mp")
