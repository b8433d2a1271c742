"""Unit tests for query scheduling (Section III-C), including the
Fig. 5 worked example's ordering."""

import pytest

from repro.api import load_benchmark, suite_names
from repro.core import (
    Query,
    SchedulePlan,
    connection_distances,
    schedule_queries,
)
from repro.core.scheduling import (
    MERGED_COMPONENT,
    QueryGroup,
    balance_groups,
    group_queries,
)
from repro.errors import SchedulingError
from repro.ir.types import TypeTable
from repro.obs import MetricsRecorder
from repro.pag import PAG
from repro.runtime import ParallelCFL, RuntimeConfig


def chain(pag, names):
    """Build an assign chain: names[0] <- names[1] <- ... (value flow
    right-to-left); returns the node ids in order."""
    ids = [pag.add_local(n) for n in names]
    for dst, src in zip(ids, ids[1:]):
        pag.add_assign_edge(dst, src)
    return ids


def grouped(pag, queries, types=None):
    """The grouping stage alone: one group per component, no split or
    merge."""
    return group_queries(SchedulePlan(pag, types), queries)


class TestConnectionDistances:
    def test_isolated_variable(self):
        pag = PAG()
        v = pag.add_local("v")
        cd, comp = connection_distances(pag)
        assert cd[v] == 1
        assert comp[v] == v

    def test_chain_distances(self):
        pag = PAG()
        a, b, c = chain(pag, ["a", "b", "c"])
        cd, comp = connection_distances(pag)
        # one 3-node path contains them all
        assert cd[a] == cd[b] == cd[c] == 3
        assert comp[a] == comp[b] == comp[c]

    def test_branching_takes_longest(self):
        pag = PAG()
        # w feeds both a short branch (x) and a long branch (y1->y2->y)
        w = pag.add_local("w")
        x = pag.add_local("x")
        y1, y2, y = pag.add_local("y1"), pag.add_local("y2"), pag.add_local("y")
        pag.add_assign_edge(x, w)
        pag.add_assign_edge(y1, w)
        pag.add_assign_edge(y2, y1)
        pag.add_assign_edge(y, y2)
        cd, comp = connection_distances(pag)
        assert cd[x] == 2   # longest path through x is w -> x
        assert cd[y] == 4   # w -> y1 -> y2 -> y
        assert cd[x] < cd[y]
        assert comp[x] == comp[y]

    def test_cycle_modulo_recursion(self):
        pag = PAG()
        a, b = pag.add_local("a"), pag.add_local("b")
        tail = pag.add_local("t")
        pag.add_assign_edge(a, b)
        pag.add_assign_edge(b, a)
        pag.add_assign_edge(tail, a)
        cd, _ = connection_distances(pag)
        # The a/b cycle collapses to one condensation node: CD stays finite
        # and a == b.
        assert cd[a] == cd[b]
        # the longest path through a is {a,b} -> tail, same as through tail
        assert cd[tail] == cd[a] == 2

    def test_param_and_ret_edges_connect(self):
        pag = PAG()
        actual, formal = pag.add_local("actual"), pag.add_local("formal")
        res, retv = pag.add_local("res"), pag.add_local("ret")
        pag.add_param_edge(formal, actual, 0)
        pag.add_ret_edge(res, retv, 0)
        _, comp = connection_distances(pag)
        assert comp[actual] == comp[formal]
        assert comp[res] == comp[retv]
        assert comp[actual] != comp[res]

    def test_heap_edges_do_not_connect(self):
        # "Both ld and st edges are not included since there is no
        # [direct] reachability between l1 and l2" (Section III-C1).
        pag = PAG()
        x, p = pag.add_local("x"), pag.add_local("p")
        pag.add_load_edge(x, p, "f")
        _, comp = connection_distances(pag)
        assert comp[x] != comp[p]

    def test_global_and_library_edges_do_not_connect(self):
        # The relation is application-side and leaves out assign_g, so
        # globals and shared library methods do not weld groups.
        pag = PAG()
        a, b = pag.add_local("a"), pag.add_local("b")
        g = pag.add_global("G")
        lib = pag.add_local("lib", is_app=False)
        pag.add_gassign_edge(g, a)
        pag.add_gassign_edge(b, g)
        pag.add_param_edge(lib, a, 0)
        pag.add_assign_edge(b, lib)
        cd, comp = connection_distances(pag)
        assert len({comp[a], comp[b], comp[g], comp[lib]}) == 4
        assert cd[a] == cd[b] == 1


class TestFig5Ordering:
    """The likely order O3 (z, then x, then y) of Fig. 5(b)."""

    @pytest.fixture
    def fig5(self):
        pag = PAG()
        types = TypeTable()
        types.declare_class("Shallow")
        types.declare_class("Mid", fields={"s": "Shallow"})
        types.declare_class("Deep", fields={"m": "Mid"})

        # group A: w feeds x (short) and y (long) — like Fig. 5(a)
        w = pag.add_local("w", "Shallow")
        x = pag.add_local("x", "Shallow")
        y1 = pag.add_local("y1", "Shallow")
        y = pag.add_local("y", "Shallow")
        pag.add_assign_edge(x, w)
        pag.add_assign_edge(y1, w)
        pag.add_assign_edge(y, y1)
        # w = p.f — heap edge, does not join the groups
        p = pag.add_local("p", "Deep")
        pag.add_load_edge(w, p, "f")
        # group B: deep-typed z feeds p
        z = pag.add_local("z", "Deep")
        pag.add_assign_edge(p, z)
        return pag, types, {"x": x, "y": y, "z": z, "w": w, "p": p}

    def test_groups_and_order(self, fig5):
        pag, types, n = fig5
        queries = [Query(n["x"]), Query(n["y"]), Query(n["z"])]
        groups = grouped(pag, queries, types)
        assert len(groups) == 2
        # z's group first: Deep has the larger L hence the smaller DD.
        assert [q.var for q in groups[0].queries] == [n["z"]]
        # within the x/y group: x (smaller CD) before y.
        assert [q.var for q in groups[1].queries] == [n["x"], n["y"]]

    def test_dd_uses_whole_component(self, fig5):
        pag, types, n = fig5
        # Query only x and y; p (Deep, same component as nothing here)
        # does not affect their group, but the group DD is the min over
        # members — all Shallow here.
        groups = grouped(pag, [Query(n["x"]), Query(n["y"])], types)
        assert groups[0].dd == pytest.approx(1.0)


class TestSplitMerge:
    def make_components(self, sizes):
        """One assign-chain component per requested size."""
        pag = PAG()
        comps = []
        for ci, size in enumerate(sizes):
            ids = chain(pag, [f"v{ci}_{k}" for k in range(size)])
            comps.append(ids)
        return pag, comps

    def test_split_large_groups(self):
        pag, comps = self.make_components([6, 2])
        queries = [Query(v) for ids in comps for v in ids]
        groups = balance_groups(grouped(pag, queries), 2)
        assert all(len(g) <= 2 for g in groups)
        assert sum(len(g) for g in groups) == 8

    def test_merge_small_groups(self):
        pag, comps = self.make_components([1, 1, 1, 1])
        queries = [Query(ids[0]) for ids in comps]
        groups = balance_groups(grouped(pag, queries), 2)
        assert len(groups) == 2
        assert all(len(g) == 2 for g in groups)

    def test_merge_across_components_drops_stale_id(self):
        # Regression: a group absorbing another component's queries
        # used to keep the first component's id, silently mislabelling
        # half its members.  Cross-component merges must carry the
        # MERGED_COMPONENT sentinel instead.
        pag, comps = self.make_components([1, 1, 1, 1])
        queries = [Query(ids[0]) for ids in comps]
        groups = balance_groups(grouped(pag, queries), 2)
        assert len(groups) == 2
        assert all(g.component == MERGED_COMPONENT for g in groups)

    def test_same_component_merge_keeps_id(self):
        # Splitting one component then re-merging its pieces never
        # crosses a component boundary, so the real id survives.
        pag, comps = self.make_components([4])
        queries = [Query(v) for v in comps[0]]
        groups = schedule_queries(pag, queries, target_group_size=4)
        assert len(groups) == 1
        assert groups[0].component != MERGED_COMPONENT

    def test_default_target_is_mean(self):
        pag, comps = self.make_components([4, 2])
        queries = [Query(v) for ids in comps for v in ids]
        groups = schedule_queries(pag, queries)
        # mean group size = 3: the 4-group splits into 3+1, the 1 merges
        # into the 2-group.
        assert sum(len(g) for g in groups) == 6
        assert all(len(g) <= 4 for g in groups)

    def test_queries_never_lost_or_duplicated(self):
        pag, comps = self.make_components([5, 3, 1, 1])
        queries = [Query(v) for ids in comps for v in ids]
        groups = schedule_queries(pag, queries)
        seen = [q.var for g in groups for q in g.queries]
        assert sorted(seen) == sorted(q.var for q in queries)

    def test_empty_query_list(self):
        pag, _ = self.make_components([2])
        assert schedule_queries(pag, []) == []

    def test_rejects_object_queries(self):
        pag = PAG()
        o = pag.add_obj("o1")
        with pytest.raises(SchedulingError):
            schedule_queries(pag, [Query(o)])

    def test_schedule_is_grouping_then_balancing(self):
        pag, comps = self.make_components([5, 3, 1, 1])
        queries = [Query(v) for ids in comps for v in ids]
        for target in (None, 1, 2, 3, 8):
            staged = balance_groups(grouped(pag, queries), target)
            whole = schedule_queries(pag, queries, target_group_size=target)
            assert _shape(staged) == _shape(whole)
        assert balance_groups([], 2) == []

    def test_duplicate_query_vars_preserved(self):
        pag, comps = self.make_components([2])
        v = comps[0][0]
        queries = [Query(v), Query(v, ctx=(1,))]
        groups = schedule_queries(pag, queries)
        seen = [(q.var, q.ctx) for g in groups for q in g.queries]
        assert sorted(seen) == [(v, ()), (v, (1,))]


def _shape(groups):
    return [(g.queries, g.dd, g.component) for g in groups]


class TestSchedulePlan:
    """The whole-program half of scheduling, built once and reused."""

    @pytest.mark.parametrize("name", suite_names())
    def test_cached_plan_matches_a_fresh_one(self, name):
        build = load_benchmark(name)
        pag, types = build.pag, build.program.types
        plan = SchedulePlan(pag, types)
        locals_ = pag.app_locals()
        for n in (1, 17, len(locals_)):
            queries = [Query(v) for v in locals_[:n]]
            cached = schedule_queries(pag, queries, types, plan=plan)
            fresh = schedule_queries(pag, queries, types)
            assert _shape(cached) == _shape(fresh)

    def test_stamp_goes_stale_when_components_join(self):
        pag = PAG()
        a, b = chain(pag, ["a", "b"])
        c, d = chain(pag, ["c", "d"])
        rec = MetricsRecorder()
        plan = SchedulePlan(pag).refresh(rec)
        assert plan.fresh
        assert plan.component_of[a] != plan.component_of[c]
        assert plan.cd[a] == plan.cd[d] == 2

        pag.add_assign_edge(b, c)  # a <- b <- c <- d: one component
        assert not plan.fresh
        schedule_queries(pag, [Query(a)], plan=plan, recorder=rec)
        assert plan.fresh
        assert plan.component_of[a] == plan.component_of[d]
        assert plan.cd[a] == plan.cd[d] == 4
        assert plan.cd == connection_distances(pag)[0]
        assert rec.snapshot()["sched.plan_builds"] == 2

    def test_node_add_moves_the_stamp(self):
        pag = PAG()
        chain(pag, ["a", "b"])
        plan = SchedulePlan(pag).refresh()
        v = pag.add_local("v")
        assert not plan.fresh
        groups = schedule_queries(pag, [Query(v)], plan=plan)
        assert [q.var for g in groups for q in g.queries] == [v]

    def test_plan_for_another_pag_or_relation_is_rejected(self):
        # The relation is fixed; a plan is bound to its PAG and its
        # type table.
        pag, other = PAG(), PAG()
        v = pag.add_local("v")
        other.add_local("v")
        with pytest.raises(SchedulingError, match="different"):
            schedule_queries(pag, [Query(v)], plan=SchedulePlan(other))
        with pytest.raises(SchedulingError, match="different"):
            schedule_queries(pag, [Query(v)], TypeTable(),
                             plan=SchedulePlan(pag))

    def test_one_build_per_persistent_runner(self):
        build = load_benchmark("_200_check")
        rec = MetricsRecorder()
        runner = ParallelCFL(
            build, runtime=RuntimeConfig(mode="DQ", backend="sim"),
            recorder=rec,
        )
        assert "sched.plan_builds" not in rec.snapshot()  # lazy: no boot cost
        locals_ = build.pag.app_locals()
        for i in range(50):
            batch = runner.run([Query(locals_[(7 * i) % len(locals_)])])
            assert batch.metrics["sched.runs"] == 1
        snap = rec.snapshot()
        assert snap["sched.runs"] == 50
        assert snap["sched.plan_builds"] == 1

    def test_one_shot_schedule_builds_its_own_plan(self):
        pag = PAG()
        a, _ = chain(pag, ["a", "b"])
        rec = MetricsRecorder()
        schedule_queries(pag, [Query(a)], recorder=rec)
        schedule_queries(pag, [Query(a)], recorder=rec)
        assert rec.snapshot()["sched.plan_builds"] == 2
