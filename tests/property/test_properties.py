"""Property-based tests (hypothesis) on randomly generated programs.

The random-program space is driven through the benchmark generator's
parameters, which guarantees well-formed (validated) programs across a
wide structural range: container traffic, nested hubs, wrapper chains,
virtual dispatch, globals, recursion-free call DAGs.

Core invariants:

* **Andersen equivalence** — context-insensitive demand CFL with an
  unlimited budget equals the whole-program Andersen solution exactly
  (the classic ``flowsTo``/inclusion equivalence);
* **context-sensitivity refines** — CS results ⊆ CI results;
* **sharing is transparent** — jump-map shortcuts never change
  answers;
* **budget monotonicity** — a completed budgeted query equals the
  unlimited answer; partial results are subsets;
* **scheduling partitions** — groups are an exact partition of the
  query batch;
* **one rule table** — the engine's sweeps visit exactly the closure
  of :mod:`repro.core.rules` from each traversal's start.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.andersen import AndersenSolver
from repro.benchgen import SynthesisParams, synthesize_program
from repro.core import CFLEngine, EngineConfig, JumpMap, Query, schedule_queries
from repro.pag import build_pag

UNLIMITED = 10**9


@st.composite
def small_params(draw):
    """Parameters for small but structurally diverse programs."""
    return SynthesisParams(
        seed=draw(st.integers(0, 10_000)),
        n_data_classes=draw(st.integers(1, 3)),
        containment_depth=draw(st.integers(1, 3)),
        n_boxes=draw(st.integers(1, 2)),
        n_vecs=draw(st.integers(0, 1)),
        n_box_subclasses=draw(st.integers(0, 2)),
        n_util_chains=draw(st.integers(0, 1)),
        wrapper_chain_len=draw(st.integers(1, 3)),
        n_app_classes=draw(st.integers(1, 2)),
        methods_per_app_class=draw(st.integers(1, 2)),
        actions_per_method=draw(st.integers(1, 6)),
        n_globals=draw(st.integers(0, 2)),
        n_hub_containers=draw(st.integers(0, 1)),
        read_fanout=draw(st.integers(0, 2)),
    )


def build_from(params):
    return build_pag(synthesize_program(params))


COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestAndersenEquivalence:
    @settings(max_examples=25, **COMMON)
    @given(small_params())
    def test_ci_cfl_equals_andersen(self, params):
        build = build_from(params)
        oracle = AndersenSolver(build.pag).solve()
        engine = CFLEngine(
            build.pag, EngineConfig(context_sensitive=False, budget=UNLIMITED)
        )
        for var in build.pag.app_locals():
            got = engine.points_to(var)
            assert not got.exhausted
            assert got.objects == oracle.points_to(var), build.pag.name(var)

    @settings(max_examples=25, **COMMON)
    @given(small_params())
    def test_cs_refines_ci(self, params):
        build = build_from(params)
        cs = CFLEngine(build.pag, EngineConfig(budget=UNLIMITED))
        ci = CFLEngine(
            build.pag, EngineConfig(context_sensitive=False, budget=UNLIMITED)
        )
        for var in build.pag.app_locals():
            assert cs.points_to(var).objects <= ci.points_to(var).objects

    @settings(max_examples=15, **COMMON)
    @given(small_params())
    def test_cs_sound_wrt_andersen(self, params):
        build = build_from(params)
        oracle = AndersenSolver(build.pag).solve()
        cs = CFLEngine(build.pag, EngineConfig(budget=UNLIMITED))
        for var in build.pag.app_locals():
            assert cs.points_to(var).objects <= oracle.points_to(var)


class TestSharingTransparency:
    @settings(max_examples=20, **COMMON)
    @given(small_params())
    def test_sharing_never_changes_answers(self, params):
        build = build_from(params)
        plain = CFLEngine(build.pag, EngineConfig(budget=UNLIMITED))
        shared = CFLEngine(
            build.pag,
            EngineConfig(budget=UNLIMITED, tau_f=0, tau_u=0),
            jumps=JumpMap(),
        )
        for var in build.pag.app_locals():
            assert shared.points_to(var).points_to == plain.points_to(var).points_to

    @settings(max_examples=10, **COMMON)
    @given(small_params(), st.integers(2, 60))
    def test_sharing_transparent_under_budget_for_completed(self, params, budget):
        # A query that completes within budget in the sharing engine
        # returns exactly the unlimited answer.
        build = build_from(params)
        unlimited = CFLEngine(build.pag, EngineConfig(budget=UNLIMITED))
        shared = CFLEngine(
            build.pag,
            EngineConfig(budget=budget, tau_f=0, tau_u=0),
            jumps=JumpMap(),
        )
        for var in build.pag.app_locals():
            got = shared.points_to(var)
            if not got.exhausted:
                assert got.objects == unlimited.points_to(var).objects


class TestBudget:
    @settings(max_examples=20, **COMMON)
    @given(small_params(), st.integers(1, 100))
    def test_budget_results_are_subsets(self, params, budget):
        build = build_from(params)
        unlimited = CFLEngine(build.pag, EngineConfig(budget=UNLIMITED))
        limited = CFLEngine(build.pag, EngineConfig(budget=budget))
        for var in build.pag.app_locals()[:20]:
            full = unlimited.points_to(var)
            part = limited.points_to(var)
            assert part.points_to <= full.points_to
            if not part.exhausted:
                assert part.points_to == full.points_to

    @settings(max_examples=20, **COMMON)
    @given(small_params(), st.integers(1, 100))
    def test_steps_respect_budget_semantics(self, params, budget):
        build = build_from(params)
        engine = CFLEngine(build.pag, EngineConfig(budget=budget))
        for var in build.pag.app_locals()[:20]:
            res = engine.points_to(var)
            if res.exhausted:
                assert res.costs.steps >= budget
            assert res.costs.work <= res.costs.steps


class TestScheduling:
    @settings(max_examples=25, **COMMON)
    @given(small_params(), st.one_of(st.none(), st.integers(1, 8)))
    def test_groups_partition_queries(self, params, target):
        build = build_from(params)
        queries = [Query(v) for v in build.pag.app_locals()]
        groups = schedule_queries(
            build.pag, queries, build.program.types, target_group_size=target
        )
        flat = [(q.var, q.ctx) for g in groups for q in g.queries]
        assert sorted(flat) == sorted((q.var, q.ctx) for q in queries)

    @settings(max_examples=25, **COMMON)
    @given(small_params())
    def test_group_dd_sorted_and_cd_ordered(self, params):
        from repro.core import SchedulePlan
        from repro.core.scheduling import connection_distances, group_queries

        build = build_from(params)
        queries = [Query(v) for v in build.pag.app_locals()]
        plan = SchedulePlan(build.pag, build.program.types)
        groups = group_queries(plan, queries)
        dds = [g.dd for g in groups]
        assert dds == sorted(dds)
        cd, _ = connection_distances(build.pag)
        for g in groups:
            cds = [cd[build.pag.rep(q.var)] for q in g.queries]
            assert cds == sorted(cds)


class TestRoundTrip:
    @settings(max_examples=25, **COMMON)
    @given(small_params())
    def test_print_parse_roundtrip(self, params):
        from repro.ir import parse_program
        from repro.ir.printer import program_to_source

        program = synthesize_program(params)
        source = program_to_source(program)
        reparsed = parse_program(source)
        assert reparsed.counts() == program.counts()
        a, b = build_pag(program), build_pag(reparsed)
        assert a.pag.n_nodes == b.pag.n_nodes
        assert a.pag.n_edges == b.pag.n_edges
        # identical points-to answers on identical node names
        ea = CFLEngine(a.pag, EngineConfig(budget=UNLIMITED))
        eb = CFLEngine(b.pag, EngineConfig(budget=UNLIMITED))
        for va in a.pag.app_locals()[:10]:
            vb = b.pag.node_id(a.pag.name(va))
            names_a = {a.pag.name(o) for o in ea.points_to(va).objects}
            names_b = {b.pag.name(o) for o in eb.points_to(b.pag.rep(vb)).objects}
            assert names_a == names_b


class TestRuleTable:
    @settings(max_examples=15, **COMMON)
    @given(small_params())
    def test_sweeps_follow_rule_table(self, params):
        # Every traversal's visited set is the rule table's closure of
        # its start item, and its answers are what the table reads off.
        from tests.core.test_rules import assert_sweeps_follow_table

        build = build_from(params)
        queries = [Query(v) for v in build.pag.app_locals()]
        assert_sweeps_follow_table(build.pag, EngineConfig(budget=UNLIMITED), queries)
