"""Property-based tests for the multiprocess backend and the PAG pickle
its spawn-started workers receive.

The contracts, over randomly generated (benchgen-synthesised) programs:

* **pickle transparency** — a PAG survives a pickle round-trip with
  its leg index intact (each row still the list its adjacency dict
  holds), and an engine over the thawed graph gives byte-identical
  answers, exhaustion flags and step counts to one over the original
  (the property ``spawn``-started mp workers stand on);
* **mp identity** — share-nothing mp answers equal the sequential
  engine exactly (each query is a pure function of the graph);
* **mp sharing invariants** — with sharing on and a small budget,
  every answer is a subset of the full-budget answer, and a query that
  completed without exhausting its budget is exact (sharing may change
  *which* queries exhaust, never what a completed query returns);
* **Andersen oracle** — context-insensitive unlimited-budget mp runs
  equal the whole-program Andersen solution.

Process spawns dominate the cost here, so the mp properties use few
hypothesis examples over small worker counts.
"""

import pickle

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.andersen import AndersenSolver
from repro.benchgen import SynthesisParams, synthesize_program
from repro.core import CFLEngine, EngineConfig, Query
from repro.pag import EdgeKind, build_pag

UNLIMITED = 10**9


@st.composite
def small_params(draw):
    """Small but structurally diverse programs (see test_properties)."""
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


class TestFrozenPAG:
    """A PAG frozen into a pickle, the form spawn-started workers receive."""

    @settings(max_examples=10, **COMMON)
    @given(small_params())
    def test_pickle_roundtrip(self, params):
        build = build_from(params)
        pag = build.pag
        pag.rows(False)  # built before pickling, as MPExecutor does
        thawed = pickle.loads(pickle.dumps(pag, protocol=pickle.HIGHEST_PROTOCOL))
        assert len(thawed) == len(pag)
        assert thawed.n_edges == pag.n_edges
        for outgoing, side in ((False, "in"), (True, "out")):
            for node, row in thawed.rows(outgoing).items():
                for kind, entries in row:
                    adjacency = getattr(
                        thawed, f"{EdgeKind(kind).name.lower()}_{side}")
                    assert entries is adjacency[node]
        a = CFLEngine(pag, EngineConfig(budget=UNLIMITED))
        b = CFLEngine(thawed, EngineConfig(budget=UNLIMITED))
        for var in pag.app_locals():
            assert b.points_to(var).points_to == a.points_to(var).points_to

    @settings(max_examples=10, **COMMON)
    @given(small_params(), st.integers(1, 80))
    def test_frozen_matches_under_budget(self, params, budget):
        # Identical traversal order => identical partial answers and
        # exhaustion flags, not just identical fixpoints.
        build = build_from(params)
        pag = build.pag
        pag.rows(False)
        thawed = pickle.loads(pickle.dumps(pag, protocol=pickle.HIGHEST_PROTOCOL))
        a = CFLEngine(pag, EngineConfig(budget=budget))
        b = CFLEngine(thawed, EngineConfig(budget=budget))
        for var in pag.app_locals():
            want, got = a.points_to(var), b.points_to(var)
            assert got.points_to == want.points_to
            assert got.exhausted == want.exhausted
            assert got.costs.steps == want.costs.steps


class TestMPIdentity:
    @settings(max_examples=6, **COMMON)
    @given(small_params())
    def test_share_nothing_matches_seq(self, params):
        from repro.runtime import MPExecutor, RuntimeConfig

        build = build_from(params)
        cfg = EngineConfig(budget=UNLIMITED)
        seq = CFLEngine(build.pag, cfg)
        expected = {
            v: seq.points_to(v).points_to for v in build.pag.app_locals()
        }
        batch = MPExecutor(
            build.pag,
            RuntimeConfig(mode="naive", n_threads=2, backend="mp"),
            engine_config=cfg,
        ).run_units([[Query(v)] for v in build.pag.app_locals()])
        got = {e.result.query.var: e.result.points_to for e in batch.executions}
        assert got == expected

    @settings(max_examples=4, **COMMON)
    @given(small_params())
    def test_ci_mp_matches_andersen(self, params):
        from repro.runtime import MPExecutor, RuntimeConfig

        build = build_from(params)
        oracle = AndersenSolver(build.pag).solve()
        batch = MPExecutor(
            build.pag,
            RuntimeConfig(mode="naive", n_threads=2, backend="mp"),
            engine_config=EngineConfig(
                context_sensitive=False, budget=UNLIMITED
            ),
        ).run_units([[Query(v)] for v in build.pag.app_locals()])
        for e in batch.executions:
            assert not e.result.exhausted
            assert e.result.objects == oracle.points_to(e.result.query.var)

    @settings(max_examples=4, **COMMON)
    @given(small_params(), st.integers(5, 120))
    def test_sharing_budget_invariants(self, params, budget):
        from repro.runtime import MPExecutor, RuntimeConfig

        build = build_from(params)
        unlimited = CFLEngine(build.pag, EngineConfig(budget=UNLIMITED))
        full = {
            v: unlimited.points_to(v).points_to for v in build.pag.app_locals()
        }
        batch = MPExecutor(
            build.pag,
            RuntimeConfig(mode="D", n_threads=2, backend="mp", chunk_size=1),
            engine_config=EngineConfig(budget=budget, tau_f=0, tau_u=0),
        ).run_units([[Query(v)] for v in build.pag.app_locals()])
        for e in batch.executions:
            res = e.result
            assert res.points_to <= full[res.query.var]
            if not res.exhausted:
                assert res.points_to == full[res.query.var]
