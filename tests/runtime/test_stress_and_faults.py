"""Concurrency stress and failure-injection tests.

The threaded executor runs genuine Python threads against the shared
lock-striped jump map — weaker timing control than the simulator, so
these tests hammer interleavings (repeats, many threads, tiny budgets)
and assert the invariants that must survive any schedule."""

import threading

import pytest

from repro.benchgen import SynthesisParams, load_benchmark, synthesize_program
from repro.benchgen.suites import spec_of
from repro.core import CFLEngine, EngineConfig, JumpMap, Query
from repro.core.engine import POINTS_TO
from repro.errors import BudgetExhausted
from repro.pag import build_pag
from repro.pag.extended import FinishedJump
from repro.runtime import ConcurrentJumpMap, RuntimeConfig, ThreadedExecutor


@pytest.fixture(scope="module")
def bench():
    build = build_pag(
        synthesize_program(
            SynthesisParams(seed=77, n_app_classes=2, methods_per_app_class=2,
                            actions_per_method=6)
        )
    )
    return build


class TestThreadedStress:
    def test_many_threads_same_answers(self, bench):
        queries = [Query(v) for v in bench.pag.app_locals()]
        seq = CFLEngine(bench.pag)
        expected = {q.var: seq.run_query(q).points_to for q in queries}
        for _round in range(3):
            batch = ThreadedExecutor(
                bench.pag,
                RuntimeConfig(mode="D", n_threads=12, backend="threads"),
            ).run_units([[q] for q in queries])
            for e in batch.executions:
                assert e.result.points_to == expected[e.result.query.var]

    def test_tiny_budget_under_threads_never_crashes(self, bench):
        queries = [Query(v) for v in bench.pag.app_locals()]
        cfg = EngineConfig(budget=7, tau_f=0, tau_u=0)
        batch = ThreadedExecutor(
            bench.pag,
            RuntimeConfig(mode="D", n_threads=8, backend="threads"),
            engine_config=cfg,
        ).run_units([[q] for q in queries])
        assert batch.n_queries == len(queries)
        # every answer is a subset of the unlimited-budget answer
        full = CFLEngine(bench.pag, EngineConfig(budget=10**9))
        for e in batch.executions:
            assert e.result.objects <= full.points_to(e.result.query.var).objects

    def test_concurrent_jumpmap_races(self):
        """Hammer first-writer-wins from many threads: exactly one
        winner per key, and finished always supersedes unfinished."""
        cmap = ConcurrentJumpMap(n_stripes=4)
        keys = [(k, (), POINTS_TO) for k in range(40)]
        wins = []
        lock = threading.Lock()

        def worker(tid):
            local = []
            for key in keys:
                if cmap.insert_unfinished(key, 100 + tid):
                    local.append(("u", key, tid))
                if tid % 2 == 0 and cmap.insert_finished(
                    key, (FinishedJump(1, (), 5 + tid),)
                ):
                    local.append(("f", key, tid))
            with lock:
                wins.extend(local)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # exactly one unfinished winner and one finished winner per key
        for kind in ("u", "f"):
            per_key = {}
            for w_kind, key, tid in wins:
                if w_kind == kind:
                    per_key.setdefault(key, []).append(tid)
            assert all(len(v) == 1 for v in per_key.values())
        # finished entries cleared every unfinished marker they covered
        assert cmap.n_unfinished_edges == 0


class TestFailureInjection:
    def test_engine_reusable_after_budget_abort(self, fig2):
        b, n = fig2
        eng = CFLEngine(b.pag, EngineConfig(budget=5))
        first = eng.points_to(n["s1"])
        assert first.exhausted
        # the engine carries no poisoned state: a fresh cheap query works
        ok = CFLEngine(b.pag).points_to(n["v1"])
        again = eng.points_to(n["v1"])
        assert not again.exhausted
        assert again.objects == ok.objects

    def test_exception_mid_query_leaves_shared_map_consistent(self, fig2):
        b, n = fig2
        jumps = JumpMap()
        eng = CFLEngine(b.pag, EngineConfig(budget=10, tau_f=0, tau_u=0), jumps=jumps)
        eng.points_to(n["s1"])  # aborts internally, publishes markers
        before = jumps.n_jumps
        # a second engine over the same map proceeds fine
        eng2 = CFLEngine(b.pag, EngineConfig(tau_f=0, tau_u=0), jumps=jumps)
        res = eng2.points_to(n["s1"])
        assert not res.exhausted
        assert res.objects == {n["o_n1"]}
        assert jumps.n_jumps >= before  # only grew

    def test_budget_exhausted_signal_not_swallowed_elsewhere(self, fig2):
        # BudgetExhausted must never escape the public API.
        b, _ = fig2
        eng = CFLEngine(b.pag, EngineConfig(budget=1))
        for var in b.pag.app_locals():
            eng.points_to(var)  # must not raise

    def test_injected_hostile_jump_edges_do_not_crash(self, fig2):
        """A corrupted shared map (wrong targets, absurd step counts)
        must not crash the engine; answers may differ — the map is a
        trusted channel (documented) — but execution stays robust."""
        b, n = fig2
        jumps = JumpMap()
        # absurd unfinished marker: claims more steps than any budget
        jumps.insert_unfinished((n["r_get"], (2,), POINTS_TO), 10**9)
        eng = CFLEngine(b.pag, EngineConfig(tau_f=0, tau_u=0), jumps=jumps)
        res = eng.points_to(n["s1"])
        # the poisoned marker forces an early termination, not a crash
        assert res.exhausted
        assert res.costs.early_terminations >= 1

    def test_injected_bogus_finished_edge_followed(self, fig2):
        # Documented trust boundary: finished edges are taken verbatim.
        b, n = fig2
        jumps = JumpMap()
        jumps.insert_finished(
            (n["r_get"], (2,), POINTS_TO), (FinishedJump(n["n2"], (), 3),)
        )
        eng = CFLEngine(b.pag, EngineConfig(tau_f=0, tau_u=0), jumps=jumps)
        res = eng.points_to(n["s1"])
        # query completes; the bogus edge redirected the round to n2
        assert not res.exhausted
        assert n["o_n2"] in res.objects

    def test_suite_benchmark_with_adversarial_budgets(self):
        # sweep pathological budgets over a real benchmark: no crashes,
        # monotone answer growth
        build = load_benchmark("_200_check")
        var = build.pag.app_locals()[5]
        prev = frozenset()
        for budget in (1, 2, 3, 5, 8, 13, 1000):
            eng = CFLEngine(build.pag, EngineConfig(budget=budget))
            res = eng.points_to(var)
            assert isinstance(res.exhausted, bool)
            # not strictly monotone in general (different traversal
            # truncations), but completed answers dominate partial ones
            if not res.exhausted:
                assert prev <= res.objects
            prev = res.objects if not res.exhausted else prev
