"""Ablation: the per-query step budget B.

The budget is the demand-driven analysis's quick-response knob
(Section II-B3): larger budgets answer more queries completely but cost
more; early terminations only exist because budgets run out.  This
bench sweeps B around the benchmark default."""

from repro.benchgen.suites import load_benchmark, spec_of
from repro.runtime import ParallelCFL, RuntimeConfig

BENCH = "_228_jack"


def test_budget_sweep(once):
    spec = spec_of(BENCH)
    build = load_benchmark(BENCH)
    queries = spec.workload()

    def sweep():
        out = {}
        for factor in (0.25, 0.5, 1.0, 2.0, 8.0):
            budget = max(10, int(spec.budget * factor))
            cfg = spec.engine_config(budget=budget)
            seq = ParallelCFL(
                build,
                runtime=RuntimeConfig(mode="seq"),
                engine=cfg,
            ).run(queries)
            dq = ParallelCFL(
                build,
                runtime=RuntimeConfig(mode="DQ", n_threads=16),
                engine=cfg,
            ).run(queries)
            out[factor] = (seq, dq)
        return out

    results = once(sweep)
    print()
    for factor, (seq, dq) in results.items():
        print(
            f"  B x{factor:4.2f}: exhausted={seq.n_exhausted:4d}  "
            f"T_seq={seq.makespan:9.0f}  DQ16={dq.speedup_over(seq):5.1f}x "
            f"ETs={dq.n_early_terminations:4d}"
        )

    factors = sorted(results)
    exhausted = [results[f][0].n_exhausted for f in factors]
    t_seq = [results[f][0].makespan for f in factors]

    # More budget -> fewer unanswered queries, monotonically.
    assert exhausted == sorted(exhausted, reverse=True)
    # More budget -> more sequential work (heavy queries run longer).
    assert t_seq == sorted(t_seq)
    # At 8x the default nearly everything completes.
    assert results[8.0][0].n_exhausted <= exhausted[0] * 0.3

    # Answers of completed queries are budget-independent: a query
    # completed at the small budget returns the same set at the large.
    small_seq = results[0.25][0]
    large_seq = results[8.0][0]
    large_map = large_seq.points_to_map()
    for e in small_seq.executions:
        if not e.result.exhausted:
            key = (e.result.query.var, e.result.query.ctx)
            assert e.result.objects == large_map[key]
