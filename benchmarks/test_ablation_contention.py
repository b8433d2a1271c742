"""Ablation: the contention cost model (DESIGN.md §4's single
calibrated hardware constant).

Sweeps the cross-socket slope and the per-query overhead to show how
the Fig. 6 magnitudes depend on them — and that the *ordering*
(naive < D < DQ) is robust across the sweep."""

from repro.benchgen.suites import load_benchmark, spec_of
from repro.runtime import CostModel, ParallelCFL, RuntimeConfig

BENCH = "_202_jess"


def _speedups(cost_model):
    spec = spec_of(BENCH)
    build = load_benchmark(BENCH)
    queries = spec.workload()
    cfg = spec.engine_config()

    def run(mode, t):
        return ParallelCFL(
            build,
            runtime=RuntimeConfig(mode=mode, n_threads=t,
                                  cost_model=cost_model),
            engine=cfg,
        ).run(queries)

    seq = run("seq", 1)
    return {
        mode: run(mode, 16).speedup_over(seq) for mode in ("naive", "D", "DQ")
    }


def test_contention_sweep(once):
    def sweep():
        return {
            kappa: _speedups(CostModel(kappa_inter=kappa))
            for kappa in (0.0, 0.05, 0.11, 0.25)
        }

    results = once(sweep)
    print()
    for kappa, sp in results.items():
        print(
            f"  kappa_inter={kappa:4.2f}: naive={sp['naive']:5.1f} "
            f"D={sp['D']:5.1f} DQ={sp['DQ']:5.1f}"
        )

    # naive-16 speedup decreases monotonically with contention.
    naive = [results[k]["naive"] for k in (0.0, 0.05, 0.11, 0.25)]
    assert naive == sorted(naive, reverse=True)

    # Zero contention: naive approaches linear (load imbalance only).
    assert results[0.0]["naive"] > 11

    # The mode ordering survives every contention setting.
    for sp in results.values():
        assert sp["DQ"] > sp["naive"]
        assert sp["D"] > sp["naive"]


def test_query_overhead_sweep(once):
    def sweep():
        return {w: _speedups(CostModel(w_query=w)) for w in (0, 15, 120)}

    results = once(sweep)
    print()
    for w, sp in results.items():
        print(f"  w_query={w:3d}: naive={sp['naive']:5.1f} D={sp['D']:5.1f} DQ={sp['DQ']:5.1f}")

    # Fixed per-query overhead dilutes the benefit of data sharing:
    # the D/naive gain shrinks as w_query grows.
    gain = {w: results[w]["D"] / results[w]["naive"] for w in results}
    assert gain[0] > gain[120]
    # But sharing keeps winning even at heavy overhead.
    assert results[120]["D"] > results[120]["naive"]
