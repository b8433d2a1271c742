"""Ablation: the selective-insertion thresholds τ_F / τ_U
(Section IV-A) and the record-empty-rounds variant.

DESIGN.md calls out the τ gating as a deliberate design choice (gating
whole rounds instead of individual edges); this bench sweeps the
threshold and shows the cost/benefit curve the paper describes: no
filtering pays insertion overhead, oversized filtering loses sharing.
"""

import pytest

from repro.benchgen.suites import load_benchmark, spec_of
from repro.runtime import ParallelCFL, RuntimeConfig

BENCH = "_213_javac"


def _speedup(tau_f, tau_u, record_empty=False):
    spec = spec_of(BENCH)
    build = load_benchmark(BENCH)
    queries = spec.workload()
    cfg = spec.engine_config(
        tau_f=tau_f, tau_u=tau_u, record_empty_rounds=record_empty
    )
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
    return dq.speedup_over(seq), dq


def test_tau_sweep(once):
    spec = spec_of(BENCH)

    def sweep():
        huge = spec.budget * 10
        return {
            "none": _speedup(0, 0),
            "scaled": _speedup(spec.tau_f, spec.tau_u),
            "huge": _speedup(huge, huge),
        }

    results = once(sweep)
    print()
    for name, (speedup, batch) in results.items():
        print(
            f"  tau={name:7s} speedup={speedup:5.1f}x jumps={batch.n_jumps:6d} "
            f"ETs={batch.n_early_terminations:4d}"
        )

    # No filtering records the most jmp edges...
    assert results["none"][1].n_jumps > results["scaled"][1].n_jumps
    # ...and an oversized threshold suppresses sharing almost entirely.
    assert results["huge"][1].n_jumps < results["scaled"][1].n_jumps * 0.2

    # The scaled default is the best of the three configurations
    # (Section IV-D2's point: both extremes cost throughput).
    assert results["scaled"][0] >= results["none"][0] * 0.95
    assert results["scaled"][0] > results["huge"][0]


def test_record_empty_rounds(once):
    spec = spec_of(BENCH)

    def both():
        return _speedup(spec.tau_f, spec.tau_u, False), _speedup(
            spec.tau_f, spec.tau_u, True
        )

    (sp_off, b_off), (sp_on, b_on) = once(both)
    print(f"\n  record_empty off: {sp_off:.1f}x ({b_off.n_jumps} jumps)")
    print(f"  record_empty on:  {sp_on:.1f}x ({b_on.n_jumps} jumps)")
    # Empty-round records occupy keys without adding edges, and the
    # changed shortcut dynamics shift which edges get discovered — but
    # the overall jump population stays in the same ballpark...
    assert b_on.n_jumps >= b_off.n_jumps * 0.85
    off_map = b_off.points_to_map()
    on_map = b_on.points_to_map()
    agree = sum(on_map[k] == off_map[k] for k in off_map)
    assert agree >= 0.95 * len(off_map)
