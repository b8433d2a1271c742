"""Ablation: the scheduler's target group size M (Section III-C1).

The paper splits/merges groups to the mean size for load balance; this
bench sweeps explicit targets to show the trade-off: singleton units
pay fetch overhead, oversized units hurt tail latency.  Each target's
units come from :func:`schedule_queries` and run on a DQ runner's
executor, over the runner's jump map."""

from repro.benchgen.suites import load_benchmark, spec_of
from repro.core.scheduling import schedule_queries
from repro.runtime import ParallelCFL, RuntimeConfig

BENCH = "fop"


def test_group_size_sweep(once):
    spec = spec_of(BENCH)
    build = load_benchmark(BENCH)
    queries = spec.workload()
    cfg = spec.engine_config()

    def sweep():
        seq = ParallelCFL(
            build,
            runtime=RuntimeConfig(mode="seq"),
            engine=cfg,
        ).run(queries)
        out = {}
        for target in (1, 4, 16, 64, None):
            runner = ParallelCFL(
                build,
                runtime=RuntimeConfig(mode="DQ", n_threads=16),
                engine=cfg,
            )
            groups = schedule_queries(
                build.pag, queries, build.program.types,
                target_group_size=target,
            )
            units = [g.queries for g in groups]
            batch = runner.executor().run_units(units, runner.resident_jumps())
            sg = sum(len(u) for u in units) / len(units)
            out[target] = (sg, batch.speedup_over(seq), batch)
        return out

    results = once(sweep)
    print()
    for target, (sg, speedup, batch) in results.items():
        print(
            f"  M={str(target):>4s}: Sg={sg:6.1f} units={batch.n_queries and len(queries)//max(1,round(sg)):5d} "
            f"DQ16={speedup:5.1f}x util={batch.utilisation:.2f}"
        )

    # The target is honoured (mean group size tracks M).
    assert results[1][0] <= 1.5
    assert results[16][0] > results[4][0] > results[1][0]

    # Oversized units damage utilisation relative to the default.
    assert results[64][2].utilisation < results[None][2].utilisation + 0.05

    # All configurations answer every query.
    assert all(batch.n_queries == len(queries) for _sg, _s, batch in results.values())

    # The automatic mean-based target is competitive with the best
    # fixed setting (within 15%).
    best = max(speedup for _sg, speedup, _b in results.values())
    assert results[None][1] >= best * 0.85
