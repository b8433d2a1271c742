"""The simulator's schedule, answers and jump map, pinned byte for byte.

The engine golden (``tests/core/test_engine_golden.py``) pins one
engine over one shared map; this pins the simulated executor's model
around it.  A simulated query reads the committed map directly, so it
sees every entry written by queries popped before it in event order,
including queries still running in simulated time.  Per suite of the
tier-1 sample, the standard workload runs as one cold sim batch at the
suite budget, and every execution's ``(var, ctx, exhausted, sorted
points_to, costs, worker, start, finish)`` is folded into one sha256
together with the makespan, ``n_jumps`` and the map's ``export_log()``.
A change to the event order, the cost model, the visibility of jump
entries or any answer moves the digest.

Two configurations are pinned: DQ on 16 workers (the paper's full
configuration) and D on 4.  An intended change re-records the table
from :func:`sim_digest`.
"""

import dataclasses
import hashlib

import pytest

from repro.benchgen.suites import load_benchmark, spec_of
from repro.runtime import ParallelCFL, RuntimeConfig

SAMPLE = ["_200_check", "_209_db", "batik", "luindex"]
RUNS = {"DQ x16": ("DQ", 16), "D x4": ("D", 4)}

GOLDEN = {
    ("_200_check", "DQ x16"): "d95c5036c64cb7a9f49d5b92cfcdde20c898df801f7155d2fa26feb913a42087",
    ("_200_check", "D x4"): "2633a554a3aea713cb6300f1c8780391aa9271c39ce1ecec8259579f6b76ca1d",
    ("_209_db", "DQ x16"): "1cf26c5b222549f1befaccd3d4ea8eb90f2016c890a91d15d801ec1a9e9d643c",
    ("_209_db", "D x4"): "f19f2f2024a76a1dfcc959ffba67c7e046d15d6c8d758e33e5ed0708193e5887",
    ("batik", "DQ x16"): "79b5b8609c3fb8f8d81676d1e7ea44919d4728764167a0de7a94b2e8abec00eb",
    ("batik", "D x4"): "03b2fb560b41457efa639eef034c23c6a91a1b897eeeae62fa03e756c2391623",
    ("luindex", "DQ x16"): "934b934b7904244eade79277d30c7c59ee1e8c980448aef0f2e1b19de620cc71",
    ("luindex", "D x4"): "8344462a72d757ea6252737e593d816a92598b3da9c35a58afefccd300dc7a5c",
}


def sim_digest(name, run):
    mode, n_threads = RUNS[run]
    spec = spec_of(name)
    runner = ParallelCFL(
        load_benchmark(name),
        runtime=RuntimeConfig(mode=mode, n_threads=n_threads, backend="sim"),
        engine=spec.engine_config(),
    )
    batch = runner.run(spec.workload())
    h = hashlib.sha256()
    for e in batch.executions:
        r = e.result
        row = (
            r.query.var,
            r.query.ctx,
            r.exhausted,
            sorted(r.points_to),
            dataclasses.astuple(r.costs),
            e.worker,
            e.start,
            e.finish,
        )
        h.update(repr(row).encode())
        h.update(b"\n")
    jumps = runner.resident_jumps()
    h.update(repr((batch.makespan, jumps.n_jumps)).encode())
    h.update(repr(jumps.export_log()).encode())
    return h.hexdigest()


@pytest.mark.parametrize("run", list(RUNS))
@pytest.mark.parametrize("name", SAMPLE)
def test_sim_matches_golden(name, run):
    assert sim_digest(name, run) == GOLDEN[(name, run)]
