"""Self-tests of the benchmark: output contract, seeded inputs, the
oracle, and that untraced runs leave the system unwrapped."""

import json
import subprocess
import sys

import pytest

from perfbench import inputs, run, workloads
from perfbench.oracle import Oracle
from perfbench.trace import PER_LAYER, WRAP_TARGETS, Tracer, _owner, wrapped_targets
from repro.api import suite_names

ROOT = run.ROOT


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_unit(workload):
    stdout, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    for name, unit in run.END_TO_END.items():
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in stdout.splitlines()), name
    if workload in ("serve_hover", "edit_session"):
        assert any(line.startswith("req_p50_ms ") and " ms " in line
                   for line in stdout.splitlines())
    assert "failed_frac" in stdout
    assert "untraced: no recorder passed, 0 wrappers installed" in stdout


def test_tiny_traced_run_reports_every_layer_and_reconciles():
    stdout, result = _run("edit_session", 1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    assert "unattributed" in stdout and "tracing overhead" in stdout
    total = next(line for line in stdout.splitlines() if line.startswith("sum "))
    assert total.split()[-1] == "100.00%"


def test_benchmark_json_matches_the_metric_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_same_seed_same_inputs_other_seed_other_draws():
    names = suite_names()
    targets = [f"v{i}@C.m" for i in range(50)]
    assert inputs.pass_order(1, "w", 0, names) == inputs.pass_order(1, "w", 0, names)
    assert inputs.pass_order(1, "w", 0, names) != inputs.pass_order(2, "w", 0, names)
    assert inputs.query_order(1, "w", 0, "x", 40) == inputs.query_order(1, "w", 0, "x", 40)
    assert inputs.query_order(1, "w", 0, "x", 40) != inputs.query_order(2, "w", 0, "x", 40)
    assert inputs.zipf_draws(1, targets, 200) == inputs.zipf_draws(1, targets, 200)
    assert inputs.zipf_draws(1, targets, 200) != inputs.zipf_draws(2, targets, 200)
    one, order_one = inputs.edit_plan(1, ["_200_check"], 10)
    again, order_again = inputs.edit_plan(1, ["_200_check"], 10)
    other, order_other = inputs.edit_plan(2, ["_200_check"], 10)
    assert one == again and order_one == order_again
    assert one["_200_check"].edits != other["_200_check"].edits
    assert len(one["_200_check"].text) < len(one["_200_check"].full_text)


def test_printed_suites_round_trip():
    assert inputs.round_trip_mismatches(suite_names()) == []


def test_oracle_rejects_a_tampered_answer():
    oracle = Oracle(inputs.load_program("_200_check")[1])
    var, objects = next((v, objs) for v, objs in sorted(oracle._pts.items()) if objs)
    foreign = next(o for objs in oracle._pts.values() for o in objs if o not in objects)
    assert oracle.admits(var, objects)
    assert not oracle.admits(var, [*objects, foreign])
    assert not oracle.admits("no_such_var@Nowhere.m", [])
    phase = workloads.Phase()
    assert not phase.check(oracle, var, [foreign], exhausted=False)
    assert phase.wrong == 1 and phase.answered == 1


def _originals():
    return [getattr(_owner(m, c), a) for m, c, a, _ in WRAP_TARGETS]


def test_untraced_run_leaves_every_public_function_unwrapped():
    before = _originals()
    loaded = [inputs.load_program(n) for n in inputs.TINY_PROGRAMS]
    programs = [prog for prog, _, _ in loaded]
    oracles = {prog.name: Oracle(build) for prog, build, _ in loaded}
    phase = workloads.run_batch("batch_hybrid", "hybrid", programs, oracles, 1, 0.1, None, 1)
    assert phase.wrong == 0 and phase.layers is None
    assert wrapped_targets() == []
    assert _originals() == before


def test_tracer_wraps_then_restores_every_target():
    before = _originals()
    with Tracer():
        assert len(wrapped_targets()) == len(WRAP_TARGETS)
    assert wrapped_targets() == []
    assert _originals() == before
