"""Benchmark of the analysis, end to end and layer by layer.

Usage, from the repository root (no build step; the sources under
``src/`` are imported directly)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs are a pure function of ``--seed``):

``batch_mp``
    All twenty Table I programs, each answered as one cold batch of all
    application locals on mode DQ, backend ``mp``, two workers, at the
    suite's budget.  Engine, jump-map sharing and mp dispatch do the work.
``batch_hybrid``
    Fourteen of them on backend ``hybrid`` (two threads): twelve below
    the router's bulk crossover go to the demand engine, two above it to
    the matrix kernel.
``serve_hover``
    ``repro serve tomcat.mj --snapshot`` warm-booted from a snapshot made
    by ``repro snapshot save``; one closed-loop client sends
    single-target ``/v1/points_to`` requests, Zipf-skewed over the
    application locals.
``edit_session``
    tomcat and _213_javac with a systematic seeded sample of statements
    withheld from the text, replayed one per transaction: the edit,
    points-to of every local of the edited method, and a traced
    points-to of the edit's target.

A "request" is what a caller waits on: one program's cold
``Session.batch`` (batch workloads), one HTTP request (serve), one
transaction (edit).  Gated end-to-end metrics (``--trace 0``; every
workload reports all of them):

==================  =====  =============================================
``setup_s``         s      median over repeated fresh set-ups: program
                           text to Session (batch: all programs of a
                           pass); daemon launch to /healthz (serve);
                           text to Session plus the first points-to
                           pass (edit)
``ops_per_s``       1/s    queries per second of the per-program median
                           cold-batch walls (batch); requests or
                           transactions per second of waiting
``batch_ms_gmean``  ms     geometric mean request latency (batch: of the
                           per-program medians, so small programs count
                           as much as large ones)
``decided_frac``    ratio  answers not exhausted by the budget / answers
``peak_rss_mb``     MB     peak RSS of the analysing process (mp: plus
                           the largest worker; serve: the daemon's VmHWM)
==================  =====  =============================================

Timed samples are scaled to reference time against the host's
momentary speed (``stats.HostSpeed``; serve pins itself and the daemon
to one CPU so the reading describes the daemon's CPU); batches the
hybrid router sends to the numpy matrix kernel stay raw.  The table
prints the raw wall clock beside each value.  Printed too, where they apply: ``req_p50_ms`` and ``req_p90_ms``
(serve and edit; p90 from 100 samples on, with the sample count) and
``failed_frac`` (operations that raised, were refused, lost a query or
gave an answer Andersen's analysis rejects, over operations attempted;
the result line carries it as ``failed``/``attempted``).

``--trace 1`` measures half the time untraced and half traced, prints a
per-layer self-time table that adds up to the traced wall, the tracing
overhead, and reports the per-layer metrics of ``perfbench/trace.py``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The exit code is 0 only when every answer passed the oracle.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

WORKLOADS = ("batch_mp", "batch_hybrid", "serve_hover", "edit_session")
#: Gated end-to-end metrics: defined on every workload.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "batch_ms_gmean": "ms",
    "decided_frac": "ratio",
    "peak_rss_mb": "MB",
}
#: Everything the human-readable table prints where it applies.
REPORTED: Dict[str, str] = {**END_TO_END, "req_p50_ms": "ms", "req_p90_ms": "ms"}
#: Which sample count each printed metric rests on.
SAMPLES = {"setup_s": "setup", "ops_per_s": "req", "req_p50_ms": "req",
           "req_p90_ms": "req", "batch_ms_gmean": "req"}
#: Repetitions (passes, rounds, daemon launches) an untraced phase
#: always makes; a traced half makes one fewer.  An edit round replays
#: 500 transactions, so two fill a run.
MIN_REPS = {"batch_mp": 3, "batch_hybrid": 3, "serve_hover": 3, "edit_session": 2}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small programs and one repetition (self-tests)")
    return parser.parse_args(argv)


def prepare(workload: str, seed: int, tiny: bool, workdir: Path, env: Dict[str, str],
            problems: List[str]) -> Callable:
    """Build the workload's inputs and oracles; returns
    ``measure(seconds, traced, min_reps) -> Phase``."""
    from perfbench import inputs, workloads
    from perfbench.oracle import Oracle
    from perfbench.trace import Tracer
    from repro.api import build_pag, parse_program, suite_names

    if workload in ("batch_mp", "batch_hybrid"):
        names = inputs.TINY_PROGRAMS if tiny else (
            inputs.HYBRID_PROGRAMS if workload == "batch_hybrid" else suite_names())
        programs, oracles = [], {}
        for name in names:
            prog, build, problem = inputs.load_program(name)
            programs.append(prog)
            oracles[name] = Oracle(build)
            if problem:
                problems.append(f"round trip: {problem}")
        backend = "mp" if workload == "batch_mp" else "hybrid"

        def measure(seconds, traced, min_reps):
            tracer = Tracer() if traced else None
            with tracer or nullcontext():
                return workloads.run_batch(workload, backend, programs, oracles, seed,
                                           seconds, tracer, min_reps)
        return measure

    if workload == "edit_session":
        names = inputs.TINY_PROGRAMS[:1] if tiny else inputs.EDIT_PROGRAMS
        k = 10 if tiny else inputs.EDITS_PER_PROGRAM
        programs, order = inputs.edit_plan(seed, names, k)
        oracles = {n: Oracle(build_pag(parse_program(p.full_text)))
                   for n, p in programs.items()}

        def measure(seconds, traced, min_reps):
            tracer = Tracer() if traced else None
            with tracer or nullcontext():
                return workloads.run_edit(programs, order, oracles, seconds, tracer, min_reps)
        return measure

    prog, build, _ = inputs.load_program(
        inputs.TINY_PROGRAMS[0] if tiny else inputs.SERVE_PROGRAM)
    src = workdir / f"{prog.name}.mj"
    src.write_text(prog.text)
    snap = workdir / f"{prog.name}.snap"
    subprocess.run(
        [sys.executable, "-m", "repro", "snapshot", "save", str(src), "--out", str(snap),
         "--budget", str(prog.budget)],
        cwd=workdir, env=env, check=True, capture_output=True, timeout=120,
    )
    oracle = Oracle(build)
    launcher = ROOT / "perfbench" / "serve_launcher.py"

    def measure(seconds, traced, min_reps):
        return workloads.run_serve(prog, snap, workdir, env, oracle, seed, seconds,
                                   traced, min_reps, launcher)
    return measure


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def print_phase(title: str, phase) -> None:
    print(f"== {title}: host-scaled value (gated) and raw wall clock")
    print(f"{'metric':<16} {'value':>12}  {'unit':<6} {'wall clock':>12}  samples")
    for name, unit in REPORTED.items():
        if name in phase.metrics:
            n = phase.samples.get(SAMPLES.get(name, ""), "")
            print(f"{name:<16} {_fmt(phase.metrics[name]):>12}  {unit:<6} "
                  f"{_fmt(phase.wall[name]):>12}  {n}")
    frac = phase.failed / max(1, phase.attempted)
    print(f"{'failed_frac':<16} {_fmt(frac):>12}  {'ratio':<6} {'':>12}  "
          f"{phase.failed}/{phase.attempted} operations")
    extra = {k: v for k, v in phase.samples.items() if k not in ("setup", "req")}
    if extra:
        print("repetitions: " + ", ".join(f"{k}={v}" for k, v in extra.items()))
    for err in phase.errors:
        print(f"error: {err}")


def print_table(phase) -> None:
    wall, rows = phase.table
    print(f"== per-layer self time (traced), reconciled with {_fmt(1000 * wall)} ms "
          "of end-to-end wall")
    for label, sec in sorted(rows.items(), key=lambda kv: -kv[1]):
        print(f"{label:<20} {_fmt(1000 * sec):>12} ms  {100 * sec / wall:6.2f}%")
    total = sum(rows.values())
    print(f"{'sum':<20} {_fmt(1000 * total):>12} ms  {100 * total / wall:6.2f}%")


def run(args: argparse.Namespace, workdir: Path) -> int:
    from perfbench import stats
    from perfbench.trace import PER_LAYER, wrapped_targets

    env = dict(os.environ, PYTHONPATH=str(SRC))
    print("host: " + json.dumps(stats.host_fingerprint(ROOT), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}", flush=True)
    problems: List[str] = []
    measure = prepare(args.workload, args.seed, args.tiny, workdir, env, problems)
    # Inputs and oracles live for the whole run: exempt them from the
    # collections that precede every timed set-up.
    gc.collect()
    gc.freeze()
    min_reps = 1 if args.tiny else MIN_REPS[args.workload]
    min_traced = max(1, min_reps - 1)
    if args.trace:
        base = measure(args.seconds / 2, False, min_traced)
        traced = measure(args.seconds / 2, True, min_traced)
        phases = [base, traced]
        print_phase("untraced half", base)
        print_phase("traced half", traced)
        print("== tracing overhead (traced - untraced)")
        for name in REPORTED:
            if name in base.metrics and name in traced.metrics:
                a, b = base.metrics[name], traced.metrics[name]
                print(f"{name:<16} {_fmt(b - a):>12}  ({_fmt(100 * (b - a) / a)}%)")
        if traced.table:
            print_table(traced)
        layers = dict(traced.layers or {})
        if base.metrics.get("ops_per_s") and traced.metrics.get("ops_per_s"):
            layers["trace.overhead_frac"] = (
                base.metrics["ops_per_s"] / traced.metrics["ops_per_s"] - 1.0)
        wanted = PER_LAYER
        values = layers
    else:
        phase = measure(args.seconds, False, min_reps)
        phases = [phase]
        print_phase("untraced", phase)
        left = wrapped_targets()
        print(f"untraced: no recorder passed, {len(left)} wrappers installed")
        if left:
            problems.append(f"untraced run found wrapped functions: {left}")
        wanted = END_TO_END
        values = phase.metrics
    for p in problems:
        print(f"problem: {p}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    missing = [n for n in wanted if n not in values]
    correct = not problems and not missing and all(p.wrong == 0 for p in phases)
    if missing:
        print(f"problem: no value for {missing}")
    result = {
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in wanted.items()
                    if n in values},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct and failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no analysis sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
