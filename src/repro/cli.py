"""Command-line interface: ``python -m repro <command>``.

Every command is a thin shell over :mod:`repro.api` — the CLI parses
flags, opens a :class:`repro.api.Session`, and renders what the facade
returns.  (``tests/test_api_surface.py`` enforces that this module
imports nothing below the facade.)

Commands
--------

``analyze FILE``
    Parse a mini-Java (``.mj``, default) or mini-C (``.c``) program and
    answer points-to queries.

    * ``--query var@Class.method`` (repeatable) — specific queries;
      default: every application local.
    * ``--ctx "1,2"`` — call-string context for the queries.
    * ``--context-insensitive`` / ``--field-based`` — precision knobs.
    * ``--budget N`` — per-query step budget.
    * ``--explain`` — print a certified flowsTo witness per answer.
    * ``--alias a@M.m b@M.m`` — a may-alias query instead.

``batch FILE``
    Run the batch-parallel analysis over all application locals and
    print the mode ladder (seq / naive / D / DQ), on any backend.

    * ``--mode`` — restrict the ladder to one parallel mode.
    * ``--backend sim|local|threads|mp|matrix|hybrid`` — execution
      substrate (default sim; ``local`` runs in-process on one thread
      over one shared jump map, ``matrix`` is the bulk all-pairs
      kernel, ``hybrid`` routes by batch size between ``matrix`` and
      ``local`` — see ``RuntimeConfig.hybrid_crossover``).
    * ``--metrics`` / ``--metrics-json`` — observability counters
      (:mod:`repro.obs`) plus the top-N hot-query report.
    * ``--events out.jsonl`` — structured JSONL lifecycle log (one
      event per line: dispatch/done/crash/requeue/heartbeat/...).
    * ``--progress`` — live one-line progress report on stderr.

``check FILE``
    Run the client checkers (``repro.analyses``) — null-deref, downcast,
    may-alias, shared-field-race, taint, escape — dispatching all
    demanded points-to queries in one scheduled batch.

    * ``--checker ID[,ID...]`` (repeatable or comma-separated) — subset
      of checkers to run, e.g. ``--checker taint,escape``.
    * ``--format text|json|sarif`` — output format.
    * ``--severity note|warning|error`` — exit nonzero only when a
      finding at or above this level exists (default: warning).
    * ``--mode`` / ``--threads`` / ``--backend`` — batch configuration.

``serve FILE``
    Boot the analysis daemon (:mod:`repro.serve`): load the program
    once, keep the PAG + jump maps + executors resident, and answer
    points-to / flows-to / alias / check requests over HTTP with
    admission control and graceful drain on SIGTERM.

    * ``--host`` / ``--port`` — bind address (port 0 = ephemeral).
    * ``--backend`` — default ``local``: each batch runs on the
      dispatcher thread over the resident jump map.
    * ``--snapshot SNAP`` — warm-boot the resident state from a
      ``repro snapshot save`` file before serving.
    * ``--max-pending N`` — admission queue bound (429 beyond it).
    * ``--batch-window N`` — max client jobs multiplexed per batch.
    * ``--client-budget N`` — per-client cumulative step budget
      (429 once exhausted; default unlimited).
    * ``--drain-grace SECS`` — max wait for in-flight jobs on drain.

``graph FILE``
    Emit the program's PAG in Graphviz DOT form.

``snapshot save FILE`` / ``snapshot load SNAP``
    Warm-start snapshots (:mod:`repro.core.snapshot`).  ``save`` parses
    the program, runs a warming pass over every application local (at
    τ_F = τ_U = 0, so every completed round publishes) and writes the
    PAG's fingerprint + jump-map commit log + invalidation footprints
    to ``FILE.snap`` (or ``--out``).  ``load`` validates a snapshot's
    integrity header and prints it; with ``--file PROGRAM`` it also
    checks the PAG fingerprint against the current source, and with
    ``--verify`` it replays the snapshot into a fresh session and
    asserts warm answers byte-identical to a cold engine at the
    exhaustive budget (exit 1 on divergence).  A stale, corrupt or
    mismatched snapshot exits 2 (:class:`~repro.errors.SnapshotError`).

``bench``
    Wall-clock seq-vs-parallel benchmark over the benchgen suite: runs
    the share-nothing sequential baseline and the chosen wall-clock
    backend at several worker counts, prints the speedup table and
    writes ``BENCH_parallel.json``.

    * ``--smoke`` — CI-sized run (3 small suites, 1-2 workers).
    * ``--warm`` — add the cold-vs-warm axis per suite: cold run →
      on-disk snapshot → reload → warm run on a fresh engine; gates on
      byte-identity, entries actually loaded and shortcuts actually
      taken (exit 1 otherwise).
    * ``--faults`` — add the fault-injection drill per suite: a
      4-worker share-nothing run with worker 0 killed mid-batch must
      complete with zero lost queries, byte-identical answers, and at
      least one retried chunk (exit 1 otherwise).
    * ``--profile trace.json`` — record spans and counters, writing a
      Chrome-trace JSON loadable in ``about:tracing`` / Perfetto.
    * ``--events out.jsonl`` / ``--progress`` — live telemetry, as in
      ``batch``.
    * ``--compare BASELINE.json`` — perf-regression gate against a
      committed bench payload; exits 3 when a gating wall/speedup delta
      exceeds ``--regress-threshold`` (default 0.25).
    * ``--out PATH`` — write the payload JSON here; ``--history PATH``
      — append per-configuration run records here.  Without them the
      run writes no file.
    * ``--suite NAME`` (repeatable) / ``--workers 1,2,4`` /
      ``--repeat N`` / ``--mode naive|D|DQ`` /
      ``--backend local|threads|mp|matrix``.  With
      ``matrix`` both sides run at the exhaustive budget (the bulk
      kernel is exact) and the worker axis collapses to one lane.
    * With a positional experiment name (``table1``, ``fig6``, ...)
      it instead forwards to ``python -m repro.harness``.

The run-configuration flags (``--mode``, ``--threads``, ``--backend``,
``--budget``) are shared by ``batch``/``check``/``serve``/``bench``
through one parent parser; an unset flag keeps ``RuntimeConfig``'s
default, except ``serve``'s backend (``local``) and ``bench``, which
measures mode ``D`` on ``mp`` over its own worker axis.

Exit codes: 0 success (for ``check``: no finding at/above the
threshold), 1 analysis error or findings at/above the threshold, 2 the
input file could not be read or a snapshot failed validation, 3 the
bench regression gate tripped.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from repro.api import DEFAULT_BUDGET
from repro.errors import InputError, ReproError

__all__ = ["main"]


def _open_session(args, *, engine=None, runtime=None, recorder=None):
    """Open the :class:`repro.api.Session` for a command's file/flags."""
    from repro.api import Session

    return Session.open(
        args.file,
        language=args.language,
        engine=engine,
        runtime=runtime,
        recorder=recorder,
    )


def _parse_ctx(text: Optional[str]) -> Tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ReproError(f"bad context {text!r}: expected comma-separated site ids")


def _cmd_analyze(args) -> int:
    from repro.api import EngineConfig

    session = _open_session(
        args,
        engine=EngineConfig(
            budget=args.budget,
            context_sensitive=not args.context_insensitive,
            field_mode="match" if args.field_based else "sensitive",
        ),
    )
    ctx = _parse_ctx(args.ctx)

    if args.alias:
        verdict = session.may_alias(args.alias[0], args.alias[1], ctx)
        print(f"may_alias({args.alias[0]}, {args.alias[1]}) = {verdict}")
        return 0

    if args.query:
        targets = [(spec, session.resolve(spec)) for spec in args.query]
    else:
        targets = [(session.name(v), v) for v in session.app_locals()]

    for label, node in targets:
        if args.explain:
            result, witnesses = session.trace_points_to(node, ctx)
        else:
            result, witnesses = session.points_to(node, ctx), ()
        objs = sorted(session.name(o) for o in result.objects)
        flag = "  [budget exhausted]" if result.exhausted else ""
        print(f"pts({label}) = {objs}{flag}")
        for witness in witnesses:
            certified = "certified" if witness.certify() else "NOT CERTIFIED"
            print(f"    {witness.pretty()}   [{certified}]")
    return 0


def _make_recorder(args, want_metrics: bool, want_spans: bool = False):
    """Pick the cheapest recorder that serves the requested outputs.

    The recorder classes form a ladder (``MetricsRecorder`` ←
    ``SpanRecorder`` ← ``TimelineRecorder``), so one
    :class:`TimelineRecorder` instance feeds ``--events``/``--progress``
    *and* ``--profile`` *and* ``--metrics`` simultaneously; with no
    observability flag at all this returns ``None`` and the run stays
    on the recorder-off fast path.
    """
    events = getattr(args, "events", None)
    progress = getattr(args, "progress", False)
    if events or progress:
        from repro.api import TimelineRecorder

        return TimelineRecorder(
            events_path=events,
            progress_stream=sys.stderr if progress else None,
        )
    if want_spans:
        from repro.api import SpanRecorder

        return SpanRecorder()
    if want_metrics:
        from repro.api import MetricsRecorder

        return MetricsRecorder()
    return None


def _close_recorder(recorder) -> None:
    close = getattr(recorder, "close", None)
    if close is not None:
        close()


def _cmd_batch(args) -> int:
    from repro.api import (
        EngineConfig,
        RuntimeConfig,
        metrics_to_json,
        render_hot_queries,
        render_metrics_table,
    )

    # The run-config flags come from the shared parent parser with None
    # defaults; an unset one keeps RuntimeConfig's default (set_defaults
    # would mutate the parent's shared actions and leak across
    # subcommands).
    runtime = RuntimeConfig.from_flags(
        n_threads=args.threads, backend=args.backend
    )
    n_threads, backend = runtime.n_threads, runtime.backend
    budget = args.budget if args.budget is not None else DEFAULT_BUDGET
    recorder = _make_recorder(args, args.metrics or args.metrics_json)
    session = _open_session(
        args, engine=EngineConfig(budget=budget), recorder=recorder
    )

    def run_mode(mode: str, threads: int):
        return session.batch(mode=mode, n_threads=threads, backend=backend)

    seq = run_mode("seq", 1)
    print(f"{session.pag}: {seq.n_queries} queries (backend {backend})")
    print(f"{'config':12s} {'speedup':>8s} {'work':>10s} {'jumps':>7s} {'ETs':>5s}")
    print(f"{'SeqCFL':12s} {'1.0x':>8s} {seq.total_work:10d} {0:7d} {0:5d}")
    ladder = ("naive", "D", "DQ") if args.mode is None else (
        () if args.mode == "seq" else (args.mode,)
    )
    last = seq
    for mode in ladder:
        batch = run_mode(mode, n_threads)
        last = batch
        print(
            f"{mode + ' x' + str(n_threads):12s} "
            f"{batch.speedup_over(seq):7.1f}x {batch.total_work:10d} "
            f"{batch.n_jumps:7d} {batch.n_early_terminations:5d}"
        )
    if args.metrics:
        print()
        print(render_metrics_table(recorder.snapshot()))
        print()
        print(render_hot_queries(last, pag=session.pag))
    if args.metrics_json:
        print(metrics_to_json(recorder.snapshot()))
    if recorder is not None:
        _close_recorder(recorder)
    if args.events:
        print(f"[events {args.events}]")
    return 0


def _cmd_check(args) -> int:
    from repro.api import (
        EngineConfig,
        RuntimeConfig,
        Severity,
        render_json,
        render_sarif,
        render_text,
    )

    threshold = Severity.parse(args.severity)
    budget = args.budget if args.budget is not None else DEFAULT_BUDGET
    session = _open_session(
        args,
        engine=EngineConfig(budget=budget),
        runtime=RuntimeConfig.from_flags(
            mode=args.mode, n_threads=args.threads, backend=args.backend
        ),
    )
    if session.kind != "java":
        # Exit 1 (analysis error), not 2: the file itself was readable.
        raise ReproError(
            "check requires the mini-Java front-end; the C front-end has "
            "no class/statement structure for the checkers to walk"
        )
    # --checker accepts both repeated flags and comma-separated lists
    # (``--checker taint,escape``).
    selected = [
        cid for raw in (args.checker or [])
        for cid in (part.strip() for part in raw.split(","))
        if cid
    ]
    report = session.check(selected or None)
    renderer = {"text": render_text, "json": render_json, "sarif": render_sarif}
    print(renderer[args.format](report))
    return 1 if report.count_at_or_above(threshold) else 0


def _cmd_serve(args) -> int:
    from repro.serve import serve_command

    return serve_command(args)


def _cmd_bench(args) -> int:
    # Positional experiment names (table1/fig6/...) keep forwarding to
    # the simulator harness; without them, run the wall-clock
    # seq-vs-parallel benchmark, writing only the files named by flags.
    if args.harness_args:
        from repro.harness.run_all import main as harness_main

        return harness_main(args.harness_args)

    from repro.harness import wallclock

    mode = args.mode or "D"
    if mode == "seq":
        raise ReproError("bench measures the parallel modes; --mode seq "
                         "is the built-in baseline of every run")
    backend = args.backend or "mp"
    if backend == "sim":
        raise ReproError(
            "bench measures wall-clock time; the sim backend's clock is "
            "simulated — use --backend mp (or local)"
        )
    if backend == "hybrid":
        raise ReproError(
            "bench measures each engine separately; hybrid just routes "
            "between them by batch size — bench --backend matrix and "
            "--backend mp (or local) directly to locate the crossover"
        )
    if args.workers:
        workers = _parse_workers(args.workers)
    elif args.threads is not None:
        workers = (args.threads,)
    else:
        workers = wallclock.SMOKE_WORKERS if args.smoke else wallclock.DEFAULT_WORKERS

    recorder = _make_recorder(
        args, want_metrics=False, want_spans=args.profile is not None
    )

    payload = wallclock.run(
        benchmarks=args.suite or None,
        workers=workers,
        repeat=args.repeat,
        mode=mode,
        verify=not args.no_verify,
        smoke=args.smoke,
        faults=args.faults,
        backend=backend,
        budget=args.budget,
        warm=args.warm,
        recorder=recorder,
    )
    print(wallclock.render(payload))
    if args.out is not None:
        out = wallclock.write_json(payload, args.out)
        print(f"[written {out}]")
    if args.profile is not None and recorder is not None:
        trace = recorder.write_chrome_trace(args.profile)
        print(f"[trace {trace}: {len(recorder.events())} spans — load in "
              f"about:tracing or ui.perfetto.dev]")
    if recorder is not None:
        _close_recorder(recorder)
    if args.events:
        print(f"[events {args.events}]")

    from repro.harness import history

    if args.history is not None:
        n = history.append_history(payload, args.history)
        print(f"[history {args.history}: +{n} record(s)]")
    compare_report = None
    if args.compare is not None:
        baseline = history.load_baseline(args.compare)
        compare_report = history.compare(
            payload, baseline, threshold=args.regress_threshold
        )
        print(history.render_compare(compare_report))

    if not payload["all_identical"]:
        print("error: parallel answers diverged from seq", file=sys.stderr)
        return 1
    if not payload.get("faults_ok", True):
        print("error: fault drill lost queries or answers diverged",
              file=sys.stderr)
        return 1
    if not payload.get("warm_ok", True):
        print("error: warm start diverged from cold or reused nothing",
              file=sys.stderr)
        return 1
    if compare_report is not None and not compare_report["ok"]:
        print(f"error: perf regression beyond "
              f"{compare_report['threshold']:.0%} vs {args.compare}",
              file=sys.stderr)
        return 3
    return 0


def _parse_workers(text: str) -> Tuple[int, ...]:
    try:
        workers = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ReproError(f"bad worker list {text!r}: expected e.g. '1,2,4'")
    if not workers or any(w < 1 for w in workers):
        raise ReproError(f"bad worker list {text!r}: counts must be >= 1")
    return workers


def _cmd_graph(args) -> int:
    print(_open_session(args).to_dot())
    return 0


def _warm_engine_config(budget: int):
    """The publish-everything configuration both snapshot subcommands
    warm and verify with (τ_F = τ_U = 0: every completed round
    publishes)."""
    from repro.api import EngineConfig

    return EngineConfig(budget=budget, tau_f=0, tau_u=0)


def _cmd_snapshot_save(args) -> int:
    budget = args.budget if args.budget is not None else DEFAULT_BUDGET
    session = _open_session(args, engine=_warm_engine_config(budget))
    for var in session.app_locals():
        session.points_to(var)
    out = args.out or args.file.with_suffix(".snap")
    header = session.snapshot(out)
    print(
        f"[snapshot {out}: {header.n_entries} entries, "
        f"{header.n_nodes} nodes / {header.n_edges} edges, "
        f"fingerprint {header.pag_fingerprint[:12]}]"
    )
    return 0


def _cmd_snapshot_load(args) -> int:
    from repro.api import CFLEngine, EngineConfig, load_snapshot

    session = None
    if args.file is not None:
        session = _open_session(args)
    snap = load_snapshot(
        args.snapshot,
        expect_pag=session.pag if session is not None else None,
    )
    h = snap.header
    print(
        f"[snapshot {args.snapshot}: format v{h.format_version}, "
        f"{h.n_entries} entries, "
        f"{h.n_nodes} nodes / {h.n_edges} edges, "
        f"fingerprint {h.pag_fingerprint[:12]}"
        + (", matches program" if session is not None else "")
        + "]"
    )
    if not args.verify:
        return 0
    if session is None:
        raise ReproError("snapshot load --verify needs --file PROGRAM "
                         "to run the warm-vs-cold comparison against")
    # Verify at the exhaustive budget (as `bench --backend matrix`
    # does) so byte-identity is the determinism contract: finished
    # entries are exact per-round results and unfinished markers can
    # never fire, whatever budget the snapshot was saved under.
    from repro.harness.wallclock import MATRIX_EXACT_BUDGET

    budget = args.budget if args.budget is not None else MATRIX_EXACT_BUDGET
    warm = _open_session(args, engine=_warm_engine_config(budget))
    loaded = warm.warm_from_snapshot(args.snapshot)
    cold = CFLEngine(session.pag, EngineConfig(budget=budget))
    diverged = 0
    hits = 0
    for var in warm.app_locals():
        warm_result = warm.points_to(var)
        hits += warm_result.costs.jmp_taken
        if warm_result.points_to != cold.points_to(var).points_to:
            diverged += 1
            print(f"verify: DIVERGED on {warm.name(var)}",
                  file=sys.stderr)
    verdict = "ok" if diverged == 0 else "FAILED"
    print(f"[verify {verdict}: {loaded} entries warmed, {hits} shortcut "
          f"hits, {diverged} divergent answers]")
    return 0 if diverged == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    from repro.api import BACKENDS, MODES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Demand-driven CFL-reachability pointer analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared parents: the file/front-end arguments, and the run
    # configuration repeated across batch/check/serve/bench.  Defaults
    # are None here, so an unset run flag keeps RuntimeConfig's
    # default, and adding a flag in one place surfaces it uniformly.
    common_file = argparse.ArgumentParser(add_help=False)
    common_file.add_argument("file", type=Path,
                             help="program source (.mj or .c)")
    common_file.add_argument(
        "--language", choices=("java", "c"), default=None,
        help="front-end override (default: by file suffix)",
    )

    common_run = argparse.ArgumentParser(add_help=False)
    common_run.add_argument("--mode", choices=MODES, default=None,
                            help="analysis configuration (Section IV-C)")
    common_run.add_argument("--threads", type=int, default=None,
                            help="worker count")
    common_run.add_argument("--backend", choices=BACKENDS, default=None,
                            help="execution substrate")
    common_run.add_argument("--budget", type=int, default=None,
                            help=f"per-query step budget "
                                 f"(default {DEFAULT_BUDGET})")

    analyze = sub.add_parser("analyze", parents=[common_file],
                             help="answer points-to queries")
    analyze.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    analyze.add_argument("--query", action="append", metavar="VAR@Class.method")
    analyze.add_argument("--ctx", default=None, help="call-string, e.g. '2,5'")
    analyze.add_argument("--context-insensitive", action="store_true")
    analyze.add_argument("--field-based", action="store_true",
                         help="cheap field-based over-approximation")
    analyze.add_argument("--explain", action="store_true",
                         help="print certified flowsTo witnesses")
    analyze.add_argument("--alias", nargs=2, metavar=("A", "B"),
                         help="may-alias query instead of points-to")
    analyze.set_defaults(func=_cmd_analyze)

    # Live-telemetry flags shared by batch and bench (not check: the
    # checkers run one scheduled batch internally and report findings,
    # not runtime telemetry).
    common_telemetry = argparse.ArgumentParser(add_help=False)
    common_telemetry.add_argument(
        "--events", type=Path, default=None, metavar="OUT.jsonl",
        help="append every lifecycle event (dispatch/done/crash/requeue/"
             "heartbeat/...) as one JSON object per line",
    )
    common_telemetry.add_argument(
        "--progress", action="store_true",
        help="render a live one-line progress report on stderr",
    )

    batch = sub.add_parser("batch",
                           parents=[common_file, common_run, common_telemetry],
                           help="run the parallel batch modes")
    batch.add_argument("--metrics", action="store_true",
                       help="print the observability counter table and "
                            "the hot-query report")
    batch.add_argument("--metrics-json", action="store_true",
                       help="print the counters as JSON")
    batch.set_defaults(func=_cmd_batch)

    check = sub.add_parser("check", parents=[common_file, common_run],
                           help="run the client checkers")
    check.add_argument(
        "--checker", action="append", metavar="ID[,ID...]",
        help="checker id(s) to run (repeatable or comma-separated; "
             "default: all registered)",
    )
    check.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
    )
    check.add_argument(
        "--severity", choices=("note", "warning", "error"), default="warning",
        help="exit nonzero when a finding at/above this level exists",
    )
    check.set_defaults(func=_cmd_check)

    serve = sub.add_parser(
        "serve", parents=[common_file, common_run],
        help="boot the resident analysis daemon (HTTP, repro.serve)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8177,
                       help="bind port (0 = ephemeral, printed at boot)")
    serve.add_argument("--snapshot", type=Path, default=None, metavar="SNAP",
                       help="warm-boot the resident state from a "
                            "`repro snapshot save` file")
    serve.add_argument("--max-pending", type=int, default=64,
                       dest="max_pending", metavar="N",
                       help="admission queue bound; 429 beyond it")
    serve.add_argument("--batch-window", type=int, default=32,
                       dest="batch_window", metavar="N",
                       help="max client jobs multiplexed into one batch")
    serve.add_argument("--client-budget", type=int, default=None,
                       dest="client_budget", metavar="STEPS",
                       help="per-client cumulative step budget; 429 once "
                            "exhausted (default: unlimited)")
    serve.add_argument("--drain-grace", type=float, default=30.0,
                       dest="drain_grace", metavar="SECS",
                       help="max wait for in-flight jobs on drain")
    serve.set_defaults(func=_cmd_serve)

    graph = sub.add_parser("graph", parents=[common_file],
                           help="emit the PAG as Graphviz DOT")
    graph.set_defaults(func=_cmd_graph)

    snapshot = sub.add_parser(
        "snapshot", help="save/load warm-start snapshots")
    snap_sub = snapshot.add_subparsers(dest="snapshot_command", required=True)
    snap_save = snap_sub.add_parser(
        "save", parents=[common_file],
        help="warm a session over the program and write FILE.snap")
    snap_save.add_argument("--out", type=Path, default=None, metavar="SNAP",
                           help="snapshot path (default: FILE with .snap)")
    snap_save.add_argument("--budget", type=int, default=None,
                           help=f"warming per-query budget "
                                f"(default {DEFAULT_BUDGET})")
    snap_save.set_defaults(func=_cmd_snapshot_save)
    snap_load = snap_sub.add_parser(
        "load", help="validate a snapshot; optionally verify warm answers")
    snap_load.add_argument("snapshot", type=Path, help="snapshot file")
    snap_load.add_argument("--file", type=Path, default=None,
                           metavar="PROGRAM",
                           help="program source to check the PAG "
                                "fingerprint against")
    snap_load.add_argument("--language", choices=("java", "c"), default=None,
                           help="front-end override (default: by file suffix)")
    snap_load.add_argument("--verify", action="store_true",
                           help="replay the snapshot and assert warm answers "
                                "byte-identical to a cold engine (needs "
                                "--file; exit 1 on divergence)")
    snap_load.add_argument("--budget", type=int, default=None,
                           help="verify budget (default: exhaustive)")
    snap_load.set_defaults(func=_cmd_snapshot_load)

    bench = sub.add_parser(
        "bench", parents=[common_run, common_telemetry],
        help="wall-clock seq-vs-parallel benchmark (default) or, with "
             "an experiment name, the paper's tables/figures",
    )
    bench.add_argument("--smoke", action="store_true",
                       help="CI-sized run: 3 small suites, 1-2 workers")
    bench.add_argument("--warm", action="store_true",
                       help="add the cold-vs-warm axis: snapshot the cold "
                            "run, reload, re-run warm; gate on byte-identity "
                            "and nonzero reuse")
    bench.add_argument("--faults", action="store_true",
                       help="add the fault-injection drill: kill 1 of 4 "
                            "workers mid-batch, assert zero lost queries "
                            "and >= 1 retried chunk per suite")
    bench.add_argument("--profile", type=Path, default=None, metavar="TRACE",
                       help="record spans+counters; write Chrome-trace "
                            "JSON here (about:tracing / Perfetto)")
    bench.add_argument("--suite", action="append", metavar="NAME",
                       help="restrict to this suite entry (repeatable)")
    bench.add_argument("--workers", default=None, metavar="LIST",
                       help="comma-separated worker counts (default 1,2,4,8; "
                            "--threads N is shorthand for one count)")
    bench.add_argument("--repeat", type=int, default=1,
                       help="timing repetitions per configuration (best-of)")
    bench.add_argument("--no-verify", action="store_true",
                       help="skip the seq-vs-parallel identity check")
    bench.add_argument("--out", type=Path, default=None,
                       help="write the payload JSON here (default: no file)")
    bench.add_argument("--compare", type=Path, default=None,
                       metavar="BASELINE.json",
                       help="perf-regression gate: diff against this bench "
                            "payload, exit 3 past the threshold")
    bench.add_argument("--regress-threshold", type=float, default=0.25,
                       metavar="FRAC",
                       help="relative slowdown tolerated by --compare "
                            "(default 0.25 = 25%%)")
    bench.add_argument("--history", type=Path, default=None,
                       help="append run records to this JSONL file "
                            "(default: no file)")
    bench.add_argument("harness_args", nargs=argparse.REMAINDER,
                       help="table1/table2/fig6/... forwards to repro.harness")
    bench.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReproError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
