"""The four workloads.  Each returns a :class:`Phase`: end-to-end
metrics, answer checks, and (when traced) per-layer metrics plus the
reconciled self-time table.

Timing rules shared by all of them:

* a warm-up operation runs first and is not recorded;
* ``gc.collect()`` runs before every timed set-up and batch;
* every repetition starts from program text in a fresh ``Session``, so
  every set-up and every batch sample is cold;
* passes repeat until the next one would overrun ``seconds`` (at least
  ``min_reps``), and metrics are medians across passes; batch programs
  are shuffled per pass so that a slow host phase hits all of them;
* the host speed is read right before each sample, where nothing else
  of the benchmark runs, and every sample is kept both raw and scaled
  to reference time (``stats.HostSpeed``).
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import MetricsRecorder, RuntimeConfig, Session, spec_of
from repro.core.scheduling import prefer_bulk
from repro.serve import ServeClient, ServeRejected

from perfbench import inputs, stats
from perfbench.inputs import Edit, EditProgram, ProgramText
from perfbench.oracle import Oracle
from perfbench.trace import (
    Span, Tracer, attribute, delegate, layer_metrics, merge, self_segments, thread_table,
)

perf = time.perf_counter


@dataclass
class Phase:
    """What one measured phase produced."""

    #: Host-speed-scaled metrics (see ``stats.HostSpeed``): the gated ones.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: The same metrics from raw wall-clock times, for the printed report.
    wall: Dict[str, float] = field(default_factory=dict)
    #: Sample counts behind the metrics, for the printed table.
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Answers the oracle rejected (a subset of ``failed``).
    wrong: int = 0
    answered: int = 0
    decided: int = 0
    #: Traced phases only: per-layer metrics and (root wall, layer seconds).
    layers: Optional[Dict[str, float]] = None
    table: Optional[Tuple[float, Dict[str, float]]] = None
    errors: List[str] = field(default_factory=list)

    def note(self, what: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.note(what)

    def check(self, oracle: Oracle, var: str, objects, exhausted: bool) -> bool:
        """Count one answer; False if the oracle rejects it (the caller
        fails the operation it belongs to)."""
        self.answered += 1
        self.decided += not exhausted
        objects = list(objects)
        if oracle.admits(var, objects):
            return True
        self.wrong += 1
        self.note(f"oracle rejects {var} -> {sorted(objects)}")
        return False


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer else nullcontext()


#: A timed sample: (raw wall seconds, host-speed-scaled seconds).
Sample = Tuple[float, float]


def _scaled(wall: float, host: stats.HostSpeed) -> Sample:
    return (wall, wall * host.scale)


def _timing(phase: Phase, setups: Sequence[Sample], requests: Sequence[Sample],
            ops: int, busy: Sample, percentiles: bool) -> None:
    """Set the time metrics twice, host-scaled (gated) and raw:
    ``setup_s`` is the median set-up, ``ops_per_s`` is ``ops`` over the
    ``busy`` time, and the latency metrics summarise ``requests``."""
    for k, out in ((1, phase.metrics), (0, phase.wall)):
        reqs = [r[k] for r in requests]
        out["setup_s"] = stats.median([x[k] for x in setups])
        out["ops_per_s"] = ops / busy[k]
        out["batch_ms_gmean"] = 1000.0 * stats.gmean(reqs)
        if percentiles:
            out["req_p50_ms"] = 1000.0 * stats.median(reqs)
            if len(reqs) >= 100:
                out["req_p90_ms"] = 1000.0 * stats.p90(reqs)
    phase.samples["setup"] = len(setups)
    phase.samples["req"] = len(requests)
    phase.metrics["decided_frac"] = phase.wall["decided_frac"] = (
        phase.decided / max(1, phase.answered))


def _keep_going(started: float, last: float, seconds: float, done: int, min_reps: int) -> bool:
    return done < min_reps or perf() - started + last <= seconds


def _sum(samples: Sequence[Sample]) -> Sample:
    return (sum(s[0] for s in samples), sum(s[1] for s in samples))


# ----------------------------------------------------------------------
# batch_mp / batch_hybrid
# ----------------------------------------------------------------------
def run_batch(workload: str, backend: str, programs: Sequence[ProgramText],
              oracles: Dict[str, Oracle], seed: int, seconds: float,
              tracer: Optional[Tracer], min_reps: int) -> Phase:
    """Cold ``Session.batch`` of all application locals per program, on
    mode DQ with two workers, at each suite's budget."""
    phase = Phase()
    host = stats.HostSpeed()
    runtime = RuntimeConfig(mode="DQ", n_threads=2, backend=backend)
    rec = MetricsRecorder() if tracer else None
    by_name = {p.name: p for p in programs}
    names = [p.name for p in programs]
    counters: Counter = Counter()
    walls: Dict[str, List[Sample]] = {n: [] for n in names}
    n_queries: Dict[str, int] = {}
    pag_size: Counter = Counter()
    setups: List[Sample] = []

    def one(name: str, index: int, record: bool) -> Sample:
        """Set up and batch one program; returns the set-up sample."""
        prog = by_name[name]
        host.probe(force=True)
        gc.collect()
        t0 = perf()
        with _span(tracer if record else None, "bench.setup"):
            session = Session.from_source(
                prog.text, runtime=runtime,
                engine=spec_of(name).engine_config(), recorder=rec,
            )
        setup = _scaled(perf() - t0, host)
        nodes = session.app_locals()
        queries = session.queries(
            [nodes[i] for i in inputs.query_order(seed, workload, index, name, len(nodes))]
        )
        gc.collect()
        mark = rec.mark() if rec else None
        t0 = perf()
        try:
            with _span(tracer if record else None, "bench.batch"):
                batch = session.batch(queries)
        except Exception:  # counted and reported; the run goes on
            if record:
                phase.attempted += len(queries)
                phase.fail(traceback.format_exc(limit=3))
            return setup
        wall = perf() - t0
        # A batch the hybrid router sends to the matrix kernel is numpy
        # work, which the pure-Python reference loop does not describe:
        # scaling it widened the run-to-run spread, so it stays raw.
        wall_sample = (wall, wall) if backend == "hybrid" and prefer_bulk(len(queries)) \
            else _scaled(wall, host)
        if not record:
            return setup
        if rec:
            counters.update(rec.since(mark))
        walls[name].append(wall_sample)
        n_queries[name] = len(queries)
        pag = session.pag
        by_query = batch.results_by_query()
        for q in queries:
            phase.attempted += 1
            res = by_query.get((pag.rep(q.var), q.ctx))
            if res is None:
                phase.fail(f"{name}: lost query {pag.name(q.var)}")
                continue
            if not phase.check(oracles[name], pag.name(q.var),
                               [pag.name(o) for o in res.objects], res.exhausted):
                phase.failed += 1
        if index == 0:
            pag_size.update({"pag.nodes": pag.n_nodes, "pag.edges": pag.n_edges})
        session.close()
        return setup

    one(min(names, key=lambda n: len(by_name[n].text)), -1, record=False)  # warm-up
    if tracer:
        tracer.spans.clear()
    started, last, index = perf(), 0.0, 0
    while _keep_going(started, last, seconds, index, min_reps):
        t_pass = perf()
        setups.append(_sum([one(n, index, True)
                            for n in inputs.pass_order(seed, workload, index, names)]))
        last = perf() - t_pass
        index += 1

    measured = [n for n in names if walls[n]]
    if not measured:
        return phase
    medians = [(stats.median([w[0] for w in walls[n]]), stats.median([w[1] for w in walls[n]]))
               for n in measured]
    _timing(phase, setups, medians, sum(n_queries[n] for n in measured), _sum(medians),
            percentiles=False)
    phase.samples["passes"] = index
    rss = stats.maxrss_mb()
    if backend == "mp":
        rss += stats.maxrss_mb(children=True)
    phase.metrics["peak_rss_mb"] = phase.wall["peak_rss_mb"] = rss
    if tracer:
        phase.table = thread_table(tracer.spans)
        phase.layers = layer_metrics(
            tracer.spans, dict(counters), sum(len(w) for w in walls.values()),
            phase.table[1].get("unattributed", 0.0), dict(pag_size),
        )
    return phase


# ----------------------------------------------------------------------
# edit_session
# ----------------------------------------------------------------------
def _apply(session: Session, edit: Edit) -> None:
    """Replay one withheld statement through the session's edit API."""
    dst = session.resolve(edit.spec(edit.dst))
    src = session.resolve(edit.spec(edit.src))
    seq = session.seq
    if edit.kind == "assign":
        seq.add_assign_edge(dst, src)
    elif edit.kind == "load":
        seq.add_load_edge(dst, src, edit.field)
    else:
        seq.add_store_edge(dst, edit.field, src)


def run_edit(programs: Dict[str, EditProgram], order: Sequence[Edit],
             oracles: Dict[str, Oracle], seconds: float,
             tracer: Optional[Tracer], min_reps: int) -> Phase:
    """Rounds of: open each edited program (text -> Session -> points-to
    of every application local, timed as set-up), then one transaction
    per withheld statement: the edit, points-to of every local of the
    edited method, and a traced points-to of the edit's target."""
    phase = Phase()
    host = stats.HostSpeed()
    rec = MetricsRecorder() if tracer else None
    counters: Counter = Counter()
    setups: List[Sample] = []
    walls: List[Sample] = []
    pag_size: Dict[str, float] = {}

    def open_all(record: bool) -> Dict[str, Tuple[Session, Dict[str, List[int]]]]:
        sessions = {}
        parts: List[Sample] = []
        for name, prog in programs.items():
            host.probe(force=True)
            gc.collect()
            t0 = perf()
            with _span(tracer if record else None, "bench.setup"):
                session = Session.from_source(
                    prog.text, engine=spec_of(name).engine_config(), recorder=rec
                )
                first = [(v, session.points_to(v)) for v in session.app_locals()]
            parts.append(_scaled(perf() - t0, host))
            pag = session.pag
            if record:
                phase.attempted += 1
                rejected = [v for v, r in first if not oracles[name].admits(
                    pag.name(v), [pag.name(o) for o in r.objects])]
                if rejected:
                    phase.wrong += len(rejected)
                    phase.fail(f"{name}: oracle rejects set-up answers for "
                               f"{[pag.name(v) for v in rejected[:3]]}")
            by_method: Dict[str, List[int]] = {}
            for v in session.app_locals():
                by_method.setdefault(pag.method_of(v), []).append(v)
            sessions[name] = (session, by_method)
        if record:
            setups.append(_sum(parts))
        return sessions

    def transaction(session: Session, by_method, edit: Edit) -> None:
        pag = session.pag
        oracle = oracles[edit.program]
        host.probe()
        mark = rec.mark() if rec else None
        t0 = perf()
        with _span(tracer, "bench.txn"):
            _apply(session, edit)
            answers = [(v, session.points_to(v)) for v in by_method.get(edit.method, ())]
            target, _witnesses = session.trace_points_to(edit.spec(edit.dst))
        walls.append(_scaled(perf() - t0, host))
        if rec:
            counters.update(rec.since(mark))
        checks = [
            phase.check(oracle, pag.name(v), [pag.name(o) for o in r.objects], r.exhausted)
            for v, r in answers
        ]
        checks.append(phase.check(oracle, edit.spec(edit.dst),
                                  [pag.name(o) for o in target.objects], target.exhausted))
        if not all(checks):
            phase.failed += 1

    # warm-up: one opening and a handful of edits, not recorded
    warm = open_all(record=False)
    for edit in order[:5]:
        session, _ = warm[edit.program]
        _apply(session, edit)
        session.trace_points_to(edit.spec(edit.dst))
    del warm
    if tracer:
        tracer.spans.clear()
    started, last, rounds = perf(), 0.0, 0
    while _keep_going(started, last, seconds, rounds, min_reps):
        t_round = perf()
        sessions = open_all(record=True)
        if rounds == 0:
            pag_size = {
                "pag.nodes": sum(s.pag.n_nodes for s, _ in sessions.values()),
                "pag.edges": sum(s.pag.n_edges for s, _ in sessions.values()),
            }
        gc.collect()
        for edit in order:
            session, by_method = sessions[edit.program]
            phase.attempted += 1
            try:
                transaction(session, by_method, edit)
            except Exception:  # counted and reported; the run goes on
                phase.fail(traceback.format_exc(limit=3))
        del sessions
        last = perf() - t_round
        rounds += 1

    if not walls:
        return phase
    _timing(phase, setups, walls, len(walls), _sum(walls), percentiles=True)
    phase.samples["rounds"] = rounds
    phase.metrics["peak_rss_mb"] = phase.wall["peak_rss_mb"] = stats.maxrss_mb()
    if tracer:
        phase.table = thread_table(tracer.spans)
        phase.layers = layer_metrics(
            tracer.spans, dict(counters), len(walls),
            phase.table[1].get("unattributed", 0.0), pag_size,
        )
    return phase


# ----------------------------------------------------------------------
# serve_hover
# ----------------------------------------------------------------------
#: Requests sent before measuring starts.
SERVE_WARMUP = 20
#: Requests go out in bursts of this length; the host speed is read
#: between bursts, while the client and the daemon are idle.
SERVE_BURST_S = 2.0


class Daemon:
    """One ``repro serve`` process, booted warm from a snapshot."""

    def __init__(self, cmd: List[str], env: Dict[str, str], cwd: Path) -> None:
        self.proc = subprocess.Popen(
            cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self.output: List[str] = []
        port = None
        for line in self.proc.stdout:
            self.output.append(line)
            if "serving" in line and "http://" in line:
                port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
                break
        if port is None:
            self.proc.wait(timeout=30)
            raise RuntimeError("repro serve exited before serving:\n" + "".join(self.output))
        self.client = ServeClient("127.0.0.1", port, client_id="bench")
        try:
            self.client.healthz()
        except ServeRejected:
            self.kill()
            raise

    def stop(self) -> bool:
        """Graceful drain; True when the daemon drained and exited 0."""
        try:
            self.client.drain()
            out, _ = self.proc.communicate(timeout=60)
        except (ServeRejected, subprocess.TimeoutExpired):
            self.kill()
            return False
        self.output.append(out)
        return self.proc.returncode == 0

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def run_serve(prog: ProgramText, snap: Path, workdir: Path, env: Dict[str, str],
              oracle: Oracle, seed: int, seconds: float, traced: bool,
              launches: int, launcher: Path) -> Phase:
    """Boot ``repro serve --snapshot`` ``launches`` times (timed until
    /healthz answers), then drive the last daemon with one closed-loop
    client sending single-target points-to requests.

    One client, not several: two closed-loop clients lock into either
    always sharing a daemon batch or always queueing behind each other,
    and which one a run falls into moved throughput and latency by a
    fifth between runs of identical code.

    This process and the daemon it starts are pinned to one CPU for the
    phase, so that a host-speed reading taken here between requests
    describes the CPU the daemon runs on.  (Unpinned, the two processes
    spread over two vCPUs whose speeds drift apart, and scaling by a
    reading taken here doubled the spread.)  The loop is closed, so
    pinning costs the daemon no parallelism it had: under its
    interpreter lock it runs one thread at a time anyway."""
    phase = Phase()
    host = stats.HostSpeed()
    src = workdir / f"{prog.name}.mj"
    args = ["serve", str(src), "--port", "0", "--budget", str(prog.budget),
            "--snapshot", str(snap)]
    setups: List[Sample] = []
    span_files: List[Path] = []
    #: per request: (target, send time, reply time, host scale, reply)
    records: List[Tuple[str, float, float, float, object]] = []
    daemon: Optional[Daemon] = None
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # the daemon inherits it
    try:
        for i in range(launches):
            if traced:
                span_files.append(workdir / f"spans-{i}.json")
                cmd = [sys.executable, str(launcher), str(span_files[-1]), *args]
            else:
                cmd = [sys.executable, "-m", "repro", *args]
            host.probe(force=True)
            gc.collect()
            t0 = perf()
            daemon = Daemon(cmd, env, workdir)
            setups.append(_scaled(perf() - t0, host))
            if i + 1 < launches:
                phase.attempted += 1
                if not daemon.stop():
                    phase.fail("graceful drain failed (set-up launch)")
        assert daemon is not None
        client = daemon.client
        targets = [t["name"] for t in client.targets()]
        draws = inputs.zipf_draws(seed, targets, 20000)
        for spec in draws[:SERVE_WARMUP]:
            client.points_to([spec])
        before = client.metricz() if traced else {}
        i = SERVE_WARMUP
        start = perf()
        while perf() - start < seconds:
            host.probe(force=True)
            until = min(start + seconds, perf() + SERVE_BURST_S)
            while perf() < until:
                spec = draws[i % len(draws)]
                i += 1
                t0 = perf()
                try:
                    reply: object = client.points_to([spec])
                except ServeRejected as exc:
                    reply = exc
                records.append((spec, t0, perf(), host.scale, reply))
        window_end = perf()
        after = client.metricz() if traced else {}
        health = client.healthz()
        rss = stats.vm_hwm_mb(daemon.proc.pid)
        phase.attempted += 1
        stopping, daemon = daemon, None
        if not stopping.stop():
            phase.fail("graceful drain failed")
    finally:
        if daemon is not None:
            daemon.kill()
        os.sched_setaffinity(0, cpus)

    walls: List[Sample] = []
    intervals: List[Tuple[float, float]] = []
    for spec, t0, t1, scale, reply in records:
        phase.attempted += 1
        if isinstance(reply, ServeRejected):
            phase.fail(f"{spec}: HTTP {reply.status} {reply.reason}")
            continue
        if len(reply) != 1 or reply[0]["query"] != spec:
            phase.fail(f"{spec}: lost query")
            continue
        if not phase.check(oracle, spec, reply[0]["objects"], reply[0]["exhausted"]):
            phase.failed += 1
            continue
        walls.append((t1 - t0, (t1 - t0) * scale))
        intervals.append((t0, t1))
    if not walls:
        return phase
    waited = _sum([(t1 - t0, (t1 - t0) * scale) for _, t0, t1, scale, _ in records])
    _timing(phase, setups, walls, len(walls), waited, percentiles=True)
    phase.metrics["peak_rss_mb"] = phase.wall["peak_rss_mb"] = rss
    if traced:
        spans = [Span(*s) for f in span_files for s in json.loads(f.read_text())]
        _serve_layers(phase, spans, intervals, start, window_end, before, after, health)
    return phase


def _serve_layers(phase: Phase, spans: List[Span], requests: List[Tuple[float, float]],
                  start: float, end: float, before: Dict[str, int],
                  after: Dict[str, int], health: Dict[str, object]) -> None:
    """Reconcile client round trips with the daemon's spans: the part
    of a round trip outside ``submit_queries`` is HTTP; the part of a
    submit outside any dispatcher work is queueing; the rest is split
    by the dispatcher thread's innermost span."""
    inside = [s for s in spans if start <= s.start and s.end <= end]
    submits = [(s.start, s.end) for s in inside if s.name == "serve.submit"]
    dispatch = {s.tid for s in inside if s.name == "api.batch"}
    workers = merge([(s.start, s.end) for s in inside
                     if s.name == "engine.query" and s.tid not in dispatch])
    segments = delegate(
        self_segments([s for s in inside if s.tid in dispatch]),
        "runtime.threaded", workers, "engine.query",
    )
    rows = attribute(submits, segments)
    rtt = sum(b - a for a, b in requests)
    submit = sum(b - a for a, b in submits)
    rows["serve.http"] = rtt - submit
    rows["serve.wait"] = submit - sum(v for k, v in rows.items() if k != "serve.http")
    phase.table = (rtt, rows)
    counters = {k: v - before.get(k, 0) for k, v in after.items()}
    n = len(requests)
    extra = {
        "pag.nodes": health["n_nodes"], "pag.edges": health["n_edges"],
        "snapshot.bytes": before.get("snapshot.bytes", 0),
        "snapshot.entries_loaded": before.get("snapshot.entries_loaded", 0),
        "serve.batch_ms": 1000.0 * statistics.fmean(
            [s.dur for s in inside if s.name == "api.batch"] or [0.0]),
        "serve.wait_ms": 1000.0 * rows["serve.wait"] / max(1, len(submits)),
        "serve.http_ms": 1000.0 * rows["serve.http"] / n,
    }
    # set-up spans (parse, build, snapshot load) come from every launch
    setup = [s for s in spans if s.name in ("ir.parse", "pag.build", "pag.callgraph",
                                            "snapshot.load")]
    phase.layers = layer_metrics(inside + setup, counters, n, 0.0, extra)
