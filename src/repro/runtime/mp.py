"""True multiprocess executor — wall-clock parallel CFL-reachability.

This is the backend that escapes the GIL: each worker is an OS process
owning a private :class:`~repro.core.engine.CFLEngine` over the one
:class:`~repro.pag.graph.PAG`, leg index built.  The graph reaches each
worker exactly once — inherited copy-on-write under the ``fork`` start
method where the platform has it, else pickled one time as a process
argument under ``spawn`` — and is never re-serialised per work unit.
Workers only read it, and live for one batch, so an edit between
batches reaches the next batch's workers.

Data sharing (the paper's ``ConcurrentHashMap``, Section IV-A) becomes
**epoch-based jump-map synchronisation**:

* the coordinator runs a batch on its runner's store map (a sharing
  batch is handed one, see :meth:`MPExecutor.run_units`) and keeps the
  batch's append-only **commit log**: the map's
  :meth:`~repro.core.jumpmap.JumpMap.export_log` at batch start, then
  every entry a merge accepts.  A log index is an *epoch*;
* every worker holds one :class:`JournalingJumpMap`: a :class:`JumpMap`
  that appends each entry it accepts to its ``log``.  A worker's
  queries read and write its map directly, one at a time;
  the entries its map accepted while running a chunk — its log since
  the chunk's incoming suffix was replayed — are the chunk's outgoing
  **delta**;
* a completed chunk ships its delta back with the results; the
  coordinator replays it into its map (:meth:`JumpMap.replay` — the
  first writer wins, finished clears unfinished) and appends the
  *accepted* entries to the commit log;
* the next chunk dispatched to a worker carries the log suffix since
  that worker's last-seen epoch, growing its map to the coordinator's
  view before any new query runs.  A worker's first chunk carries the
  whole log, the map's entries from before the batch included.

Every one of these writes is the same replay routine, and every log is
the record of what a map accepted, so a worker's map, the
coordinator's map and its log agree by construction.

Visibility is commit order (DESIGN.md §4): a query observes the jump
edges committed by chunks whose results reached the coordinator before
its chunk was dispatched, plus those written by earlier queries of its
own worker — the distributed analogue of the lock-striped in-memory
map, with identical first-writer-wins / finished-clears-unfinished
conflict resolution.

Fault tolerance
---------------

A worker death must cost the batch a requeue, never an answer.  The
coordinator tracks **chunk ownership**: every dispatched chunk is
*in flight* on exactly one worker until its ``("done", ...)`` message
arrives.  A worker that exits (``EOFError`` on the pipe), reports an
exception, sends a malformed message, or blows the per-unit deadline
(``unit_timeout``) is terminated; its in-flight chunk is **requeued**
to the front of the work list, and the slot is **respawned** with
exponential backoff until the respawn budget (``max_respawns``) runs
out.  A chunk requeued more than ``max_chunk_retries`` times is a
*poison chunk*: it is **quarantined** and executed inline by the
coordinator (sequential, in-process), so even a chunk that reliably
kills workers still gets answered.  If every worker is gone and the
respawn budget is spent, the remaining work is drained inline the same
way — ``run_units`` completes the batch instead of aborting.

Epoch safety under requeue: a worker's ``sent_epoch`` advances only
after a dispatch **send succeeds**, or past the entries its own
returned delta just appended when it was current before that merge
(it holds them already, so they are never shipped back to it).  A
respawned slot restarts from epoch 0 (it receives the full log with
its first chunk), and a requeued chunk simply re-ships the log suffix
for its new owner.
Re-executed or duplicated deltas are harmless because the merge is
idempotent (first writer wins); at worst a retried chunk observes a
*later* epoch than its first attempt did — still a valid commit-order
view, the same latitude any dispatch-order change already has.  Crash
recovery therefore keeps shared-mode answers inside the commit-order
model and leaves share-nothing answers byte-identical to ``SeqCFL``
(each query is a pure function of the graph).

Failures injectable via :mod:`repro.runtime.faults` exercise every one
of these paths in the tests and in ``repro bench --faults``; outcomes
are reported per chunk in ``BatchResult.chunk_status`` (``completed`` /
``retried`` / ``quarantined``) with ``n_worker_crashes`` /
``n_chunk_retries`` / ``n_worker_respawns`` counters and the recovered
crash texts in ``BatchResult.errors``.

Live telemetry
--------------

When the attached recorder is a
:class:`~repro.obs.timeline.TimelineRecorder` (it sets
``heartbeat_interval``), workers **piggyback heartbeats on the result
pipe**: one ``("hb", worker, chunk, sample)`` message on chunk receipt
and then at most one per ``heartbeat_interval`` at query boundaries —
no new IPC primitive, no timer thread in the worker.  The coordinator
folds each sample into the timeline (annotated with that worker's
epoch lag) and runs **stall detection**: a worker holding in-flight
work that has been silent — no heartbeat, no result — for longer than
``stall_after`` is flagged with a ``stall`` event *before* any
``unit_timeout`` requeue fires, turning "the batch is slow" into "the
batch is slow because worker 3 went quiet on chunk 17".  Every
lifecycle transition (dispatch, done, crash, requeue, respawn,
quarantine, epoch ship) is mirrored as a timeline event, optionally
streamed to a JSONL log (``repro bench --events``).  Without a
timeline recorder none of this code runs — heartbeat sends are gated
worker-side on the interval the coordinator passed at spawn.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.engine import CFLEngine, EngineConfig
from repro.core.jumpmap import DeltaEntry, JumpMap
from repro.pag.extended import FinishedJump, JumpKey
from repro.core.query import Query
from repro.errors import WorkerCrash
from repro.obs.recorder import MetricsRecorder
from repro.pag.graph import PAG
from repro.runtime.config import RuntimeConfig
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.results import BatchResult, QueryExecution

__all__ = ["MPExecutor", "JournalingJumpMap", "WorkerCrash", "COORDINATOR"]

#: Pseudo worker id recorded on executions the coordinator ran inline
#: (quarantined chunks and the no-workers-left drain).
COORDINATOR = -1

#: Delay before a slot's first respawn, in seconds; it doubles with
#: each further respawn of that slot, up to RESPAWN_BACKOFF_CAP_S.
RESPAWN_BACKOFF_S = 0.05
RESPAWN_BACKOFF_CAP_S = 1.0


class JournalingJumpMap(JumpMap):
    """A :class:`JumpMap` that records every entry it accepts, in order.

    ``log`` holds the accepted inserts and replayed entries as
    :data:`DeltaEntry` values, so replaying it into a fresh
    :class:`JumpMap` rebuilds this map, and a suffix of it is exactly
    what a copy that saw the prefix is missing.  A worker's map lives
    for one batch and is never invalidated, so the log holds at most
    one ``unf`` and one ``fin`` entry per key.
    """

    def __init__(self) -> None:
        super().__init__()
        self.log: List[DeltaEntry] = []

    def insert_finished(self, key: JumpKey, edges: Tuple[FinishedJump, ...]) -> bool:
        if not super().insert_finished(key, edges):
            return False
        self.log.append(("fin", key, edges))
        return True

    def insert_unfinished(self, key: JumpKey, steps: int) -> bool:
        if not super().insert_unfinished(key, steps):
            return False
        self.log.append(("unf", key, steps))
        return True


#: ``fork`` where the platform has it (workers inherit the graph
#: copy-on-write), else ``spawn``.
try:
    _MP_CONTEXT = multiprocessing.get_context("fork")
except ValueError:
    _MP_CONTEXT = multiprocessing.get_context("spawn")


def _worker_main(conn, pag, engine_config, sharing: bool,
                 worker_id: int = 0, faults: Optional[FaultPlan] = None,
                 collect_metrics: bool = False,
                 hb_interval: Optional[float] = None) -> None:
    """Worker loop: receive ("unit", chunk_id, units, delta) messages,
    answer with ("done", chunk_id, records, delta, metrics) until told
    to stop.  Runs in a child process.

    ``metrics`` is ``None`` unless the coordinator asked for metrics
    (``collect_metrics``), in which case it is a fresh per-chunk
    :class:`~repro.obs.MetricsRecorder` snapshot — counters ride the
    existing result pipe and are merged coordinator-side, so a crashed
    worker loses at most its in-flight chunk's counters (exactly as it
    loses that chunk's answers, which are then recomputed elsewhere).

    With ``hb_interval`` set the worker also piggybacks heartbeat
    messages on the same pipe: one on every chunk receipt (so even the
    fastest chunk contributes a liveness sample) and then at most one
    per interval, checked at query boundaries only — a hung or crashed
    worker simply goes silent, which is exactly the signal the
    coordinator's stall detection consumes.
    """
    jumps = JournalingJumpMap() if sharing else None
    log: List[DeltaEntry] = jumps.log if sharing else []
    injector = FaultInjector(faults, worker_id, conn) if faults else None
    perf = time.perf_counter
    chunk_id: Optional[int] = None
    queries_done = 0
    units_done = 0
    last_hb = 0.0

    def beat() -> None:
        nonlocal last_hb
        last_hb = perf()
        try:
            conn.send(("hb", worker_id, chunk_id, {
                "queries_done": queries_done,
                "units_done": units_done,
            }))
        except (BrokenPipeError, OSError):
            pass  # the coordinator is gone; the main recv will notice

    try:
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                return
            _tag, chunk_id, unit_chunk, delta = msg
            if sharing:
                # Idempotent: entries the worker already owns lose
                # first-writer-wins and are dropped.
                jumps.replay(delta)
            mark = len(log)
            if hb_interval:
                beat()
            wrec = MetricsRecorder() if collect_metrics else None
            records: List[Tuple[object, float, float]] = []
            for unit in unit_chunk:
                if injector is not None:
                    injector.on_unit_start()
                for query in unit:
                    if hb_interval and perf() - last_hb >= hb_interval:
                        beat()
                    engine = CFLEngine(pag, engine_config, jumps=jumps,
                                       recorder=wrec)
                    t0 = perf()
                    result = engine.run_query(query)
                    t1 = perf()
                    records.append((result, t0, t1))
                    queries_done += 1
                units_done += 1
                if injector is not None:
                    injector.on_unit_end()
            metrics = wrec.snapshot() if wrec is not None else None
            # Ship what the worker's map accepted during the chunk (an
            # insert it rejected lost a local first-writer-wins race;
            # its winner already shipped, or ships with this delta).
            conn.send(("done", chunk_id, records, log[mark:], metrics))
    except EOFError:
        return  # coordinator went away; die quietly
    except BaseException:
        try:
            conn.send(("error", chunk_id, traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


class MPExecutor:
    """Runs query batches on ``runtime.effective_threads`` OS processes.

    ``units`` is the shared work list (one query list per fetch, as for
    the other executors); units are dispatched in order,
    ``runtime.chunk_size`` per message, to whichever worker is idle.
    Timing is real: ``BatchResult.makespan`` is wall-clock seconds for
    the whole batch and each :class:`QueryExecution` carries the
    worker's measured per-query times.

    The recovery knobs (see the module docstring for the state machine)
    are :class:`~repro.runtime.config.RuntimeConfig` fields, read from
    ``runtime``: ``max_chunk_retries`` (requeues a chunk survives
    before it is quarantined and run inline by the coordinator),
    ``max_respawns`` (total worker respawns across the batch, ``None``:
    twice the spawned workers; the per-slot delay backs off
    exponentially from :data:`RESPAWN_BACKOFF_S`, capped at
    :data:`RESPAWN_BACKOFF_CAP_S`),
    ``unit_timeout`` (per-chunk deadline in seconds past which a worker
    is treated as wedged, ``None``: no deadline) and ``faults`` (a
    :class:`~repro.runtime.faults.FaultPlan` shipped to workers for
    fault-injection runs).
    """

    def __init__(
        self,
        pag: PAG,
        runtime: RuntimeConfig,
        engine_config: Optional[EngineConfig] = None,
        recorder=None,
    ) -> None:
        self.pag = pag
        # Build the engine's leg and field indexes once here, so
        # fork-started workers inherit them (and spawn-started ones
        # unpickle them) instead of each building their own.
        pag.rows(False)
        pag.field_bases("stores_by_field")
        self.runtime = runtime
        self.engine_config = engine_config or EngineConfig()
        #: Optional :class:`repro.obs.Recorder`.  When set, workers run
        #: with per-chunk recorders and ship counter snapshots back with
        #: their results; the coordinator merges them and adds the mp.*
        #: transport counters (epoch ships, delta bytes, merge
        #: conflicts, requeues, respawns) plus chunk/query spans.
        self.recorder = recorder

    def _chunks(
        self, units: Sequence[Sequence[Query]]
    ) -> List[List[List[Query]]]:
        """Group consecutive units into dispatch chunks.  The default
        aims for several fetches per worker (work stealing smooths load
        imbalance) without paying one IPC round-trip per tiny unit."""
        units = [list(u) for u in units if u]
        if not units:
            return []
        rt = self.runtime
        size = rt.chunk_size or max(1, len(units) // (rt.effective_threads * 8))
        return [units[i:i + size] for i in range(0, len(units), size)]

    # ------------------------------------------------------------------
    def run_units(
        self,
        units: Sequence[Sequence[Query]],
        jumps: Optional[JumpMap] = None,
    ) -> BatchResult:
        """Execute the work units and return the batch record.

        A sharing mode's coordinator map is ``jumps`` (a fresh map when
        none is passed), whose entries reach the workers as the
        epoch-0 delta; a share-nothing mode passes none.

        Completes the batch even under worker failures — see the
        module docstring for the recovery state machine.  The returned
        :class:`BatchResult` carries per-chunk outcomes and the
        crash/retry/respawn counters; a clean run has every chunk
        ``completed`` and all counters at zero.
        """
        rt = self.runtime
        if jumps is None and rt.sharing:
            jumps = JumpMap()
        chunks = self._chunks(units)
        if not chunks:
            # No workers are spawned for an empty batch; report that
            # honestly (n_threads=0, no busy slots) so utilisation
            # comparisons are not skewed against the non-empty path,
            # which reports the spawned count min(n_workers, n_chunks).
            return BatchResult(
                mode=rt.mode, n_threads=0, executions=[],
                makespan=0.0, worker_busy=[],
            )
        n = min(rt.effective_threads, len(chunks))
        max_respawns = (
            rt.max_respawns if rt.max_respawns is not None else 2 * n
        )

        n_chunks = len(chunks)
        pending: Deque[int] = deque(range(n_chunks))
        status: List[str] = ["pending"] * n_chunks
        retries: List[int] = [0] * n_chunks
        done: Set[int] = set()
        #: worker -> (chunk id, deadline timestamp)
        inflight: Dict[int, Tuple[int, float]] = {}
        crashes = respawns = total_retries = 0
        slot_respawns = [0] * n

        conns: List[Optional[object]] = [None] * n
        procs: List[Optional[object]] = [None] * n
        alive = [False] * n
        #: The commit log (empty and never growing without sharing).
        log: List[DeltaEntry] = jumps.export_log() if jumps is not None else []
        sent_epoch = [0] * n       # per-worker last-broadcast log index
        busy = [0.0] * n
        executions: List[QueryExecution] = []
        errors: List[str] = []
        rec = self.recorder
        #: worker -> absolute dispatch stamp of its in-flight chunk
        #: (span bookkeeping only; ownership lives in ``inflight``).
        sent_at: Dict[int, float] = {}
        perf = time.perf_counter
        # Heartbeats are requested only by timeline recorders (see
        # Recorder.heartbeat_interval); everything below that touches
        # them is additionally gated on hb_interval, so plain counter
        # recorders keep the pre-telemetry protocol byte-for-byte.
        hb_interval = rec.heartbeat_interval if rec else None
        stall_after = getattr(rec, "stall_after", None) if hb_interval else None
        #: worker -> last proof of liveness (dispatch or heartbeat).
        last_beat: Dict[int, float] = {}
        #: (worker, chunk) pairs already flagged stalled (one verdict
        #: per ownership, not one per silent poll).
        stall_flagged: Set[Tuple[int, int]] = set()

        def spawn(w: int) -> None:
            parent, child = _MP_CONTEXT.Pipe()
            proc = _MP_CONTEXT.Process(
                target=_worker_main,
                args=(child, self.pag, self.engine_config, jumps is not None,
                      w, rt.faults, bool(rec), hb_interval),
                daemon=True,
            )
            proc.start()
            child.close()
            conns[w] = parent
            procs[w] = proc
            alive[w] = True
            # A fresh worker has an empty base map: restart its epoch so
            # the first dispatch ships the full commit log.
            sent_epoch[w] = 0

        for w in range(n):
            spawn(w)
        t0 = perf()

        def run_inline(ci: int) -> None:
            """Quarantine path: answer the chunk in-process as a worker
            would, on a journaling copy of the commit log, and merge
            what the copy accepted into the coordinator map and log."""
            if rec:
                rec.count("mp.quarantined_chunks")
                rec.event("quarantine", chunk=ci,
                          queries=sum(len(u) for u in chunks[ci]))
            inline = None
            if jumps is not None:
                inline = JournalingJumpMap()
                inline.replay(log)
                mark = len(inline.log)
            for unit in chunks[ci]:
                for query in unit:
                    engine = CFLEngine(self.pag, self.engine_config,
                                       jumps=inline, recorder=rec)
                    q0 = perf()
                    result = engine.run_query(query)
                    q1 = perf()
                    executions.append(
                        QueryExecution(result, COORDINATOR, q0 - t0, q1 - t0)
                    )
                    if rec:
                        rec.span_abs(
                            f"query node{query.var} (inline)", q0, q1,
                            tid=COORDINATOR, cat="query",
                            args={"var": query.var, "chunk": ci},
                        )
            status[ci] = "quarantined"
            done.add(ci)
            if inline is not None:
                accepted = jumps.replay(inline.log[mark:])
                log.extend(accepted)
                if rec:
                    rec.count("mp.delta_entries_merged", len(accepted))
            if rec:
                rec.event("done", worker=COORDINATOR, chunk=ci,
                          queries=sum(len(u) for u in chunks[ci]),
                          status="quarantined")

        def requeue(ci: int, reason: str) -> None:
            nonlocal total_retries
            retries[ci] += 1
            total_retries += 1
            errors.append(reason)
            if rec:
                rec.count("mp.requeues")
                rec.event("requeue", chunk=ci, retries=retries[ci])
            if retries[ci] > rt.max_chunk_retries:
                run_inline(ci)
            else:
                pending.appendleft(ci)

        def fail_worker(w: int, reason: str) -> None:
            """Declare worker ``w`` lost: requeue its chunk, terminate
            the process, respawn the slot if budget remains."""
            nonlocal crashes, respawns
            crashes += 1
            alive[w] = False
            if rec:
                rec.count("mp.crashes")
                rec.event("crash", worker=w, reason=reason.splitlines()[0][:200])
            try:
                conns[w].close()
            except OSError:
                pass
            proc = procs[w]
            if proc is not None and proc.is_alive():
                proc.terminate()
            entry = inflight.pop(w, None)
            sent_at.pop(w, None)
            if entry is not None:
                requeue(entry[0], f"worker {w}: {reason}")
            else:
                errors.append(f"worker {w} (idle): {reason}")
            if respawns < max_respawns:
                respawns += 1
                slot_respawns[w] += 1
                if rec:
                    rec.count("mp.respawns")
                    rec.event("respawn", worker=w, attempt=slot_respawns[w])
                delay = min(
                    RESPAWN_BACKOFF_S * (2 ** (slot_respawns[w] - 1)),
                    RESPAWN_BACKOFF_CAP_S,
                )
                time.sleep(delay)
                spawn(w)

        def dispatch(w: int, ci: int) -> None:
            delta = tuple(log[sent_epoch[w]:])
            try:
                conns[w].send(("unit", ci, chunks[ci], delta))
            except (BrokenPipeError, OSError, ValueError) as exc:
                # The chunk was never delivered: requeue it and fail the
                # worker.  Crucially, sent_epoch must NOT have advanced —
                # the chunk's eventual owner still needs this log suffix.
                requeue(ci, f"worker {w}: dispatch failed ({exc!r})")
                fail_worker(w, f"dispatch failed ({exc!r})")
                return
            # Advance the epoch watermark only after a successful send.
            sent_epoch[w] = len(log)
            if rec:
                counts = {"mp.dispatches": 1}
                if delta:
                    counts["mp.epoch_ships"] = 1
                    counts["mp.delta_entries_shipped"] = len(delta)
                    counts["mp.delta_bytes_shipped"] = len(pickle.dumps(delta))
                rec.count_many(counts)
                sent_at[w] = perf()
                rec.event("dispatch", worker=w, chunk=ci,
                          queries=sum(len(u) for u in chunks[ci]))
                if delta:
                    rec.event("epoch_ship", worker=w, entries=len(delta))
            if hb_interval:
                # A dispatch is a liveness proof: the stall clock for
                # this ownership starts now.
                last_beat[w] = perf()
            deadline = (
                perf() + rt.unit_timeout if rt.unit_timeout else float("inf")
            )
            inflight[w] = (ci, deadline)

        def handle(conn, w: int) -> None:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                exitcode = procs[w].exitcode if procs[w] is not None else None
                fail_worker(w, f"exited without reporting (exitcode={exitcode})")
                return
            ok_hb = (
                isinstance(msg, tuple) and len(msg) == 4 and msg[0] == "hb"
            )
            if ok_hb:
                # Piggybacked liveness sample: fold it into the
                # timeline (annotated with this worker's commit-log
                # lag) and reset its stall clock.  Never an answer, so
                # ownership bookkeeping is untouched.
                _tag, _wid, hb_chunk, sample = msg
                last_beat[w] = perf()
                if rec:
                    rec.heartbeat(
                        worker=w, chunk=hb_chunk,
                        epoch_lag=len(log) - sent_epoch[w],
                        **sample,
                    )
                return
            ok_done = (
                isinstance(msg, tuple) and len(msg) == 5 and msg[0] == "done"
                and isinstance(msg[1], int)
            )
            ok_error = (
                isinstance(msg, tuple) and len(msg) == 3 and msg[0] == "error"
            )
            if ok_error:
                fail_worker(w, f"raised:\n{msg[2]}")
                return
            if not ok_done:
                fail_worker(w, f"sent garbage: {str(msg)[:120]!r}")
                return
            _tag, ci, records, delta, worker_metrics = msg
            inflight.pop(w, None)
            dispatched_at = sent_at.pop(w, None)
            if jumps is not None and delta:
                # Merge even a straggler's delta: idempotent, and its
                # entries are legitimate commits.
                caught_up = sent_epoch[w] == len(log)
                merged = jumps.replay(delta)
                log.extend(merged)
                accepted = len(merged)
                if caught_up:
                    # The entries just appended are this worker's own,
                    # already in its map: never ship them back to it.
                    sent_epoch[w] = len(log)
                if rec:
                    rec.count_many({
                        "mp.delta_entries_merged": accepted,
                        "mp.merge_conflicts": len(delta) - accepted,
                    })
            if ci in done:
                return  # duplicate answer from a reassigned straggler
            # Merge worker counters only for the answer the batch
            # keeps: a straggler's duplicate done must not re-count a
            # chunk whose re-execution already shipped its counters
            # (the delta merge above is idempotent; this merge is not).
            if rec and worker_metrics:
                rec.merge(worker_metrics)
            done.add(ci)
            status[ci] = "retried" if retries[ci] else "completed"
            if rec:
                rec.event("done", worker=w, chunk=ci,
                          queries=len(records), status=status[ci])
            if rec and dispatched_at is not None:
                n_q = sum(len(u) for u in chunks[ci])
                rec.span_abs(
                    f"chunk {ci} (worker {w})", dispatched_at, perf(),
                    tid=w, cat="chunk",
                    args={"chunk": ci, "queries": n_q, "status": status[ci]},
                )
            for result, start, finish in records:
                executions.append(
                    QueryExecution(result, w, start - t0, finish - t0)
                )
                busy[w] += finish - start
                if rec:
                    rec.span_abs(
                        f"query node{result.query.var}", start, finish,
                        tid=w, cat="query",
                        args={
                            "var": result.query.var,
                            "steps": result.costs.steps,
                        },
                    )

        try:
            while len(done) < n_chunks:
                for w in range(n):
                    if pending and alive[w] and w not in inflight:
                        dispatch(w, pending.popleft())
                if not any(alive):
                    # Every worker is gone and the respawn budget is
                    # spent: drain what is left inline so the batch
                    # still completes with zero lost queries.
                    while pending:
                        run_inline(pending.popleft())
                    continue
                wait_conns = {
                    conns[w]: w for w in range(n) if alive[w]
                }
                timeout = None
                if rt.unit_timeout and inflight:
                    now = perf()
                    soonest = min(dl for _ci, dl in inflight.values())
                    timeout = max(0.0, soonest - now) + 0.01
                if stall_after and inflight:
                    # A silent worker sends nothing to wake the wait,
                    # so the stall sweep needs its own cadence.
                    tick = stall_after / 2
                    timeout = tick if timeout is None else min(timeout, tick)
                ready = mp_connection.wait(list(wait_conns), timeout)
                for conn in ready:
                    w = wait_conns[conn]
                    # fail_worker inside this loop may already have
                    # replaced the slot; only handle current pipes.
                    if alive[w] and conns[w] is conn:
                        handle(conn, w)
                if stall_after:
                    now = perf()
                    for w, (ci, _dl) in inflight.items():
                        silent = now - last_beat.get(w, now)
                        if silent > stall_after and (w, ci) not in stall_flagged:
                            stall_flagged.add((w, ci))
                            rec.event("stall", worker=w, chunk=ci,
                                      silent_s=round(silent, 3))
                if rt.unit_timeout:
                    now = perf()
                    for w, (ci, dl) in list(inflight.items()):
                        if now > dl and alive[w]:
                            fail_worker(
                                w,
                                f"unit deadline exceeded "
                                f"({rt.unit_timeout}s) on chunk {ci}",
                            )
        finally:
            for w in range(n):
                if conns[w] is None:
                    continue
                if alive[w]:
                    try:
                        conns[w].send(("stop",))
                    except (BrokenPipeError, OSError):
                        pass
                try:
                    conns[w].close()
                except OSError:
                    pass
            for proc in procs:
                if proc is None:
                    continue
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)

        makespan = perf() - t0
        result = BatchResult(
            mode=rt.mode,
            n_threads=n,
            executions=executions,
            makespan=makespan,
            worker_busy=busy,
            chunk_status=status,
            n_worker_crashes=crashes,
            n_chunk_retries=total_retries,
            n_worker_respawns=respawns,
            errors=errors,
        )
        result.count_jumps(jumps)
        return result
