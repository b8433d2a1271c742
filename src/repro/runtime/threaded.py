"""Real-thread executor — shared-state concurrency validation.

Under CPython's GIL the traversal loops of concurrent threads are
serialised, so this backend's *wall-clock* numbers show little speedup
— use ``backend="mp"`` (:mod:`repro.runtime.mp`) for real multicore
wall-clock measurements.  Its purpose is to exercise the *concurrency
semantics* of the data-sharing scheme with genuine threads: lock
stripes over the runner's store map (:class:`ConcurrentJumpMap`,
mirroring the paper's ``ConcurrentHashMap``), a lock-protected shared
work list, and live mid-query edge visibility — stronger interleaving
than the simulator's one-query-at-a-time event order.  Tests assert that answers remain identical to the
sequential engine under this adversarial interleaving.  Per-query wall
times and the batch makespan are measured for real (they are honest,
just GIL-bound).

When a timeline recorder is attached (it sets
``Recorder.heartbeat_interval``), an in-process **sampler thread**
plays the role of the mp workers' piggybacked heartbeats: it
periodically folds each thread's progress slots (queries done, current
unit) into the timeline and flags threads that own a unit but have
made no progress for longer than ``stall_after`` — the thread-backend
equivalent of coordinator-side stall detection.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.core.engine import CFLEngine, EngineConfig
from repro.core.jumpmap import JumpMap
from repro.core.query import Query
from repro.errors import RuntimeConfigError
from repro.pag.extended import FinishedJump, JumpKey
from repro.pag.graph import PAG
from repro.runtime.config import RuntimeConfig
from repro.runtime.results import BatchResult, QueryExecution

__all__ = ["ConcurrentJumpMap", "ThreadedExecutor"]


class ConcurrentJumpMap:
    """Lock-striped thread-safe jump store (``ConcurrentHashMap`` stand-in).

    Reads, inserts and counts of a :class:`~repro.core.jumpmap.JumpMap`
    (its own, or the one given to :meth:`over`) with the same semantics
    (first-writer-wins unfinished, finished-clears-unfinished), each
    key guarded by one of ``n_stripes`` locks.
    """

    def __init__(self, n_stripes: int = 32) -> None:
        if n_stripes < 1:
            raise RuntimeConfigError(
                f"n_stripes must be at least 1, got {n_stripes}"
            )
        self._inner = JumpMap()
        self._locks = [threading.Lock() for _ in range(n_stripes)]

    @classmethod
    def over(cls, jumps: JumpMap) -> "ConcurrentJumpMap":
        """Stripes over an existing map: a ``threads`` batch's view of
        its runner's store map."""
        cmap = cls()
        cmap._inner = jumps
        return cmap

    def _lock(self, key: JumpKey) -> threading.Lock:
        return self._locks[hash(key) % len(self._locks)]

    def _lock_all(self) -> List[threading.Lock]:
        """Acquire every stripe (in index order — writers hold at most
        one stripe at a time, so this cannot deadlock) for a consistent
        whole-map snapshot; see the stats properties."""
        for lock in self._locks:
            lock.acquire()
        return self._locks

    def _unlock_all(self) -> None:
        for lock in reversed(self._locks):
            lock.release()

    def finished(self, key: JumpKey) -> Optional[Tuple[FinishedJump, ...]]:
        with self._lock(key):
            return self._inner.finished(key)

    def unfinished(self, key: JumpKey) -> Optional[int]:
        with self._lock(key):
            return self._inner.unfinished(key)

    def insert_finished(self, key: JumpKey, edges: Tuple[FinishedJump, ...]) -> bool:
        with self._lock(key):
            return self._inner.insert_finished(key, edges)

    def insert_unfinished(self, key: JumpKey, steps: int) -> bool:
        with self._lock(key):
            return self._inner.insert_unfinished(key, steps)

    # -- aggregate views -----------------------------------------------
    # The counters sum over the inner dicts, so reading them while a
    # writer mutates a stripe would iterate a changing dict (racy sums,
    # or RuntimeError under CPython).  Each property therefore takes a
    # stop-the-world snapshot by holding *all* stripe locks; cheap
    # relative to how rarely stats are read (batch finalisation).
    @property
    def n_jumps(self) -> int:
        self._lock_all()
        try:
            return self._inner.n_jumps
        finally:
            self._unlock_all()

    @property
    def n_finished_edges(self) -> int:
        self._lock_all()
        try:
            return self._inner.n_finished_edges
        finally:
            self._unlock_all()

    @property
    def n_unfinished_edges(self) -> int:
        self._lock_all()
        try:
            return self._inner.n_unfinished_edges
        finally:
            self._unlock_all()


class ThreadedExecutor:
    """Executes a query batch on real ``threading`` threads."""

    def __init__(
        self,
        pag: PAG,
        runtime: RuntimeConfig,
        engine_config: Optional[EngineConfig] = None,
        recorder=None,
    ) -> None:
        self.pag = pag
        self.runtime = runtime
        self.engine_config = engine_config or EngineConfig()
        #: Optional :class:`repro.obs.Recorder` (MetricsRecorder is
        #: thread-safe, so worker threads share it directly).
        self.recorder = recorder

    def run_units(
        self,
        units: Sequence[Sequence[Query]],
        jumps: Optional[JumpMap] = None,
    ) -> BatchResult:
        """Drain the shared work list with ``runtime.effective_threads``
        threads.

        A sharing mode runs on ``jumps`` (a fresh map when none is
        passed) under :class:`ConcurrentJumpMap` stripes; a
        share-nothing mode passes none.

        The list is a :class:`collections.deque` popped from the left —
        an O(1) fetch under the lock (a plain ``list.pop(0)`` would
        shift the whole backlog on every fetch, quadratic over the
        batch).  Per-query wall times are measured with
        ``perf_counter`` relative to the batch start; they are honest
        but GIL-serialised — see the module docstring.

        A unit whose execution raises does not abort the batch: the
        worker thread survives, every completed unit's results are
        kept, and the failed unit is retried once inline after the
        drain (a failure can be a concurrency artifact).  Outcomes are
        reported per unit in ``BatchResult.chunk_status`` with the same
        ``completed`` / ``retried`` / ``quarantined`` vocabulary as the
        mp backend, and every captured traceback — not just the first —
        lands in ``BatchResult.errors``.
        """
        n_threads = self.runtime.effective_threads
        if jumps is None and self.runtime.sharing:
            jumps = JumpMap()
        shared = ConcurrentJumpMap.over(jumps) if jumps is not None else None
        units = [list(u) for u in units]
        work: Deque[Tuple[int, List[Query]]] = deque(enumerate(units))
        status: List[str] = ["completed"] * len(units)
        work_lock = threading.Lock()
        out_lock = threading.Lock()
        executions: List[QueryExecution] = []
        busy = [0.0] * n_threads
        errors: List[str] = []
        rec = self.recorder
        perf = time.perf_counter
        t0 = perf()
        # In-process telemetry (the thread analogue of the mp workers'
        # piggybacked heartbeats): per-thread progress slots written by
        # the workers — single-slot list assignments, safe under the
        # GIL for a sampling reader — and one sampler thread that folds
        # them into the timeline.  Armed only by a timeline recorder.
        hb_interval = rec.heartbeat_interval if rec else None
        stall_after = getattr(rec, "stall_after", None) if hb_interval else None
        done_counts = [0] * n_threads
        current_unit: List[Optional[int]] = [None] * n_threads
        last_progress = [t0] * n_threads

        def fetch() -> Optional[Tuple[int, List[Query]]]:
            with work_lock:
                return work.popleft() if work else None

        def run_unit(unit: Sequence[Query], wid: int) -> Tuple[List[QueryExecution], float]:
            """One unit's executions, buffered so that a mid-unit
            failure publishes nothing (the retry re-runs it whole)."""
            out: List[QueryExecution] = []
            spent = 0.0
            track = hb_interval and 0 <= wid < n_threads
            for query in unit:
                engine = CFLEngine(
                    self.pag, self.engine_config, jumps=shared,
                    recorder=rec,
                )
                start = perf() - t0
                result = engine.run_query(query)
                finish = perf() - t0
                out.append(QueryExecution(result, wid, start, finish))
                if rec:
                    rec.span_abs(
                        f"query node{query.var}", t0 + start, t0 + finish,
                        tid=wid, cat="query",
                        args={"var": query.var, "steps": result.costs.steps},
                    )
                if track:
                    done_counts[wid] += 1
                    last_progress[wid] = t0 + finish
                spent += finish - start
            return out, spent

        def worker(wid: int) -> None:
            while True:
                item = fetch()
                if item is None:
                    return
                idx, unit = item
                current_unit[wid] = idx
                if rec:
                    rec.event("dispatch", worker=wid, chunk=idx,
                              queries=len(unit))
                try:
                    records, spent = run_unit(unit, wid)
                except BaseException:
                    with out_lock:
                        errors.append(
                            f"unit {idx} failed on thread {wid}:\n"
                            f"{traceback.format_exc()}"
                        )
                        status[idx] = "failed"
                    current_unit[wid] = None
                    if rec:
                        rec.event("crash", worker=wid, chunk=idx)
                    continue  # the thread survives; fetch the next unit
                with out_lock:
                    executions.extend(records)
                    busy[wid] += spent
                current_unit[wid] = None
                if rec:
                    rec.event("done", worker=wid, chunk=idx,
                              queries=len(records), status="completed")

        stop_sampler = threading.Event()

        def sampler() -> None:
            flagged = set()
            while not stop_sampler.wait(hb_interval):
                now = perf()
                for wid in range(n_threads):
                    rec.heartbeat(
                        worker=wid,
                        queries_done=done_counts[wid],
                        chunk=current_unit[wid],
                    )
                    cu = current_unit[wid]
                    silent = now - last_progress[wid]
                    if (
                        cu is not None and silent > stall_after
                        and (wid, cu) not in flagged
                    ):
                        flagged.add((wid, cu))
                        rec.event("stall", worker=wid, chunk=cu,
                                  silent_s=round(silent, 3))

        threads = [
            threading.Thread(target=worker, args=(w,), daemon=True)
            for w in range(n_threads)
        ]
        sampler_thread = (
            threading.Thread(target=sampler, daemon=True) if hb_interval else None
        )
        for t in threads:
            t.start()
        if sampler_thread is not None:
            sampler_thread.start()
        for t in threads:
            t.join()
        if sampler_thread is not None:
            stop_sampler.set()
            sampler_thread.join()
            # A batch shorter than one sampler tick would otherwise
            # leave no samples at all; close with one final sweep so
            # every thread's totals reach the timeline (the analogue of
            # the mp workers' beat-on-chunk-receipt guarantee).
            for wid in range(n_threads):
                rec.heartbeat(worker=wid, queries_done=done_counts[wid],
                              chunk=current_unit[wid])

        # One inline, sequential retry per failed unit; a unit that
        # fails deterministically is quarantined with its traceback.
        n_retries = 0
        for idx, st in enumerate(status):
            if st != "failed":
                continue
            n_retries += 1
            if rec:
                rec.event("requeue", chunk=idx, retries=1)
            try:
                records, _spent = run_unit(units[idx], -1)
            except BaseException:
                errors.append(
                    f"unit {idx} failed again on inline retry:\n"
                    f"{traceback.format_exc()}"
                )
                status[idx] = "quarantined"
                if rec:
                    rec.event("done", worker=-1, chunk=idx, queries=0,
                              status="quarantined")
                continue
            executions.extend(records)
            status[idx] = "retried"
            if rec:
                rec.event("done", worker=-1, chunk=idx,
                          queries=len(records), status="retried")

        result = BatchResult(
            mode=self.runtime.mode,
            n_threads=n_threads,
            executions=executions,
            makespan=perf() - t0,
            worker_busy=busy,
            chunk_status=status,
            n_chunk_retries=n_retries,
            errors=errors,
        )
        result.count_jumps(jumps)
        return result
