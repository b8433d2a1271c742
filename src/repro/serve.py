"""repro.serve — analysis-as-a-service on a resident :class:`Session`.

``repro serve FILE`` boots a long-lived daemon that parses and lowers
the program **once**, then answers pointer-analysis queries over HTTP
(stdlib :mod:`http.server`, JSON bodies — no new dependencies).  All
analysis state stays resident between requests: the PAG, the warm jump
maps, and the per-backend executors of one
:class:`repro.api.Session`.

Architecture — request intake is decoupled from analysis dispatch:

* **Handler threads** (``ThreadingHTTPServer``, one per connection)
  parse requests and practise admission control: a bounded job queue
  (429 when full), per-client cumulative step budgets (429 when
  exhausted), and a draining flag (503 once shutdown has begun).
  The request line gets the stdlib's checks; the head is read by
  :func:`_read_head`, one strict reader into a plain dict (100 field
  lines of 64 KiB at most, else 431; a colonless or folded line is
  400), which :class:`ServeClient` reads responses with too.
  Connections are kept alive (HTTP/1.1), so a client that reuses its
  connection pays neither a TCP handshake nor a new handler thread per
  request.  Sockets run with ``TCP_NODELAY`` and every response leaves
  in one write; bodies are framed by ``Content-Length`` alone, and a
  request whose head or body cannot be framed (a malformed head,
  chunked, malformed length, over :data:`MAX_BODY_BYTES`) is refused
  and its connection closed, so it cannot desynchronise the next
  request.
* **One dispatcher thread** owns the session.  It drains the queue
  greedily, coalescing many small client jobs into one deduplicated
  batch per wake-up (up to ``batch_window`` jobs), and pushes the
  merged query list through the ordinary ``schedule_queries`` →
  executor pipeline via :meth:`Session.batch`.  The default ``local``
  backend runs that batch on the dispatcher thread itself, over the
  session's one demand store (``Session.seq``, which ``/v1/flows_to``
  also uses): a request starts no thread.  Answers
  are fanned back out to each waiting job keyed on the executed
  representative query, so concurrent clients share the scheduler's
  locality wins and every answer is byte-identical to a one-shot CLI
  run.
* **Graceful drain** on SIGTERM/SIGINT: new work is refused, idle
  kept-alive connections are closed, every admitted job completes and
  its response carries ``Connection: close``, the HTTP server stops,
  exit code 0.

Endpoints::

    GET  /healthz          resident-state summary (JSON)
    GET  /metricz          counter snapshot (repro.obs metrics JSON)
    GET  /v1/targets       the default workload: application locals
    POST /v1/points_to     {"targets": [spec|node, ...], "ctx": [...]}
    POST /v1/flows_to      {"objects": [label|node, ...], "ctx": [...]}
    POST /v1/alias         {"a": spec, "b": spec, "ctx": [...]}
    POST /v1/check         {"checkers": [id, ...]}
    POST /admin/drain      begin graceful drain, then stop

Clients identify themselves with an ``X-Repro-Client`` header (or a
``"client"`` JSON field); budgets are accounted per client id.
:class:`ServeClient` wraps the wire protocol for tests and scripts: a
raw socket per calling thread, each request sent in one write.
"""

from __future__ import annotations

import json
import queue
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import (
    Any, BinaryIO, Dict, List, Optional, Sequence, Set, Tuple, Union,
)

from repro._version import __version__
from repro.api import (
    DEFAULT_BUDGET,
    EMPTY_CTX,
    Context,
    EngineConfig,
    MetricsRecorder,
    Query,
    QueryResult,
    ReproError,
    RuntimeConfig,
    Session,
    dedupe_queries,
    metrics_to_json,
)

__all__ = [
    "DEFAULT_BACKEND",
    "MAX_BODY_BYTES",
    "ServeConfig",
    "ServeRejected",
    "AnalysisService",
    "ServeClient",
    "serve",
    "serve_command",
]


class ServeRejected(ReproError):
    """A request the daemon refused to admit (admission control) or
    could not answer; carries the HTTP status the wire layer emits."""

    def __init__(self, status: int, reason: str) -> None:
        super().__init__(reason)
        self.status = status
        self.reason = reason


@dataclass(frozen=True)
class ServeConfig:
    """Daemon tuning knobs (all defaults are serve-smoke friendly)."""

    host: str = "127.0.0.1"
    port: int = 8177
    #: Admission queue bound: jobs beyond this are refused with 429.
    max_pending: int = 64
    #: Max jobs coalesced into one multiplexed batch per dispatch.
    batch_window: int = 32
    #: Cumulative engine steps a single client may consume before its
    #: jobs are refused with 429.  ``None`` disables the ledger.
    client_step_budget: Optional[int] = None
    #: Seconds the drain waits for admitted jobs before giving up.
    drain_grace: float = 30.0


_STOP = object()  # queue sentinel: begin draining

#: The backend ``repro serve`` runs batches on unless ``--backend``
#: says otherwise: in-process on the dispatcher thread, no fan-out.
DEFAULT_BACKEND = "local"

#: Largest request body the daemon accepts; a larger one is refused
#: with 413 before any of it is read.
MAX_BODY_BYTES = 1 << 20


@dataclass
class _Job:
    """One admitted unit of work, owned by the dispatcher thread."""

    kind: str  # "queries" (multiplexable) or "call" (run alone)
    client: str
    queries: List[Query] = field(default_factory=list)
    call: Optional[Any] = None  # thunk for kind="call"
    done: threading.Event = field(default_factory=threading.Event)
    results: Optional[List[QueryResult]] = None
    value: Any = None
    error: Optional[BaseException] = None

    def finish(self) -> None:
        self.done.set()


class AnalysisService:
    """The dispatcher core: admission control in callers' threads, all
    analysis on one thread that owns the :class:`Session`."""

    def __init__(
        self,
        session: Session,
        config: Optional[ServeConfig] = None,
        recorder: Optional[MetricsRecorder] = None,
    ) -> None:
        self.session = session
        self.config = config or ServeConfig()
        self.recorder = recorder if recorder is not None else session.recorder
        self._queue: "queue.Queue[Any]" = queue.Queue(
            maxsize=self.config.max_pending
        )
        self._spent: Dict[str, int] = {}
        self._ledger_lock = threading.Lock()
        self._draining = threading.Event()
        self._started = time.time()
        self.n_jobs_done = 0
        self._dispatcher = threading.Thread(
            target=self._loop, name="repro-serve-dispatch", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # admission (handler threads)
    # ------------------------------------------------------------------
    def _admit(self, job: _Job) -> None:
        if self._draining.is_set():
            self._count("serve.rejected_draining")
            raise ServeRejected(503, "daemon is draining")
        budget = self.config.client_step_budget
        if budget is not None:
            with self._ledger_lock:
                spent = self._spent.get(job.client, 0)
            if spent >= budget:
                self._count("serve.rejected_budget")
                raise ServeRejected(
                    429,
                    f"client {job.client!r} exhausted its step budget "
                    f"({spent} >= {budget})",
                )
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            self._count("serve.rejected_queue")
            raise ServeRejected(
                429,
                f"admission queue full ({self.config.max_pending} pending)",
            ) from None
        self._count("serve.jobs")

    def _await(self, job: _Job) -> _Job:
        job.done.wait()
        if job.error is not None:
            err = job.error
            if isinstance(err, ServeRejected):
                raise err
            if isinstance(err, ReproError):
                raise ServeRejected(400, str(err))
            raise ServeRejected(500, f"{type(err).__name__}: {err}")
        return job

    def submit_queries(
        self, client: str, queries: Sequence[Query]
    ) -> List[QueryResult]:
        """Admit a points-to job; blocks until the dispatcher has
        folded it through a (possibly shared) batch.  Returns one
        result per requested query, in request order."""
        job = _Job(kind="queries", client=client, queries=list(queries))
        self._admit(job)
        self._await(job)
        assert job.results is not None
        self._charge(client, sum(r.costs.steps for r in job.results))
        self._count("serve.queries", len(job.results))
        return job.results

    def submit_call(self, client: str, thunk) -> Any:
        """Admit a non-multiplexable job (flows-to, checkers) run alone
        on the dispatcher thread."""
        job = _Job(kind="call", client=client, call=thunk)
        self._admit(job)
        self._await(job)
        return job.value

    def _charge(self, client: str, steps: int) -> None:
        if self.config.client_step_budget is None or steps <= 0:
            return
        with self._ledger_lock:
            self._spent[client] = self._spent.get(client, 0) + steps

    def _count(self, name: str, delta: int = 1) -> None:
        rec = self.recorder
        if rec:
            rec.count(name, delta)

    # ------------------------------------------------------------------
    # dispatch (the one thread that owns the session)
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        stopping = False
        while True:
            if stopping:
                # Draining: finish everything already admitted, then
                # exit.  Nothing new gets past _admit.
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
            else:
                item = self._queue.get()
            if item is _STOP:
                stopping = True
                self._queue.task_done()
                continue
            jobs = [item]
            # Greedy multiplex: coalesce whatever else is already
            # queued (up to the window) into this dispatch round.
            while len(jobs) < self.config.batch_window:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _STOP:
                    stopping = True
                    self._queue.task_done()
                    break
                jobs.append(nxt)
            self._dispatch(jobs, stopping)
            for _ in jobs:
                self._queue.task_done()

    def _dispatch(self, jobs: List[_Job], draining: bool) -> None:
        qjobs = [j for j in jobs if j.kind == "queries"]
        if len(qjobs) > 1:
            self._count("serve.multiplexed", len(qjobs) - 1)
        if qjobs:
            self._run_batch(qjobs)
        for job in jobs:
            if job.kind != "call":
                continue
            try:
                job.value = job.call()
            except BaseException as exc:  # delivered to the caller
                job.error = exc
            job.finish()
        self.n_jobs_done += len(jobs)
        if draining:
            self._count("serve.drained_jobs", len(jobs))

    def _run_batch(self, qjobs: List[_Job]) -> None:
        pag = self.session.pag
        merged: List[Query] = []
        for job in qjobs:
            merged.extend(job.queries)
        try:
            unique = dedupe_queries(pag, merged)
            batch = self.session.batch(unique)
            by_query = batch.results_by_query()
            for job in qjobs:
                job.results = [
                    by_query[(pag.rep(q.var), q.ctx)] for q in job.queries
                ]
        except BaseException as exc:
            for job in qjobs:
                job.error = exc
        finally:
            self._count("serve.batches")
            for job in qjobs:
                job.finish()

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Refuse new work, let every admitted job finish, stop the
        dispatcher.  Returns True when the queue drained fully within
        ``timeout``; idempotent."""
        already = self._draining.is_set()
        self._draining.set()
        if not already:
            self._queue.put(_STOP)
        self._dispatcher.join(
            timeout if timeout is not None else self.config.drain_grace
        )
        return not self._dispatcher.is_alive()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def stats(self) -> Dict[str, Any]:
        out = self.session.stats()
        out.update(
            status="draining" if self.draining else "serving",
            uptime_s=round(time.time() - self._started, 3),
            pending_jobs=self._queue.qsize(),
            max_pending=self.config.max_pending,
            batch_window=self.config.batch_window,
            client_step_budget=self.config.client_step_budget,
            jobs_done=self.n_jobs_done,
            version=__version__,
        )
        rec = self.recorder
        if rec is not None and hasattr(rec, "snapshot"):
            metrics = rec.snapshot()
            for key in ("api.pag_builds", "sched.plan_builds",
                        "serve.queries", "serve.batches",
                        "serve.multiplexed", "jumps.hits", "jumps.lookups"):
                out[key] = metrics.get(key, 0)
        return out


# ----------------------------------------------------------------------
# wire layer
# ----------------------------------------------------------------------
#: Head limits, the stdlib's own (``http.client``'s ``_MAXHEADERS`` and
#: ``_MAXLINE``): field lines per head, and bytes per line.
_MAX_HEAD_LINES = 100
_MAX_LINE = 1 << 16

#: A parsed message head: lower-cased field name -> values, in order.
_Head = Dict[str, List[str]]


def _read_head(rfile: BinaryIO) -> _Head:
    """Read an HTTP/1.x message head, after its start line, up to and
    including the blank line that ends it.

    Strict: a line without a colon, whitespace before the colon (which
    is how an obs-fold continuation line reads), or input that ends
    before the blank line raises :class:`ServeRejected` with 400; more
    than :data:`_MAX_HEAD_LINES` field lines, or a line longer than
    :data:`_MAX_LINE` bytes, with 431.  Both ends of the wire read
    heads here."""
    head: _Head = {}
    for _ in range(_MAX_HEAD_LINES + 1):
        line = rfile.readline(_MAX_LINE + 1)
        if line == b"\r\n" or line == b"\n":
            return head
        if len(line) > _MAX_LINE:
            raise ServeRejected(431, f"header line over {_MAX_LINE} bytes")
        if not line.endswith(b"\n"):
            raise ServeRejected(400, "input ended inside the message head")
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or " " in name or "\t" in name:
            raise ServeRejected(400, f"malformed header line {line!r}")
        head.setdefault(name.lower(), []).append(value.strip())
    raise ServeRejected(431, f"more than {_MAX_HEAD_LINES} header lines")


def _field(head: _Head, name: str) -> str:
    """The first value of field ``name`` (lower case), or ``""``."""
    values = head.get(name)
    return values[0] if values else ""


def _status_of(line: bytes) -> int:
    """The status code of an HTTP/1.x status line."""
    parts = line.split(None, 2)
    if (
        len(parts) < 2
        or not parts[0].startswith(b"HTTP/1.")
        or len(parts[1]) != 3
        or not parts[1].isdigit()
    ):
        raise ServeRejected(502, f"bad status line {line[:80]!r}")
    return int(parts[1])


def _parse_ctx(raw: Any) -> Context:
    if raw in (None, (), []):
        return EMPTY_CTX
    if not isinstance(raw, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in raw
    ):
        raise ServeRejected(400, "ctx must be a list of call-site ids")
    return tuple(raw)


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP onto the service.  Analysis never runs here — only
    parsing, admission, and response encoding."""

    server: "_Server"
    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"
    #: Each response leaves in one write, so Nagle's algorithm has
    #: nothing to coalesce; left on, it holds a kept-alive connection's
    #: next reply until the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    # The default handler logs every request to stderr; the daemon's
    # stdout/stderr contract is one ready-line plus errors.
    def log_message(self, format: str, *args: Any) -> None:
        pass

    @property
    def service(self) -> AnalysisService:
        return self.server.service

    # -- connection lifetime -------------------------------------------
    def handle_one_request(self) -> None:
        # Between requests the connection is idle: a drain may close it.
        self.server.park(self.connection)
        super().handle_one_request()

    def parse_request(self) -> bool:
        """The stdlib's request-line checks (400, 505) and keep-alive
        rules, with the head read by :func:`_read_head` into
        ``self.headers`` (a :data:`_Head`).  Returns False once an error
        reply has been sent."""
        self.server.unpark(self.connection)  # a request line arrived
        self.command = None  # in case the request line is refused
        self.request_version = version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:  # enough to tell the protocol version
            version = words[-1]
            try:
                if not version.startswith("HTTP/"):
                    raise ValueError
                numbers = version.split("/", 1)[1].split(".")
                if len(numbers) != 2 or not all(
                    n.isdigit() and len(n) <= 10 for n in numbers
                ):
                    raise ValueError
                number = int(numbers[0]), int(numbers[1])
            except ValueError:
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    f"Bad request version ({version!r})",
                )
                return False
            if number >= (1, 1):
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    f"Invalid HTTP version ({version[5:]})",
                )
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(
                HTTPStatus.BAD_REQUEST, f"Bad request syntax ({requestline!r})"
            )
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    f"Bad HTTP/0.9 request type ({command!r})",
                )
                return False
        self.command = command
        # A leading '//' reads as a scheme-less absolute URI: keep one.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            self.headers = _read_head(self.rfile)
        except ServeRejected as exc:
            # The rest of the head is unread: the connection is spent.
            self.send_error(exc.status, None, exc.reason)
            return False
        conntype = _field(self.headers, "connection").lower()
        if conntype == "close":
            self.close_connection = True
        elif conntype == "keep-alive":
            self.close_connection = False
        if (
            _field(self.headers, "expect").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    # -- plumbing ------------------------------------------------------
    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        if self.server.closing:
            self.close_connection = True
        head = [
            f"{self.protocol_version} {status} {HTTPStatus(status).phrase}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        if status == 429:
            head.append("Retry-After: 1")
        if self.close_connection:
            head.append("Connection: close")
        head.append("\r\n")
        try:  # status line, headers and body in one write
            self.wfile.write("\r\n".join(head).encode("latin-1") + body)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True  # client went away

    def _refuse_unframed(self, status: int, reason: str) -> ServeRejected:
        # The body was not read, so the connection cannot be reused.
        self.close_connection = True
        return ServeRejected(status, reason)

    def _read_body(self) -> bytes:
        """The request body, framed by ``Content-Length`` alone.  On a
        kept-alive connection, bytes left unread would be parsed as the
        next request, so a body that cannot be framed is refused."""
        if "transfer-encoding" in self.headers:
            raise self._refuse_unframed(
                411, "Transfer-Encoding is not supported; send Content-Length"
            )
        lengths = self.headers.get("content-length", [])
        if not lengths:
            return b""
        text = lengths[0].strip()
        if len(lengths) > 1 or not (text.isascii() and text.isdigit()):
            raise self._refuse_unframed(
                400, f"malformed Content-Length: {', '.join(lengths)!r}"
            )
        length = int(text)
        if length > MAX_BODY_BYTES:
            raise self._refuse_unframed(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        return self.rfile.read(length)

    def _read_json(self) -> Dict[str, Any]:
        raw = self._read_body()
        if not raw:
            return {}
        try:
            payload = json.loads(raw)
        except ValueError as exc:  # not JSON, or not UTF-8/16/32
            raise ServeRejected(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise ServeRejected(400, "JSON body must be an object")
        return payload

    def _client_id(self, payload: Dict[str, Any]) -> str:
        cid = payload.get("client") or _field(self.headers, "x-repro-client")
        return str(cid) if cid else f"{self.client_address[0]}"

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        svc = self.service
        svc._count("serve.requests")
        try:
            self._read_body()  # a GET body is ignored, but must be framed
            if self.path == "/healthz":
                self._send_json(200, svc.stats())
            elif self.path == "/metricz":
                rec = svc.recorder
                metrics = (
                    rec.snapshot()
                    if rec is not None and hasattr(rec, "snapshot")
                    else {}
                )
                body = json.loads(metrics_to_json(metrics))
                self._send_json(200, body)
            elif self.path == "/v1/targets":
                self._targets()
            else:
                self._send_json(404, {"error": f"no route {self.path}"})
        except ServeRejected as exc:
            self._send_json(exc.status, {"error": exc.reason})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        svc = self.service
        svc._count("serve.requests")
        try:
            payload = self._read_json()
            if self.path == "/v1/points_to":
                self._points_to(payload)
            elif self.path == "/v1/flows_to":
                self._flows_to(payload)
            elif self.path == "/v1/alias":
                self._alias(payload)
            elif self.path == "/v1/check":
                self._check(payload)
            elif self.path == "/v1/targets":
                self._targets()
            elif self.path == "/admin/drain":
                self._drain()
            else:
                self._send_json(404, {"error": f"no route {self.path}"})
        except ServeRejected as exc:
            self._send_json(exc.status, {"error": exc.reason})
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)})

    def _targets(self) -> None:
        session = self.service.session
        nodes = session.app_locals()
        self._send_json(
            200,
            {
                "targets": [
                    {"node": v, "name": session.name(v)} for v in nodes
                ]
            },
        )

    def _resolve_targets(
        self, session: Session, raw: Any, ctx: Context
    ) -> List[Tuple[str, Query]]:
        """``(label, query)`` per target, every one checked to be a
        variable before the request is admitted: a bad target fails
        its own request, never a batch it would share."""
        if not isinstance(raw, list) or not raw:
            raise ServeRejected(
                400, "targets must be a non-empty list of specs/node ids"
            )
        return [
            (item if isinstance(item, str) else session.name(q.var), q)
            for item, q in zip(raw, session.queries(raw, ctx))
        ]

    def _points_to(self, payload: Dict[str, Any]) -> None:
        svc = self.service
        session = svc.session
        ctx = _parse_ctx(payload.get("ctx"))
        targets = self._resolve_targets(session, payload.get("targets"), ctx)
        client = self._client_id(payload)
        results = svc.submit_queries(client, [q for _label, q in targets])
        body = {
            "results": [
                {
                    "query": label,
                    "node": q.var,
                    "objects": sorted(
                        session.name(o) for o in res.objects
                    ),
                    "exhausted": res.exhausted,
                    "steps": res.costs.steps,
                }
                for (label, q), res in zip(targets, results)
            ]
        }
        self._send_json(200, body)

    def _flows_to(self, payload: Dict[str, Any]) -> None:
        svc = self.service
        session = svc.session
        ctx = _parse_ctx(payload.get("ctx"))
        raw = payload.get("objects")
        if not isinstance(raw, list) or not raw:
            raise ServeRejected(
                400, "objects must be a non-empty list of labels/node ids"
            )
        # Checked here, before admission, as targets are for
        # /v1/points_to: a bad object fails its request, not a job.
        nodes = [session.object_node(item) for item in raw]
        labels = [
            item if isinstance(item, str) else session.name(node)
            for item, node in zip(raw, nodes)
        ]
        client = self._client_id(payload)

        def run() -> List[Dict[str, Any]]:
            out = []
            for node, label in zip(nodes, labels):
                res = session.flows_to(node, ctx)
                out.append(
                    {
                        "object": label,
                        "variables": sorted(
                            session.name(v) for v in res.objects
                        ),
                        "exhausted": res.exhausted,
                    }
                )
            return out
        self._send_json(200, {"results": svc.submit_call(client, run)})

    def _alias(self, payload: Dict[str, Any]) -> None:
        svc = self.service
        session = svc.session
        ctx = _parse_ctx(payload.get("ctx"))
        a, b = payload.get("a"), payload.get("b")
        if a is None or b is None:
            raise ServeRejected(400, "alias needs 'a' and 'b' targets")
        (la, qa), (lb, qb) = self._resolve_targets(session, [a, b], ctx)
        client = self._client_id(payload)
        ra, rb = svc.submit_queries(client, [qa, qb])
        # The engine's may-alias rule: an exhausted side is conservative
        # truth; otherwise alias iff the object sets overlap.
        verdict = bool(
            ra.exhausted or rb.exhausted or (ra.objects & rb.objects)
        )
        self._send_json(
            200, {"a": la, "b": lb, "may_alias": verdict}
        )

    def _check(self, payload: Dict[str, Any]) -> None:
        svc = self.service
        session = svc.session
        checkers = payload.get("checkers")
        if checkers is not None and not (
            isinstance(checkers, list)
            and all(isinstance(c, str) for c in checkers)
        ):
            raise ServeRejected(400, "checkers must be a list of ids")
        client = self._client_id(payload)

        def run() -> Dict[str, Any]:
            report = session.check(checkers)
            return {
                "findings": [
                    {
                        "checker": f.checker,
                        "severity": f.severity.name.lower(),
                        "message": f.message,
                        "method": f.method,
                    }
                    for f in report.findings
                ],
                "n_queries": report.n_queries,
            }
        self._send_json(200, svc.submit_call(client, run))

    def _drain(self) -> None:
        server = self.server
        self.close_connection = True  # the daemon is going away
        self._send_json(202, {"status": "draining"})
        # Drain off-thread: this handler must finish its response (and
        # serve_forever must keep polling) while the queue empties.
        threading.Thread(
            target=server.initiate_shutdown,
            name="repro-serve-drain",
            daemon=True,
        ).start()


def _stop_reading(conn: socket.socket) -> None:
    """Wake a handler blocked reading ``conn`` with end-of-file.  Bytes
    that already arrived stay readable and writes still work, so a
    request caught in flight is still answered."""
    try:
        conn.shutdown(socket.SHUT_RD)
    except OSError:
        pass  # the peer already closed it


class _Server(ThreadingHTTPServer):
    daemon_threads = False  # finish in-flight responses on shutdown
    #: Close the listening socket promptly on restart cycles.
    allow_reuse_address = True

    def __init__(
        self, addr: Tuple[str, int], service: AnalysisService
    ) -> None:
        super().__init__(addr, _Handler)
        self.service = service
        self._conn_lock = threading.Lock()
        #: Connections whose handler waits for the next request line.
        self._idle: Set[socket.socket] = set()
        #: Set once shutdown starts: every response then carries
        #: ``Connection: close`` and no connection waits idle.
        self.closing = False

    def process_request(self, request: Any, client_address: Any) -> None:
        self.service._count("serve.connections")
        super().process_request(request, client_address)

    def park(self, conn: socket.socket) -> None:
        with self._conn_lock:
            if not self.closing:
                self._idle.add(conn)
                return
        _stop_reading(conn)

    def unpark(self, conn: socket.socket) -> None:
        with self._conn_lock:
            self._idle.discard(conn)

    def shutdown_request(self, request: Any) -> None:
        self.unpark(request)
        super().shutdown_request(request)

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A client resetting its kept-alive connection is not a fault.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def initiate_shutdown(self) -> None:
        """Graceful stop, callable from any thread and idempotent: close
        the idle connections, drain the service, then break
        ``serve_forever``.  ``server_close`` joins every handler thread,
        so no kept-alive connection may be left waiting."""
        with self._conn_lock:
            if self.closing:
                return
            self.closing = True
            idle, self._idle = self._idle, set()
        for conn in idle:
            _stop_reading(conn)
        self.service.drain()
        self.shutdown()


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def serve(
    session: Session,
    config: Optional[ServeConfig] = None,
    *,
    ready: Optional[Any] = None,
) -> _Server:
    """Bind a daemon for ``session`` and return the (not yet serving)
    server; the caller runs ``serve_forever()``.  ``ready`` is an
    optional callable invoked with the bound ``(host, port)`` —
    in-process tests use it to learn an ephemeral port."""
    config = config or ServeConfig()
    service = AnalysisService(session, config)
    server = _Server((config.host, config.port), service)
    if ready is not None:
        ready(server.server_address[:2])
    return server


def serve_command(args) -> int:
    """``repro serve`` — boot the daemon and run until drained."""
    recorder = MetricsRecorder()
    runtime = RuntimeConfig.from_flags(
        mode=args.mode,
        n_threads=args.threads,
        backend=args.backend or DEFAULT_BACKEND,
    )
    engine = EngineConfig(
        budget=args.budget if args.budget is not None else DEFAULT_BUDGET
    )
    session = Session.open(
        args.file,
        language=args.language,
        runtime=runtime,
        engine=engine,
        recorder=recorder,
    )
    if getattr(args, "snapshot", None):
        accepted = session.warm_from_snapshot(args.snapshot)
        print(f"warm boot: {accepted} entries from {args.snapshot}")
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        batch_window=args.batch_window,
        client_step_budget=args.client_budget,
        drain_grace=args.drain_grace,
    )
    server = serve(session, config)
    host, port = server.server_address[:2]
    print(
        f"repro-serve {__version__}: serving {args.file} "
        f"on http://{host}:{port} "
        f"(mode {runtime.mode}, backend {runtime.backend} "
        f"x{runtime.effective_threads})",
        flush=True,
    )

    def on_signal(signum, frame) -> None:
        threading.Thread(
            target=server.initiate_shutdown,
            name="repro-serve-signal",
            daemon=True,
        ).start()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    drained = server.service.drain(0.0)
    print(
        "repro-serve: drained "
        f"({server.service.n_jobs_done} jobs served), bye",
        flush=True,
    )
    return 0 if drained else 1


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------
class ServeClient:
    """Minimal wire client for the daemon (tests, scripts, CI smoke).

    Each calling thread keeps one kept-alive ``TCP_NODELAY`` socket and
    one buffered reader over it, so one client instance may be shared
    across threads and only a thread's first call pays the TCP
    handshake.  A request leaves in one ``sendall``; its response is
    read as a status line, a head through :func:`_read_head`, then
    ``Content-Length`` bytes.  A reused connection the daemon has since
    closed is reopened once and the request resent; a daemon that
    cannot be reached, or does not answer within ``timeout`` seconds,
    is :class:`ServeRejected` 503, and a response that cannot be framed
    is 502 with the connection dropped.  A response carrying
    ``Connection: close`` closes the connection after it.
    :meth:`close` (or leaving a ``with`` block) closes the calling
    thread's connection.  Refusals (429/503) raise
    :class:`ServeRejected` with the daemon's reason."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client_id: str = "client",
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout
        self._local = threading.local()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Close the calling thread's connection, if it has one."""
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is not None:
            sock, rfile = conn
            rfile.close()
            sock.close()

    # -- plumbing ------------------------------------------------------
    def _connect(self) -> Tuple[socket.socket, BinaryIO]:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = (sock, sock.makefile("rb"))
        self._local.conn = conn
        return conn

    def _exchange(
        self, method: str, path: str, body: Optional[bytes]
    ) -> Tuple[int, bytes]:
        """One request/response on the calling thread's connection:
        ``(status, body)``."""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"X-Repro-Client: {self.client_id}\r\n"
        )
        if body is not None:
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        message = (head + "\r\n").encode("latin-1") + (body or b"")
        while True:
            conn = getattr(self._local, "conn", None)
            reused = conn is not None
            try:
                sock, rfile = conn if reused else self._connect()
                sock.sendall(message)
                status_line = rfile.readline(_MAX_LINE + 1)
                if not status_line:
                    raise ConnectionResetError("connection closed by daemon")
                status = _status_of(status_line)
                reply = _read_head(rfile)
                lengths = reply.get("content-length", [])
                if len(lengths) != 1 or not lengths[0].isdigit():
                    raise ServeRejected(
                        502, f"response not framed: Content-Length {lengths}"
                    )
                length = int(lengths[0])
                raw = rfile.read(length)
                if len(raw) < length:
                    raise ServeRejected(
                        502, f"response body cut at {len(raw)} of {length} bytes"
                    )
            except OSError as exc:
                self.close()
                # The daemon closes idle connections (drain, restart),
                # so a reused one can be dead before the request reached
                # it: reopen once.  A timeout means slow, not dead.
                if reused and not isinstance(exc, socket.timeout):
                    continue
                raise ServeRejected(
                    503,
                    f"daemon unreachable at {self.host}:{self.port}: {exc}",
                ) from None
            except ServeRejected as exc:
                self.close()  # the stream is out of step with the daemon
                raise ServeRejected(
                    502, f"malformed response from daemon: {exc.reason}"
                ) from None
            except BaseException:
                self.close()  # a half-read response poisons the connection
                raise
            if "close" in _field(reply, "connection").lower():
                self.close()
            return status, raw

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        body = None if payload is None else json.dumps(payload).encode()
        status, raw = self._exchange(method, path, body)
        try:
            data = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            data = {"error": raw.decode(errors="replace")}
        if status >= 400:
            raise ServeRejected(status, data.get("error", f"HTTP {status}"))
        return data

    # -- API -----------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metricz(self) -> Dict[str, int]:
        return self._request("GET", "/metricz")

    def targets(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/targets")["targets"]

    def points_to(
        self,
        targets: Sequence[Union[int, str]],
        ctx: Sequence[int] = (),
    ) -> List[Dict[str, Any]]:
        return self._request(
            "POST",
            "/v1/points_to",
            {"targets": list(targets), "ctx": list(ctx)},
        )["results"]

    def flows_to(
        self,
        objects: Sequence[Union[int, str]],
        ctx: Sequence[int] = (),
    ) -> List[Dict[str, Any]]:
        return self._request(
            "POST",
            "/v1/flows_to",
            {"objects": list(objects), "ctx": list(ctx)},
        )["results"]

    def alias(
        self,
        a: Union[int, str],
        b: Union[int, str],
        ctx: Sequence[int] = (),
    ) -> bool:
        return self._request(
            "POST", "/v1/alias", {"a": a, "b": b, "ctx": list(ctx)}
        )["may_alias"]

    def check(
        self, checkers: Optional[Sequence[str]] = None
    ) -> Dict[str, Any]:
        return self._request(
            "POST",
            "/v1/check",
            {"checkers": list(checkers)} if checkers else {},
        )

    def drain(self) -> Dict[str, Any]:
        return self._request("POST", "/admin/drain")
