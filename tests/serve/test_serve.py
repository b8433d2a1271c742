"""Tests for ``repro serve`` — the resident analysis daemon.

Two layers are exercised:

* :class:`AnalysisService` directly (admission control, budgets, the
  bounded queue, graceful drain) with a blocked dispatcher where the
  scenario needs deterministic queue occupancy; and
* a real in-process :class:`ThreadingHTTPServer` on an ephemeral port,
  driven through :class:`ServeClient` — answers must be byte-identical
  to a one-shot :class:`Session` over the same file, the PAG must be
  built exactly once however many requests arrive (the residency
  acceptance criterion), and a concurrent client swarm must lose or
  corrupt no answers;
* the connection lifecycle: one kept-alive connection per client
  thread, ``TCP_NODELAY`` on the accepted socket, a drain that closes
  idle connections, one reconnect after the daemon closed a reused
  connection, and a defined refusal for each malformed request.
"""

import http.client
import io
import json
import socket
import struct
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.api import (
    EngineConfig,
    FaultPlan,
    InputError,
    MetricsRecorder,
    Query,
    RuntimeConfig,
    Session,
    load_benchmark,
    run_checkers,
    spec_of,
)
from repro.serve import (
    DEFAULT_BACKEND,
    AnalysisService,
    ServeClient,
    ServeConfig,
    ServeRejected,
    serve,
)
from repro.serve import _Job, _read_head

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "box_clean.mj"


def make_session(**kw):
    kw.setdefault(
        "runtime", RuntimeConfig(mode="DQ", n_threads=2, backend="threads")
    )
    kw.setdefault("engine", EngineConfig(tau_f=0, tau_u=0))
    return Session.open(EXAMPLE, **kw)


# ----------------------------------------------------------------------
# AnalysisService: admission control and drain (no HTTP involved)
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_submit_queries_answers_in_request_order(self):
        session = make_session()
        svc = AnalysisService(session, ServeConfig(port=0))
        specs = ["b@Main.main", "v@Main.main", "b@Main.main"]
        nodes = [session.resolve(s) for s in specs]
        results = svc.submit_queries("t", [Query(n) for n in nodes])
        assert len(results) == len(specs)
        direct = Session.open(EXAMPLE)
        for spec, res in zip(specs, results):
            assert res.objects == direct.points_to(spec).objects
        svc.drain()

    def test_client_budget_exhaustion_is_429(self):
        rec = MetricsRecorder()
        session = make_session(recorder=rec)
        svc = AnalysisService(
            session, ServeConfig(port=0, client_step_budget=1)
        )
        node = session.resolve("b@Main.main")
        # First job is admitted (nothing spent yet) and charges the
        # ledger past the 1-step budget; the second is refused.
        svc.submit_queries("greedy", [Query(node)])
        with pytest.raises(ServeRejected) as exc:
            svc.submit_queries("greedy", [Query(node)])
        assert exc.value.status == 429
        assert "budget" in exc.value.reason
        # ...but only for that client: budgets are per client id.
        assert svc.submit_queries("frugal", [Query(node)])
        assert rec.snapshot()["serve.rejected_budget"] == 1
        svc.drain()

    def test_full_queue_is_429(self):
        rec = MetricsRecorder()
        session = make_session(recorder=rec)
        svc = AnalysisService(session, ServeConfig(port=0, max_pending=1))
        gate = threading.Event()
        blocker = _Job(kind="call", client="t", call=gate.wait)
        svc._admit(blocker)          # dispatcher picks this up and blocks
        while svc._queue.qsize():    # wait until it is actually running
            pass
        filler = _Job(kind="queries", client="t",
                      queries=[Query(session.resolve("b@Main.main"))])
        svc._admit(filler)           # occupies the single queue slot
        with pytest.raises(ServeRejected) as exc:
            svc._admit(_Job(kind="queries", client="t",
                            queries=[Query(session.resolve("v@Main.main"))]))
        assert exc.value.status == 429
        assert "queue full" in exc.value.reason
        assert rec.snapshot()["serve.rejected_queue"] == 1
        gate.set()
        svc._await(filler)
        assert filler.results is not None
        svc.drain()

    def test_draining_daemon_refuses_with_503(self):
        rec = MetricsRecorder()
        session = make_session(recorder=rec)
        svc = AnalysisService(session, ServeConfig(port=0))
        assert svc.drain()
        with pytest.raises(ServeRejected) as exc:
            svc.submit_queries(
                "late", [Query(session.resolve("b@Main.main"))]
            )
        assert exc.value.status == 503
        assert rec.snapshot()["serve.rejected_draining"] == 1

    def test_analysis_errors_surface_as_400(self):
        session = make_session()
        svc = AnalysisService(session, ServeConfig(port=0))
        with pytest.raises(ServeRejected) as exc:
            svc.submit_call("t", lambda: session.resolve("zzz@No.where"))
        assert exc.value.status == 400
        svc.drain()


class TestGracefulDrain:
    def test_admitted_jobs_all_complete(self):
        rec = MetricsRecorder()
        session = make_session(recorder=rec)
        svc = AnalysisService(session, ServeConfig(port=0, max_pending=16))
        gate = threading.Event()
        blocker = _Job(kind="call", client="t", call=gate.wait)
        svc._admit(blocker)
        while svc._queue.qsize():
            pass
        node = session.resolve("b@Main.main")
        pending = [
            _Job(kind="queries", client="t", queries=[Query(node)])
            for _ in range(5)
        ]
        for job in pending:
            svc._admit(job)
        drained_flag = []
        drainer = threading.Thread(
            target=lambda: drained_flag.append(svc.drain(10.0))
        )
        drainer.start()
        while not svc.draining:      # drain initiated; queue still full
            pass
        gate.set()                   # unblock the dispatcher
        drainer.join(10.0)
        assert drained_flag == [True]
        for job in pending:          # every admitted job was answered
            assert job.done.is_set()
            assert job.error is None
            assert job.results is not None
        assert rec.snapshot()["serve.drained_jobs"] >= len(pending)

    def test_drain_is_idempotent(self):
        svc = AnalysisService(make_session(), ServeConfig(port=0))
        assert svc.drain()
        assert svc.drain()
        assert svc.stats()["status"] == "draining"


# ----------------------------------------------------------------------
# the wire: a live in-process daemon on an ephemeral port
# ----------------------------------------------------------------------
def start_daemon(port=0, path=EXAMPLE):
    """A served session over ``path`` on ``port`` (ephemeral by
    default), running on a background thread: ``(server, thread,
    session, recorder)``."""
    rec = MetricsRecorder()
    session = Session.open(
        path,
        runtime=RuntimeConfig(
            mode="DQ", n_threads=2, backend=DEFAULT_BACKEND
        ),
        engine=EngineConfig(tau_f=0, tau_u=0),
        recorder=rec,
    )
    server = serve(session, ServeConfig(port=port))
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    return server, thread, session, rec


def stop_daemon(server, thread, within=10.0):
    """Graceful drain and close; fails if it takes over ``within`` s.
    ``server_close`` joins every handler thread, so it runs on a
    helper thread that a stuck drain cannot hang the test on."""
    def stop():
        server.initiate_shutdown()
        thread.join(within)
        server.server_close()

    stopper = threading.Thread(target=stop, daemon=True)
    t0 = time.monotonic()
    stopper.start()
    stopper.join(within)
    assert not stopper.is_alive(), "drain blocked"
    assert not thread.is_alive()
    return time.monotonic() - t0


@contextmanager
def live_daemon(path=EXAMPLE):
    server, thread, session, rec = start_daemon(path=path)
    host, port = server.server_address[:2]
    with ServeClient(host, port) as client:
        yield client, session, rec
    stop_daemon(server, thread)


@pytest.fixture(scope="module")
def daemon():
    with live_daemon() as live:
        yield live


@pytest.fixture(scope="module")
def oneshot():
    """A fresh one-shot session over the same file — the answers the
    daemon must match byte for byte."""
    return Session.open(EXAMPLE, engine=EngineConfig(tau_f=0, tau_u=0))


class TestEndpoints:
    def test_healthz_reports_resident_state(self, daemon):
        client, session, _rec = daemon
        health = client.healthz()
        assert health["status"] == "serving"
        assert health["source"] == str(EXAMPLE)
        assert health["n_nodes"] == session.pag.n_nodes
        assert health["backend"] == "local"
        assert health["n_threads"] == 1  # the effective worker count
        assert "api.pag_builds" in health
        assert "jumps.hits" in health

    def test_metricz_exposes_counters(self, daemon):
        client, _session, _rec = daemon
        client.targets()
        metrics = client.metricz()
        assert metrics["api.sessions"] == 1
        assert metrics["serve.requests"] >= 1

    def test_targets_lists_app_locals(self, daemon):
        client, session, _rec = daemon
        targets = client.targets()
        assert [t["node"] for t in targets] == session.app_locals()
        assert [t["name"] for t in targets] == [
            session.name(v) for v in session.app_locals()
        ]

    def test_points_to_matches_oneshot(self, daemon, oneshot):
        client, _session, _rec = daemon
        specs = ["b@Main.main", "v@Main.main", "got@Main.main"]
        results = client.points_to(specs)
        for spec, res in zip(specs, results):
            expected = oneshot.points_to(spec)
            assert res["query"] == spec
            assert res["objects"] == sorted(
                oneshot.name(o) for o in expected.objects
            )
            assert res["exhausted"] == expected.exhausted

    def test_alias_matches_oneshot(self, daemon, oneshot):
        client, _session, _rec = daemon
        for a, b in (("b@Main.main", "same@Main.main"),
                     ("b@Main.main", "v@Main.main")):
            assert client.alias(a, b) == oneshot.may_alias(a, b)

    def test_flows_to_matches_oneshot(self, daemon, oneshot):
        client, _session, _rec = daemon
        (res,) = client.flows_to(["o:Main.main:0"])
        expected = oneshot.flows_to("o:Main.main:0")
        assert res["variables"] == sorted(
            oneshot.name(v) for v in expected.objects
        )

    def test_check_runs_on_the_dispatcher(self, daemon):
        client, _session, _rec = daemon
        report = client.check(["null-deref", "downcast"])
        assert report["findings"] == []
        assert report["n_queries"] > 0

    def test_bad_target_is_400(self, daemon):
        client, _session, _rec = daemon
        with pytest.raises(ServeRejected) as exc:
            client.points_to(["zzz@No.where"])
        assert exc.value.status == 400

    @pytest.mark.parametrize("path, payload", [
        ("/v1/points_to", {"targets": [99999]}),
        ("/v1/points_to", {"targets": [-1]}),
        ("/v1/points_to", {"targets": [True]}),
        ("/v1/points_to", {"targets": [1.0]}),
        ("/v1/points_to", {"targets": [0]}),
        ("/v1/points_to", {"targets": ["b@Main.main"], "ctx": [True]}),
        ("/v1/flows_to", {"objects": [99999]}),
        ("/v1/flows_to", {"objects": [-1]}),
        ("/v1/flows_to", {"objects": [False]}),
        ("/v1/flows_to", {"objects": [{}]}),
        ("/v1/alias", {"a": "b@Main.main", "b": 99999}),
    ], ids=["pt-too-big", "pt-negative", "pt-bool", "pt-float",
            "pt-unfinished", "pt-ctx-bool",
            "ft-too-big", "ft-negative", "ft-bool", "ft-object",
            "alias-too-big"])
    def test_bad_node_id_is_400_and_daemon_keeps_serving(
        self, daemon, oneshot, path, payload
    ):
        client, _session, _rec = daemon
        with pytest.raises(ServeRejected) as exc:
            client._request("POST", path, payload)
        assert exc.value.status == 400
        (res,) = client.points_to(["b@Main.main"])
        assert res["objects"] == sorted(
            oneshot.name(o) for o in oneshot.points_to("b@Main.main").objects
        )

    def test_session_rejects_bad_node_ids(self, oneshot):
        # Ids run over [0, len(pag)); the synthetic unfinished node O
        # is not a program node, so the last real id is n_nodes.
        pag = oneshot.pag
        n = pag.n_nodes
        for bad in (len(pag), pag.unfinished_node, -1, True, 1.0, "0", None):
            with pytest.raises(InputError, match="bad node id"):
                oneshot.node_id(bad)
        for method in (oneshot.points_to, oneshot.flows_to):
            with pytest.raises(InputError, match="bad node id"):
                method(-1)
        with pytest.raises(InputError, match="bad node id"):
            oneshot.queries([len(pag)])
        assert oneshot.node_id(n) == n
        assert oneshot.node_id(n - 1) == n - 1

    def test_session_rejects_wrong_kind_node_ids(self, oneshot):
        pag = oneshot.pag
        var = oneshot.resolve("b@Main.main")
        obj = oneshot.resolve_obj("o:Main.main:0")
        with pytest.raises(InputError, match="not a variable"):
            oneshot.points_to(obj)
        with pytest.raises(InputError, match="not a variable"):
            oneshot.queries([obj])
        with pytest.raises(InputError, match="not an object"):
            oneshot.flows_to(var)
        assert pag.is_object(pag.n_nodes)
        oneshot.flows_to(pag.n_nodes)

    def test_last_object_flows_to_is_200(self, daemon, oneshot):
        client, session, _rec = daemon
        last = session.pag.n_nodes
        (res,) = client.flows_to([last])
        assert res["object"] == session.name(last)
        expected = oneshot.flows_to(last)
        assert res["variables"] == sorted(
            oneshot.name(v) for v in expected.objects
        )

    def test_wrong_kind_target_is_refused_before_admission(self, daemon):
        # An object id sent as a points-to target is refused with 400
        # on its own request: it is never admitted, so it cannot join
        # (and fail) a batch shared with other clients' jobs.
        client, session, rec = daemon
        obj = session.resolve_obj("o:Main.main:0")
        before = rec.snapshot()
        with pytest.raises(ServeRejected) as exc:
            client.points_to(["b@Main.main", obj])
        assert exc.value.status == 400
        after = rec.snapshot()
        for key in ("serve.jobs", "serve.batches"):
            assert after.get(key, 0) == before.get(key, 0), key

    @pytest.mark.parametrize("bad", ["var", "no-such-label"])
    def test_bad_flows_to_object_is_refused_before_admission(
        self, daemon, bad
    ):
        # Objects are resolved and kind-checked on the handler thread,
        # as points-to targets are: the request gets 400 without taking
        # a queue slot or a dispatcher turn.
        client, session, rec = daemon
        if bad == "var":
            bad = session.resolve("b@Main.main")
        before = rec.snapshot()
        with pytest.raises(ServeRejected) as exc:
            client.flows_to([bad])
        assert exc.value.status == 400
        after = rec.snapshot()
        for key in ("serve.jobs", "serve.batches"):
            assert after.get(key, 0) == before.get(key, 0), key

    def test_empty_targets_is_400(self, daemon):
        client, _session, _rec = daemon
        with pytest.raises(ServeRejected) as exc:
            client.points_to([])
        assert exc.value.status == 400

    def test_unknown_route_is_404(self, daemon):
        client, _session, _rec = daemon
        with pytest.raises(ServeRejected) as exc:
            client._request("GET", "/v2/psychic")
        assert exc.value.status == 404

    def test_unreachable_daemon_is_503(self):
        client = ServeClient("127.0.0.1", 1, timeout=0.5)
        with pytest.raises(ServeRejected) as exc:
            client.healthz()
        assert exc.value.status == 503


class TestResidency:
    def test_repeated_100_query_batches_build_the_pag_once(self, daemon):
        # The acceptance criterion: a resident session answers repeated
        # 100-query batches with zero PAG rebuilds after the first
        # request, and the counters prove the jump maps are reused.
        client, session, _rec = daemon
        names = [session.name(v) for v in session.app_locals()]
        batch = (names * (100 // len(names) + 1))[:100]
        first = client.points_to(batch)
        h1 = client.healthz()
        for _ in range(3):
            assert client.points_to(batch) == first  # stable answers
        h2 = client.healthz()
        assert h1["api.pag_builds"] == h2["api.pag_builds"] == 1
        assert h2["serve.queries"] >= h1["serve.queries"] + 300
        # jump-map reuse across rounds: lookups advanced and hits grew
        assert h2["jumps.lookups"] > h1["jumps.lookups"]
        assert h2["jumps.hits"] > h1["jumps.hits"]
        assert h2["n_runners"] == 1

    def test_single_target_requests_build_one_schedule_plan(self):
        # The scheduling plan (CD, components, DD) is whole-program and
        # query-independent: the resident runner builds it on the first
        # request and every later request pays only the grouping.
        with live_daemon() as (client, session, _rec):
            assert client.healthz()["sched.plan_builds"] == 0  # lazy
            names = [session.name(v) for v in session.app_locals()]
            for i in range(20):
                client.points_to([names[i % len(names)]])
            health = client.healthz()
        assert health["sched.plan_builds"] == 1
        assert health["api.pag_builds"] == 1
        assert health["serve.batches"] >= 20

    @pytest.mark.parametrize("fixture", ["taint_leak.mj", "escape_pool.mj"])
    def test_checks_run_on_the_resident_runner(self, fixture):
        checkers = ["null-deref", "taint", "escape"]
        # /check batches on the daemon's warm runner, so points-to and
        # check traffic share one schedule plan, and the findings are
        # those of a one-shot run_checkers.
        path = EXAMPLE.parent / fixture
        expected = [
            {
                "checker": f.checker,
                "severity": f.severity.name.lower(),
                "message": f.message,
                "method": f.method,
            }
            for f in run_checkers(Session.open(path).build, checkers).findings
        ]
        assert expected
        with live_daemon(path) as (client, session, _rec):
            client.points_to([session.name(session.app_locals()[0])])
            reports = [client.check(checkers) for _ in range(3)]
            health = client.healthz()
        assert health["sched.plan_builds"] == 1
        assert [r["findings"] for r in reports] == [expected] * 3


class TestNoFanOut:
    @pytest.mark.parametrize(
        "backend,fans_out", [(DEFAULT_BACKEND, False), ("threads", True)]
    )
    def test_served_requests_start_no_thread(
        self, monkeypatch, backend, fans_out
    ):
        # The default backend runs each batch on the dispatcher thread:
        # once the daemon is up and warm, a one-target request must not
        # start a thread anywhere on the analysis path.  The explicit
        # threads backend shows the probe does see a fan-out.
        session = make_session(
            runtime=RuntimeConfig(mode="DQ", n_threads=2, backend=backend)
        )
        svc = AnalysisService(session, ServeConfig(port=0))
        nodes = [Query(v) for v in session.app_locals()]
        svc.submit_queries("warmup", nodes)
        started = []
        real_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        for i in range(50):
            (res,) = svc.submit_queries("t", [nodes[i % len(nodes)]])
            assert res.query.var == session.rep(nodes[i % len(nodes)].var)
        monkeypatch.undo()
        assert bool(started) == fans_out
        assert svc.drain(10.0)


class TestMPWorkerKills:
    def test_served_answers_survive_killed_workers(self, tmp_path):
        # A warm-booted mp session served through the dispatcher, with
        # worker 0 killed on its second unit of every incarnation: the
        # batches requeue and respawn (or run inline) and lose nothing.
        name = "_200_check"
        build = load_benchmark(name)
        engine = spec_of(name).engine_config(budget=10**9)
        app = Session.from_build(build, engine=engine).app_locals()
        cold = Session.from_build(build, engine=engine)
        for var in app[::3]:
            cold.points_to(var)
        snap = tmp_path / "check.snap"
        cold.snapshot(snap)

        rec = MetricsRecorder()
        warm = Session.from_build(
            build,
            runtime=RuntimeConfig(
                mode="DQ", n_threads=2, backend="mp",
                faults=FaultPlan.single("kill", worker=0, after_units=1),
            ),
            engine=engine,
            recorder=rec,
        )
        assert warm.warm_from_snapshot(snap) > 0
        svc = AnalysisService(warm, ServeConfig(port=0))
        jobs = [app[i::4] for i in range(4)]
        try:
            answers = [
                svc.submit_queries("drill", [Query(v) for v in job])
                for job in jobs
            ]
        finally:
            assert svc.drain(30.0)
        oneshot = Session.from_build(build, engine=engine)
        for job, results in zip(jobs, answers):
            assert len(results) == len(job)
            for var, got in zip(job, results):
                want = oneshot.points_to(var)
                assert not got.exhausted
                assert got.points_to == want.points_to, warm.name(var)
        assert rec.snapshot()["mp.crashes"] >= 1


class TestConcurrentClients:
    def test_swarm_gets_complete_identical_answers(self, daemon, oneshot):
        client, session, rec = daemon
        specs = [session.name(v) for v in session.app_locals()]
        expected = {
            spec: sorted(
                oneshot.name(o) for o in oneshot.points_to(spec).objects
            )
            for spec in specs
        }
        errors = []
        answers = {}

        def worker(wid: int) -> None:
            got = []
            try:
                with ServeClient(
                    client.host, client.port, client_id=f"swarm-{wid}"
                ) as own:
                    for _ in range(4):
                        for res in own.points_to(specs):
                            got.append((res["query"], tuple(res["objects"])))
                        assert own.alias("b@Main.main", "same@Main.main")
            except BaseException as exc:  # surfaced after the join
                errors.append((wid, exc))
            answers[wid] = got

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not errors
        for wid, got in answers.items():
            assert len(got) == 4 * len(specs), f"worker {wid} lost answers"
            for spec, objects in got:
                assert list(objects) == expected[spec], (wid, spec)
        # the dispatcher multiplexed concurrent jobs into shared batches
        metrics = rec.snapshot()
        assert metrics["serve.batches"] >= 1
        assert metrics.get("serve.multiplexed", 0) >= 0


# ----------------------------------------------------------------------
# connection lifecycle
# ----------------------------------------------------------------------
@pytest.fixture()
def fresh_daemon():
    """A daemon of this test's own, stopped (and checked to stop)
    unless the test already did."""
    server, thread, session, rec = start_daemon()
    yield server, thread, session, rec
    if thread.is_alive():
        stop_daemon(server, thread)


def connections(rec):
    return rec.snapshot().get("serve.connections", 0)


class TestConnectionLifecycle:
    def test_sequential_requests_share_one_connection(self, fresh_daemon):
        server, _thread, _session, rec = fresh_daemon
        host, port = server.server_address[:2]
        with ServeClient(host, port) as client:
            for _ in range(10):
                (res,) = client.points_to(["b@Main.main"])
                assert res["objects"] == ["o:Main.main:0"]
            assert connections(rec) == 1
            client.close()               # the next call reconnects
            assert client.healthz()["status"] == "serving"
        assert connections(rec) == 2

    def test_shared_client_keeps_one_connection_per_thread(
        self, fresh_daemon
    ):
        # One instance, many threads, a short switch interval: each
        # thread must get its own connection and its own answers.
        server, _thread, session, rec = fresh_daemon
        host, port = server.server_address[:2]
        specs = [session.name(v) for v in session.app_locals()]
        client = ServeClient(host, port)
        errors = []

        def worker() -> None:
            try:
                for i in range(30):
                    spec = specs[i % len(specs)]
                    (res,) = client.points_to([spec])
                    assert res["query"] == spec
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)
            finally:
                client.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert connections(rec) == 8

    def test_accepted_socket_has_nodelay(self, fresh_daemon):
        server, _thread, _session, _rec = fresh_daemon
        host, port = server.server_address[:2]
        accepted = []
        real = server.process_request

        def record(request, client_address):
            accepted.append(request)
            real(request, client_address)

        server.process_request = record
        with ServeClient(host, port) as client:
            client.healthz()             # the handler's setup has run
            (sock,) = accepted
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_drain_closes_idle_connections(self, fresh_daemon):
        server, thread, _session, _rec = fresh_daemon
        host, port = server.server_address[:2]
        clients = [ServeClient(host, port) for _ in range(3)]
        try:
            for client in clients:
                assert client.healthz()["status"] == "serving"
            # Three idle kept-alive connections, each with a handler
            # thread that server_close joins.
            assert stop_daemon(server, thread, within=5.0) < 5.0
            with pytest.raises(ServeRejected) as exc:
                clients[0].healthz()
            assert exc.value.status == 503
        finally:
            for client in clients:
                client.close()

    def test_response_in_flight_during_drain_closes(self, fresh_daemon):
        server, thread, _session, _rec = fresh_daemon
        svc = server.service
        host, port = server.server_address[:2]
        gate = threading.Event()
        svc._admit(_Job(kind="call", client="t", call=gate.wait))
        while svc._queue.qsize():        # the dispatcher is now blocked
            pass
        replies = []

        def ask() -> None:
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                conn.request("POST", "/v1/points_to",
                             body=b'{"targets": ["b@Main.main"]}')
                resp = conn.getresponse()
                replies.append((resp.status, resp.getheader("Connection"),
                                resp.read()))
            finally:
                conn.close()

        asker = threading.Thread(target=ask)
        drainer = threading.Thread(target=server.initiate_shutdown)
        try:
            asker.start()
            while not svc._queue.qsize():    # its job is admitted
                time.sleep(0.001)
            drainer.start()
            while not server.closing:
                time.sleep(0.001)
        finally:
            gate.set()
        asker.join(10.0)
        drainer.join(10.0)
        assert not asker.is_alive() and not drainer.is_alive()
        ((status, connection, body),) = replies
        assert status == 200 and b"o:Main.main:0" in body
        assert connection == "close"
        stop_daemon(server, thread)

    def test_client_reset_is_not_a_daemon_error(self, fresh_daemon, capsys):
        # A client that drops its kept-alive connection abortively
        # resets it under the handler's next read.
        server, thread, _session, _rec = fresh_daemon
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            assert sock.recv(1)          # the reply arrived; rest unread
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
        stop_daemon(server, thread)      # joins the handler thread
        assert "Traceback" not in capsys.readouterr().err

    def test_reused_connection_reconnects_once_after_restart(self):
        server, thread, _session, _rec = start_daemon()
        host, port = server.server_address[:2]
        with ServeClient(host, port) as client:
            client.healthz()
            stop_daemon(server, thread)  # closes the client's connection
            server, thread, _session, rec = start_daemon(port)
            try:
                assert client.healthz()["status"] == "serving"
                assert connections(rec) == 1
            finally:
                stop_daemon(server, thread)

    def test_dead_daemon_is_503_without_retry_loop(self, monkeypatch):
        server, thread, _session, _rec = start_daemon()
        host, port = server.server_address[:2]
        connects = []
        real = socket.create_connection

        def counting(*args, **kwargs):
            connects.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counting)
        with ServeClient(host, port, timeout=5.0) as client:
            client.healthz()
            stop_daemon(server, thread)
            for _ in range(2):           # reused dead, then fresh
                del connects[:]
                with pytest.raises(ServeRejected) as exc:
                    client.healthz()
                assert exc.value.status == 503
                assert "unreachable" in exc.value.reason
                assert len(connects) == 1


def exchange(host, port, request: bytes) -> bytes:
    """Send raw bytes; read until the daemon closes the connection."""
    out = b""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(request)
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                out += chunk
        except ConnectionResetError:
            pass  # closed with the unread body still queued
    return out


class TestMalformedRequests:
    BODY = b'{"targets": ["b@Main.main"]}'

    @pytest.mark.parametrize(
        "headers,body,status",
        [
            (b"Content-Length: abc\r\n", BODY, 400),
            (b"Content-Length: -5\r\n", BODY, 400),
            (b"Transfer-Encoding: chunked\r\n",
             b"%x\r\n%s\r\n0\r\n\r\n" % (len(BODY), BODY), 411),
            (b"Content-Length: %d\r\n" % (2 << 20), BODY, 413),
        ],
        ids=["non-numeric", "negative", "chunked", "oversized"],
    )
    def test_refused_with_defined_status_and_closed(
        self, fresh_daemon, capsys, headers, body, status
    ):
        server, _thread, _session, _rec = fresh_daemon
        host, port = server.server_address[:2]
        request = (b"POST /v1/points_to HTTP/1.1\r\nHost: t\r\n"
                   + headers + b"\r\n" + body)
        reply = exchange(host, port, request)
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status), reply
        assert b"\r\nConnection: close" in head
        assert b"\r\nContent-Type: application/json" in head
        # One response, then the connection closed: the unread body
        # was never parsed as a second request.
        assert reply.count(b"HTTP/1.1 ") == 1
        assert "error" in json.loads(payload)
        assert "Traceback" not in capsys.readouterr().err
        with ServeClient(host, port) as client:   # the daemon serves on
            assert client.healthz()["status"] == "serving"

    @pytest.mark.parametrize(
        "request_bytes,status",
        [
            (b"GET /healthz HTTP/1.1\r\n"
             + b"".join(b"X-Pad-%d: v\r\n" % i for i in range(101))
             + b"\r\n", 431),
            (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * (64 << 10)
             + b"\r\n\r\n", 431),
            # A lenient parser drops every field after a colonless line
            # (Content-Length among them) and leaves the body to be
            # read as the next request; a fold would rewrite a value.
            (b"POST /v1/points_to HTTP/1.1\r\nNoColonHere\r\n"
             b"Content-Length: %d\r\n\r\n%s" % (len(BODY), BODY), 400),
            (b"POST /v1/points_to HTTP/1.1\r\nX-Repro-Client: a\r\n"
             b"  folded\r\nContent-Length: %d\r\n\r\n%s"
             % (len(BODY), BODY), 400),
        ],
        ids=["101-header-lines", "header-line-over-64k", "no-colon",
             "obs-fold"],
    )
    def test_head_limits_refused_and_closed(
        self, fresh_daemon, capsys, request_bytes, status
    ):
        server, _thread, _session, _rec = fresh_daemon
        host, port = server.server_address[:2]
        reply = exchange(host, port, request_bytes)
        head = reply.partition(b"\r\n\r\n")[0]
        assert head.startswith(b"HTTP/1.1 %d " % status), reply[:200]
        assert b"\r\nConnection: close" in head
        assert reply.count(b"HTTP/1.1 ") == 1
        assert "Traceback" not in capsys.readouterr().err
        with ServeClient(host, port) as client:   # the daemon serves on
            assert client.healthz()["status"] == "serving"

    def test_http_2_request_line_is_505_and_closed(self, fresh_daemon):
        # The version is refused before it is recorded, so the reply is
        # an HTTP/0.9-style bare body: no status line, then closed.
        server, _thread, _session, _rec = fresh_daemon
        host, port = server.server_address[:2]
        reply = exchange(host, port, b"GET /healthz HTTP/2.0\r\n\r\n")
        assert b"Error code: 505" in reply
        assert b"HTTP/" not in reply.partition(b"\n")[0]
        with ServeClient(host, port) as client:   # the daemon serves on
            assert client.healthz()["status"] == "serving"

    def test_http_1_0_is_answered_then_closed(self, fresh_daemon):
        server, _thread, _session, _rec = fresh_daemon
        host, port = server.server_address[:2]
        # exchange() reads until the daemon closes: a kept-alive
        # connection would time it out instead.
        reply = exchange(
            host, port,
            b"POST /v1/points_to HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s"
            % (len(self.BODY), self.BODY),
        )
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 "), reply
        assert b"\r\nConnection: close" in head
        assert reply.count(b"HTTP/1.1 ") == 1
        (res,) = json.loads(payload)["results"]
        assert res["objects"] == ["o:Main.main:0"]

    def test_expect_100_continue_is_answered_first(self, fresh_daemon):
        server, _thread, _session, _rec = fresh_daemon
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(
                b"POST /v1/points_to HTTP/1.1\r\nHost: t\r\n"
                b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n"
                % len(self.BODY)
            )
            # The interim reply comes before the body is sent.
            assert rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert rfile.readline() == b"\r\n"
            sock.sendall(self.BODY)
            assert rfile.readline().startswith(b"HTTP/1.1 200 ")
            length = None
            while True:
                line = rfile.readline()
                if line == b"\r\n":
                    break
                name, _, value = line.partition(b":")
                if name.lower() == b"content-length":
                    length = int(value)
            (res,) = json.loads(rfile.read(length))["results"]
            assert res["objects"] == ["o:Main.main:0"]
            rfile.close()

    def test_stdlib_client_head_and_body_in_two_writes(self, fresh_daemon):
        # http.client sends a request's head and its body in separate
        # writes: the daemon must wait for the body the head announces.
        server, _thread, _session, _rec = fresh_daemon
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for _ in range(2):               # and keeps the connection
                conn.request("POST", "/v1/points_to", body=self.BODY,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                assert resp.status == 200
                (res,) = json.loads(resp.read())["results"]
                assert res["objects"] == ["o:Main.main:0"]
        finally:
            conn.close()

    def test_undecodable_body_is_400_and_keeps_the_connection(
        self, fresh_daemon, capsys
    ):
        server, _thread, _session, _rec = fresh_daemon
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("POST", "/v1/points_to", body=b"\xff\xfe\xfd")
            resp = conn.getresponse()
            assert resp.status == 400
            assert "invalid JSON" in json.loads(resp.read())["error"]
            conn.request("GET", "/healthz")  # framed, so still in sync
            assert conn.getresponse().status == 200
        finally:
            conn.close()
        assert "Traceback" not in capsys.readouterr().err


def test_read_head_takes_100_field_lines_and_repeats():
    lines = b"".join(b"X-Pad-%d: v%d \r\n" % (i, i) for i in range(98))
    rfile = io.BytesIO(
        lines + b"x-pad-0: again\r\nContent-Length:5\n\r\nrest"
    )
    head = _read_head(rfile)
    assert rfile.read() == b"rest"                # stops at the blank line
    assert len(head) == 99
    assert head["x-pad-0"] == ["v0", "again"]
    assert head["content-length"] == ["5"]


# ----------------------------------------------------------------------
# the client against a misbehaving server
# ----------------------------------------------------------------------
@contextmanager
def one_shot_server(reply: bytes, hold_open: bool):
    """A server that answers one request with ``reply``, then closes at
    once or waits for the client to.  Yields ``(host, port, seen)``:
    ``seen`` gets ``"client closed"`` if the client dropped the
    connection while it was held open."""
    listener = socket.create_server(("127.0.0.1", 0))
    seen = []

    def run() -> None:
        conn, _addr = listener.accept()
        with conn:
            conn.settimeout(10)
            data = b""
            while b"\r\n\r\n" not in data:
                data += conn.recv(65536)
            conn.sendall(reply)
            if hold_open and conn.recv(1) == b"":
                seen.append("client closed")

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[0], listener.getsockname()[1], seen
        thread.join(10)
        assert not thread.is_alive()
    finally:
        listener.close()


class TestClientProtocolErrors:
    TIMEOUT = 5.0

    @pytest.mark.parametrize(
        "reply,hold_open",
        [
            (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}",
             True),
            (b"HTTP/1.1 2OO OK\r\nContent-Length: 2\r\n\r\n{}", True),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"resu",
             False),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Cut", False),
        ],
        ids=["no-content-length", "garbled-status-line", "closed-mid-body",
             "closed-mid-head"],
    )
    def test_unframed_response_is_rejected_and_dropped(self, reply, hold_open):
        with one_shot_server(reply, hold_open) as (host, port, seen):
            client = ServeClient(host, port, timeout=self.TIMEOUT)
            t0 = time.monotonic()
            with pytest.raises(ServeRejected) as exc:
                client.healthz()
            elapsed = time.monotonic() - t0
            assert client._local.conn is None     # dropped, not reused
        assert exc.value.status == 502
        assert "malformed response" in exc.value.reason
        assert elapsed < self.TIMEOUT / 2        # never waited it out
        if hold_open:
            assert seen == ["client closed"]

    def test_silent_server_is_503_within_the_timeout(self):
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            host, port = listener.getsockname()[:2]
            client = ServeClient(host, port, timeout=0.5)
            t0 = time.monotonic()
            with pytest.raises(ServeRejected) as exc:
                client.healthz()                  # accepted, never read
            assert time.monotonic() - t0 < 2.0
            assert exc.value.status == 503
            assert client._local.conn is None
        finally:
            listener.close()
