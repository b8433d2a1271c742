"""Tier-2 serve smoke: boot the real daemon as a subprocess and drive
it over the wire — the same job CI's serve-smoke gate runs.

The daemon is started with ``--port 0`` (ephemeral); the bound port is
parsed from the ready line.  The checks mirror the acceptance criteria:
the daemon's points-to answers diff clean against a one-shot
``repro analyze`` run over the same file, ``/healthz`` proves the PAG
was built exactly once, and SIGTERM produces a graceful drain with
exit code 0, also while clients still hold kept-alive connections.

Excluded from tier-1 via the ``smoke`` marker; run with::

    PYTHONPATH=src python -m pytest -m smoke tests/smoke/test_serve_smoke.py -q
"""

import ast
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.smoke

REPO = Path(__file__).resolve().parents[2]
EXAMPLE = REPO / "examples" / "box_clean.mj"
READY = re.compile(r"repro-serve [^:]+: serving .* on http://([\d.]+):(\d+)")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


@pytest.fixture()
def daemon():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(EXAMPLE),
         "--port", "0", "--threads", "2"],
        cwd=REPO, env=_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        line = proc.stdout.readline()
        match = READY.match(line)
        assert match, f"no ready line, got: {line!r}"
        host, port = match.group(1), int(match.group(2))
        yield proc, host, port
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_serve_answers_match_oneshot_cli_and_drains_clean(daemon):
    proc, host, port = daemon
    from repro.serve import ServeClient

    with ServeClient(host, port, client_id="smoke") as client:
        # -- /healthz: resident and serving -------------------------------
        health = client.healthz()
        assert health["status"] == "serving"
        assert health["source"] == str(EXAMPLE)

        # -- answers diff clean against the one-shot CLI ------------------
        specs = ["b@Main.main", "got@Main.main", "same@Main.main"]
        served = {
            r["query"]: r["objects"] for r in client.points_to(specs * 20)
        }
        for spec in specs:
            cli = subprocess.run(
                [sys.executable, "-m", "repro", "analyze", str(EXAMPLE),
                 "--query", spec],
                cwd=REPO, env=_env(), capture_output=True, text=True,
                timeout=120,
            )
            assert cli.returncode == 0, cli.stderr
            # `repro analyze` prints `pts(spec) = ['o1', 'o2']`
            golden = ast.literal_eval(
                cli.stdout.split("=", 1)[1].strip().rstrip("!").strip()
            )
            assert served[spec] == sorted(golden), spec

        # -- residency: one PAG build however many requests ---------------
        health = client.healthz()
        assert health["api.pag_builds"] == 1
        assert health["serve.queries"] >= 60
        assert health["jobs_done"] >= 1

        # -- graceful drain on SIGTERM ------------------------------------
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, f"stdout:\n{out}\nstderr:\n{err}"
        assert "drained" in out and "bye" in out


def test_serve_warm_boot_from_snapshot(tmp_path):
    snap = tmp_path / "box.snap"
    save = subprocess.run(
        [sys.executable, "-m", "repro", "snapshot", "save", str(EXAMPLE),
         "--out", str(snap)],
        cwd=REPO, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert save.returncode == 0, save.stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(EXAMPLE),
         "--port", "0", "--threads", "2", "--snapshot", str(snap)],
        cwd=REPO, env=_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        warm_line = proc.stdout.readline()
        assert warm_line.startswith("warm boot:"), warm_line
        accepted = int(re.search(r"warm boot: (\d+)", warm_line).group(1))
        assert accepted > 0
        ready = proc.stdout.readline()
        match = READY.match(ready)
        assert match, ready

        from repro.serve import ServeClient

        with ServeClient(match.group(1), int(match.group(2))) as client:
            health = client.healthz()
            assert health["n_jump_entries"] > 0  # seeded before any query
            (res,) = client.points_to(["b@Main.main"])
            assert res["objects"] == ["o:Main.main:0"]
        proc.send_signal(signal.SIGTERM)
        out, _err = proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "drained" in out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_drain_endpoint_stops_the_daemon(daemon):
    proc, host, port = daemon
    from repro.serve import ServeClient

    with ServeClient(host, port) as client:
        assert client.drain() == {"status": "draining"}
    out, _err = proc.communicate(timeout=30)
    assert proc.returncode == 0
    assert "drained" in out


def test_sigterm_drains_while_clients_hold_connections(daemon):
    proc, host, port = daemon
    from repro.serve import ServeClient

    clients = [ServeClient(host, port, client_id=f"idle-{i}")
               for i in range(3)]
    try:
        for client in clients:
            (res,) = client.points_to(["b@Main.main"])
            assert res["objects"] == ["o:Main.main:0"]
        # Each client now holds an idle kept-alive connection, and the
        # daemon a handler thread for it that its shutdown joins.
        t0 = time.monotonic()
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, f"stdout:\n{out}\nstderr:\n{err}"
        assert "drained" in out
        assert time.monotonic() - t0 < 5.0
    finally:
        for client in clients:
            client.close()
