"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import main

JAVA_SRC = """
class Box {
  field val: Object
  method set(v: Object) { this.val = v }
  method get(): Object { var r: Object \n r = this.val \n return r }
}
class Main {
  static method main() {
    var b: Box
    var o: Object
    var x: Object
    b = new Box
    o = new Object
    b.set(o)
    x = b.get()
  }
}
"""

C_SRC = """
func main() {
  var p, q, v
  v = alloc()
  p = &v
  q = *p
}
"""


@pytest.fixture
def java_file(tmp_path):
    f = tmp_path / "prog.mj"
    f.write_text(JAVA_SRC)
    return f


@pytest.fixture
def c_file(tmp_path):
    f = tmp_path / "prog.c"
    f.write_text(C_SRC)
    return f


class TestAnalyze:
    def test_single_query(self, java_file, capsys):
        assert main(["analyze", str(java_file), "--query", "x@Main.main"]) == 0
        out = capsys.readouterr().out
        assert "pts(x@Main.main)" in out
        assert "o:Main.main:1" in out

    def test_default_all_app_locals(self, java_file, capsys):
        assert main(["analyze", str(java_file)]) == 0
        out = capsys.readouterr().out
        assert out.count("pts(") >= 3

    def test_context_insensitive_flag(self, java_file, capsys):
        assert main(
            ["analyze", str(java_file), "--query", "x@Main.main",
             "--context-insensitive"]
        ) == 0
        assert "o:Main.main:1" in capsys.readouterr().out

    def test_field_based_flag(self, java_file, capsys):
        assert main(
            ["analyze", str(java_file), "--query", "x@Main.main", "--field-based"]
        ) == 0

    def test_explain(self, java_file, capsys):
        assert main(
            ["analyze", str(java_file), "--query", "x@Main.main", "--explain"]
        ) == 0
        out = capsys.readouterr().out
        assert "flowsTo" in out
        assert "[certified]" in out

    def test_alias_query(self, java_file, capsys):
        assert main(
            ["analyze", str(java_file), "--alias", "b@Main.main", "x@Main.main"]
        ) == 0
        assert "may_alias" in capsys.readouterr().out

    def test_c_frontend_by_suffix(self, c_file, capsys):
        assert main(["analyze", str(c_file), "--query", "q@main"]) == 0
        out = capsys.readouterr().out
        assert "heap:main:0" in out

    def test_ctx_argument(self, java_file, capsys):
        # context of call site 1 (b.get() is site 1)
        assert main(
            ["analyze", str(java_file), "--query", "r@Box.get", "--ctx", "1"]
        ) == 0
        assert "pts(r@Box.get)" in capsys.readouterr().out

    def test_bad_ctx_reports_error(self, java_file, capsys):
        assert main(
            ["analyze", str(java_file), "--query", "x@Main.main", "--ctx", "zap"]
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_variable_reports_error(self, java_file, capsys):
        assert main(["analyze", str(java_file), "--query", "ghost@No.where"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        # Unreadable input is a usage problem, not an analysis failure:
        # exit code 2, clean message, no traceback.
        assert main(["analyze", str(tmp_path / "nope.mj")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "not found" in err

    def test_directory_input(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 2
        assert "directory" in capsys.readouterr().err

    def test_binary_input(self, tmp_path, capsys):
        blob = tmp_path / "blob.mj"
        blob.write_bytes(b"\xff\xfe\x00\x80garbage")
        assert main(["analyze", str(blob)]) == 2
        assert "not valid text" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.mj"
        bad.write_text("klass A { }")
        assert main(["analyze", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


BUGGY_SRC = """
class Base {
  field f: Object
}
class Sub extends Base { }
class App {
  static method main() {
    var b: Base
    var s: Sub
    b = new Base
    s = (Sub) b                 // unsafe downcast
  }
  static method broken() {
    var ghost: Base
    var got: Object
    got = ghost.f               // null dereference
  }
}
"""


@pytest.fixture
def buggy_file(tmp_path):
    f = tmp_path / "buggy.mj"
    f.write_text(BUGGY_SRC)
    return f


class TestCheck:
    def test_clean_program_exits_zero(self, java_file, capsys):
        assert main(["check", str(java_file)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_buggy_program_exits_one(self, buggy_file, capsys):
        assert main(["check", str(buggy_file)]) == 1
        out = capsys.readouterr().out
        assert "null-deref" in out
        assert "downcast" in out

    def test_severity_threshold(self, buggy_file, capsys):
        # Only the null-deref is an ERROR; raising the bar above the
        # downcast WARNING still trips on it...
        assert main(["check", str(buggy_file), "--severity", "error"]) == 1
        capsys.readouterr()

    def test_checker_subset(self, buggy_file, capsys):
        # ...and restricting to the downcast checker with an error bar
        # leaves only warnings: exit 0.
        assert main(
            ["check", str(buggy_file), "--checker", "downcast",
             "--severity", "error"]
        ) == 0
        out = capsys.readouterr().out
        assert "downcast" in out
        assert "null-deref" not in out

    def test_json_format(self, buggy_file, capsys):
        assert main(["check", str(buggy_file), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"]["name"] == "repro-check"
        assert doc["queries"]["unique"] <= doc["queries"]["demanded"]
        assert any(f["checker"] == "null-deref" for f in doc["findings"])

    def test_sarif_format(self, buggy_file, capsys):
        assert main(["check", str(buggy_file), "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-check"
        assert {r["ruleId"] for r in run["results"]} >= {"null-deref", "downcast"}

    def test_unknown_checker_errors(self, java_file, capsys):
        assert main(["check", str(java_file), "--checker", "no-such"]) == 1
        assert "unknown checker" in capsys.readouterr().err

    def test_c_input_rejected(self, c_file, capsys):
        assert main(["check", str(c_file)]) == 1
        assert "mini-Java" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "gone.mj")]) == 2


class _Stop(Exception):
    """Raised by a spy once it has seen the runtime it checks."""


class TestRunDefaults:
    """An unset run flag (or an omitted runner) resolves to
    RuntimeConfig's own default at every entry point."""

    @pytest.fixture
    def opened(self, monkeypatch):
        from repro.api import Session

        seen = []

        def spy(cls, *args, **kw):
            seen.append(kw["runtime"])
            raise _Stop

        monkeypatch.setattr(Session, "open", classmethod(spy))
        return seen

    def test_check_uses_runtime_defaults(self, java_file, opened):
        from repro.api import RuntimeConfig

        with pytest.raises(_Stop):
            main(["check", str(java_file)])
        assert opened == [RuntimeConfig()]

    def test_serve_uses_runtime_defaults(self, java_file, opened):
        from repro.api import RuntimeConfig
        from repro.serve import DEFAULT_BACKEND

        with pytest.raises(_Stop):
            main(["serve", str(java_file), "--port", "0"])
        assert opened == [RuntimeConfig(backend=DEFAULT_BACKEND)]

    def test_run_checkers_uses_runtime_defaults(self, monkeypatch):
        from repro.analyses.driver import ParallelCFL, run_checkers
        from repro.api import RuntimeConfig
        from repro.ir.parser import parse_program
        from repro.pag import build_pag

        seen = []
        real_init = ParallelCFL.__init__

        def spy(self, *args, **kw):
            real_init(self, *args, **kw)
            seen.append(self.runtime)
            raise _Stop

        monkeypatch.setattr(ParallelCFL, "__init__", spy)
        with pytest.raises(_Stop):
            run_checkers(build_pag(parse_program(JAVA_SRC)))
        assert seen == [RuntimeConfig()]


class TestBatchAndGraph:
    def test_batch(self, java_file, capsys):
        assert main(["batch", str(java_file), "--threads", "4"]) == 0
        out = capsys.readouterr().out
        assert "SeqCFL" in out
        assert "DQ x4" in out

    def test_graph(self, java_file, capsys):
        assert main(["graph", str(java_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "new" in out

    def test_language_override(self, tmp_path, capsys):
        f = tmp_path / "prog.txt"
        f.write_text(C_SRC)
        assert main(["analyze", str(f), "--language", "c", "--query", "q@main"]) == 0

    def test_bench_subcommand(self, capsys):
        assert main(["bench", "table2"]) == 0
        assert "TABLE II" in capsys.readouterr().out


class TestBatchTelemetry:
    def test_events_jsonl_on_each_backend(self, java_file, tmp_path, capsys):
        for backend in ("sim", "threads", "mp"):
            events = tmp_path / f"{backend}.jsonl"
            assert main([
                "batch", str(java_file), "--backend", backend,
                "--events", str(events),
            ]) == 0
            parsed = [json.loads(line)
                      for line in events.read_text().splitlines()]
            assert parsed, f"no events on backend {backend}"
            kinds = {p["kind"] for p in parsed}
            assert {"batch_start", "done", "batch_end"} <= kinds
            if backend == "mp":
                assert {"dispatch", "heartbeat"} <= kinds
            assert "[events" in capsys.readouterr().out

    def test_progress_renders_to_stderr(self, java_file, capsys):
        assert main([
            "batch", str(java_file), "--backend", "threads", "--progress",
        ]) == 0
        assert "progress" in capsys.readouterr().err


class TestBenchHistoryAndGate:
    def _bench(self, tmp_path, *extra):
        out = tmp_path / "out.json"
        hist = tmp_path / "hist.jsonl"
        code = main([
            "bench", "--smoke", "--suite", "_200_check", "--workers", "1",
            "--no-verify", "--out", str(out), "--history", str(hist),
            *extra,
        ])
        return code, out, hist

    def test_history_appended_and_events_written(self, tmp_path, capsys):
        events = tmp_path / "e.jsonl"
        code, out, hist = self._bench(tmp_path, "--events", str(events))
        assert code == 0
        assert "[history" in capsys.readouterr().out
        records = [json.loads(line)
                   for line in hist.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["suite"] == "_200_check"
        assert records[0]["host_cpus_effective"] >= 1
        kinds = {json.loads(line)["kind"]
                 for line in events.read_text().splitlines()}
        assert {"dispatch", "done", "heartbeat"} <= kinds

    def test_compare_self_passes_inflated_fails(self, tmp_path, capsys):
        code, out, _hist = self._bench(tmp_path)
        assert code == 0
        baseline = json.loads(out.read_text())
        # Same payload as baseline: no regression.
        code, _, _ = self._bench(tmp_path, "--compare", str(out))
        assert code == 0
        # A baseline with impossible speedups: the gate trips (exit 3).
        for suite in baseline["suites"]:
            suite["speedup"] = {w: s * 10 for w, s in suite["speedup"].items()}
        inflated = tmp_path / "inflated.json"
        inflated.write_text(json.dumps(baseline))
        code, _, _ = self._bench(tmp_path, "--compare", str(inflated))
        assert code == 3
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regression" in captured.err

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        code, _, _ = self._bench(
            tmp_path, "--compare", str(tmp_path / "absent.json")
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestSnapshotCommand:
    def _save(self, java_file, tmp_path, *extra):
        snap = tmp_path / "prog.snap"
        code = main(["snapshot", "save", str(java_file),
                     "--out", str(snap), *extra])
        return code, snap

    def test_save_then_load(self, java_file, tmp_path, capsys):
        code, snap = self._save(java_file, tmp_path)
        assert code == 0
        assert snap.exists()
        assert "[snapshot" in capsys.readouterr().out
        code = main(["snapshot", "load", str(snap)])
        assert code == 0
        out = capsys.readouterr().out
        assert "format v2" in out
        assert "grammar" not in out  # the engine runs one grammar

    def test_load_verifies_against_program(self, java_file, tmp_path, capsys):
        _, snap = self._save(java_file, tmp_path)
        capsys.readouterr()
        code = main(["snapshot", "load", str(snap),
                     "--file", str(java_file), "--verify"])
        assert code == 0
        out = capsys.readouterr().out
        assert "matches program" in out
        assert "[verify ok" in out
        assert "0 divergent answers" in out

    def test_stale_snapshot_exits_two(self, java_file, tmp_path, capsys):
        _, snap = self._save(java_file, tmp_path)
        other = tmp_path / "other.mj"
        other.write_text(JAVA_SRC.replace("x = b.get()",
                                          "x = b.get()\n    b.set(x)"))
        code = main(["snapshot", "load", str(snap), "--file", str(other)])
        assert code == 2
        assert "stale snapshot" in capsys.readouterr().err

    def test_corrupt_snapshot_exits_two(self, tmp_path, capsys):
        junk = tmp_path / "junk.snap"
        junk.write_bytes(b"not a snapshot at all")
        code = main(["snapshot", "load", str(junk)])
        assert code == 2
        assert "bad magic" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        ("zzz", (0, (), False), 3), 42, ("fin", "notakey", "x"),
    ])
    def test_malformed_log_entry_exits_two(
        self, java_file, tmp_path, capsys, entry
    ):
        from repro.api import Session, save_snapshot

        snap = tmp_path / "bad.snap"
        save_snapshot(snap, Session.open(java_file).pag, [entry])
        for extra in ([], ["--file", str(java_file)]):
            code = main(["snapshot", "load", str(snap), *extra])
            assert code == 2
            err = capsys.readouterr().err
            assert "corrupt snapshot log entry 0" in err
        # A daemon refuses to warm-boot from it before serving.
        code = main(["serve", str(java_file), "--port", "0",
                     "--snapshot", str(snap)])
        assert code == 2
        assert "corrupt snapshot log entry 0" in capsys.readouterr().err

    def test_verify_without_file_is_an_error(self, java_file, tmp_path):
        _, snap = self._save(java_file, tmp_path)
        code = main(["snapshot", "load", str(snap), "--verify"])
        assert code == 1

    def test_default_out_is_snap_suffix(self, java_file, capsys):
        code = main(["snapshot", "save", str(java_file)])
        assert code == 0
        assert java_file.with_suffix(".snap").exists()


class TestBenchWarm:
    def test_warm_axis_gates_and_renders(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = main([
            "bench", "--smoke", "--suite", "_200_check", "--workers", "1",
            "--no-verify", "--warm", "--no-history", "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "WARM START" in stdout
        payload = json.loads(out.read_text())
        assert payload["warm_ok"] is True
        (axis,) = payload["warm_axis"]
        assert axis["identical"] is True
        assert axis["entries_loaded"] > 0
        assert axis["warm_jmp_taken"] > 0
