"""Taint and escape checker tests: annotation plumbing, grammar-certified
witnesses, SARIF codeFlows, and cross-backend output stability."""

import json
from pathlib import Path

import pytest

from repro import build_pag, parse_program
from repro.analyses import render_sarif, run_checkers
from repro.analyses.base import make_checkers
from repro.core.grammar import get_grammar
from repro.runtime import ParallelCFL, RuntimeConfig

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

LEAK_SRC = (EXAMPLES / "taint_leak.mj").read_text()
POOL_SRC = (EXAMPLES / "escape_pool.mj").read_text()

CLEAN_SRC = """
class App {
  static method main() {
    @source var secret: Object
    @sink var out: Object
    var other: Object
    secret = new Object
    other = new Object
    out = other
  }
}
"""


@pytest.fixture(scope="module")
def leak_build():
    return build_pag(parse_program(LEAK_SRC))


@pytest.fixture(scope="module")
def pool_build():
    return build_pag(parse_program(POOL_SRC))


class TestTaintChecker:
    def test_leak_reported_once(self, leak_build):
        report = run_checkers(leak_build, ["taint"], file="taint_leak.mj")
        assert len(report.findings) == 1
        f = report.findings[0]
        assert f.checker == "taint"
        assert "secret@App.main" in f.message
        assert "out@App.drain" in f.message

    def test_witness_certified_under_taint_grammar(self, leak_build):
        report = run_checkers(leak_build, ["taint"], file="taint_leak.mj")
        f = report.findings[0]
        assert f.witness_certified is True
        assert f.witness.startswith("taint(")
        # Re-certify the reported terminal string independently.
        terms = f.witness.split(": ", 1)[1].split()
        fields = sorted(
            set(leak_build.pag.stores_by_field)
            | set(leak_build.pag.loads_by_field)
        )
        assert get_grammar("taint").certify(terms, fields)
        assert not get_grammar("taint").certify(["new"], fields)

    def test_no_alias_no_finding(self):
        build = build_pag(parse_program(CLEAN_SRC))
        report = run_checkers(build, ["taint"])
        assert report.findings == []

    def test_unannotated_program_demands_nothing(self, pool_build):
        report = run_checkers(pool_build, ["taint"])
        assert report.findings == []
        assert report.n_demanded == 0

    def test_flow_steps_present(self, leak_build):
        f = run_checkers(leak_build, ["taint"]).findings[0]
        assert f.flow is not None
        messages = " / ".join(str(s["message"]) for s in f.flow)
        assert "source" in messages and "sink" in messages


class TestEscapeChecker:
    def test_three_escapes_one_local(self, pool_build):
        report = run_checkers(pool_build, ["escape"], file="escape_pool.mj")
        labels = sorted(f.extra["object"] for f in report.findings)
        assert labels == [
            "o:Factory.produce:0",   # Node: reaches Pool.push's param
            "o:Factory.produce:1",   # payload: heap-transitive store
            "o:Factory.setup:0",     # Pool: flows to global POOL
        ]
        # scratch (o:Factory.produce:2) stays method-local.
        assert "o:Factory.produce:2" not in labels

    def test_witnesses_certified_under_escape_grammar(self, pool_build):
        report = run_checkers(pool_build, ["escape"])
        assert report.findings
        for f in report.findings:
            assert f.witness_certified is True, f.message

    def test_heap_transitive_chain_in_witness(self, pool_build):
        report = run_checkers(pool_build, ["escape"])
        payload = [
            f for f in report.findings
            if f.extra["object"] == "o:Factory.produce:1"
        ][0]
        assert "st:payload" in payload.witness
        assert payload.extra["chain_length"] == 2
        assert "stored into field" in " ".join(
            str(s["message"]) for s in payload.flow
        )

    def test_opt_in_not_run_by_default(self, pool_build):
        report = run_checkers(pool_build)
        assert "escape" not in report.checkers
        assert all(f.checker != "escape" for f in report.findings)
        assert "escape" not in [c.id for c in make_checkers()]


class TestSarifRendering:
    @pytest.fixture(scope="class")
    def sarif(self, leak_build):
        report = run_checkers(
            leak_build, ["taint", "escape"], file="taint_leak.mj"
        )
        return json.loads(render_sarif(report))

    def test_rules_carry_grammar_property(self, sarif):
        rules = {r["id"]: r for r in sarif["runs"][0]["tool"]["driver"]["rules"]}
        assert rules["taint"]["properties"]["grammar"] == "taint"
        assert rules["escape"]["properties"]["grammar"] == "escape"
        assert rules["taint"]["defaultConfiguration"]["level"] == "error"
        assert rules["escape"]["defaultConfiguration"]["level"] == "warning"

    def test_code_flows_shape(self, sarif):
        taint = [
            r for r in sarif["runs"][0]["results"] if r["ruleId"] == "taint"
        ][0]
        locations = taint["codeFlows"][0]["threadFlows"][0]["locations"]
        assert len(locations) == 3
        msgs = [l["location"]["message"]["text"] for l in locations]
        assert "secret@App.main" in msgs[0]
        assert "out@App.drain" in msgs[-1]
        # The shared-object step cites the allocation line in the file.
        mid = locations[1]["location"]["physicalLocation"]
        assert mid["artifactLocation"]["uri"] == "taint_leak.mj"
        assert mid["region"]["startLine"] == 28

    def test_severity_mapping(self, sarif):
        levels = {r["ruleId"]: r["level"] for r in sarif["runs"][0]["results"]}
        assert levels["taint"] == "error"
        assert levels["escape"] == "warning"


class TestBackendStability:
    """The ISSUE's acceptance bar: identical SARIF across backends and
    worker counts (findings are derived from sorted answer sets, and the
    driver sorts findings — nothing downstream may depend on schedule)."""

    @pytest.mark.parametrize("build_name", ["leak", "pool"])
    def test_sarif_identical_across_backends(
        self, build_name, leak_build, pool_build
    ):
        build = leak_build if build_name == "leak" else pool_build
        configs = [
            dict(backend="sim", mode="DQ", n_threads=8),
            dict(backend="sim", mode="seq", n_threads=1),
            dict(backend="threads", mode="DQ", n_threads=2),
            dict(backend="threads", mode="DQ", n_threads=8),
        ]
        outputs = [
            render_sarif(
                run_checkers(
                    build, ["taint", "escape"], file="x.mj",
                    runner=ParallelCFL(
                        build, runtime=RuntimeConfig(**kw)
                    ),
                )
            )
            for kw in configs
        ]
        assert all(out == outputs[0] for out in outputs[1:])

    @pytest.mark.smoke
    def test_sarif_identical_on_mp(self, leak_build):
        ref = render_sarif(
            run_checkers(leak_build, ["taint", "escape"], file="x.mj")
        )
        mp = render_sarif(
            run_checkers(
                leak_build, ["taint", "escape"], file="x.mj",
                runner=ParallelCFL(
                    leak_build,
                    runtime=RuntimeConfig(backend="mp", n_threads=2),
                ),
            )
        )
        assert mp == ref
