"""Driver tests: one-batch dispatch, demand deduplication, registry
behaviour and the check-context helpers."""

import pytest

from repro import build_pag, parse_program
from repro.analyses import (
    Checker,
    Finding,
    Severity,
    checker_ids,
    make_checkers,
    register,
    run_checkers,
)
from repro.analyses.base import _REGISTRY
from repro.core.query import Query
from repro.errors import AnalysisError
from repro.runtime import ParallelCFL, RuntimeConfig

SRC = """
class Account {
  field owner: Object
}
class Bank {
  static method open(): Account {
    var a: Account
    a = new Account
    return a
  }
  static method main() {
    var a: Account
    var o: Object
    a = Bank::open()
    o = new Object
    a.owner = o
    Bank::audit(a)
  }
  static method audit(acct: Account) {
    var who: Object
    who = acct.owner
  }
}
"""


@pytest.fixture
def build():
    return build_pag(parse_program(SRC))


class TestBatchDispatch:
    def test_single_batch_with_deduped_demands(self, build):
        # null-deref, may-alias and shared-field-race all demand the
        # same dereferenced bases; the batch must run each variable once.
        report = run_checkers(
            build, ["null-deref", "may-alias", "shared-field-race"]
        )
        assert report.batch is not None
        assert report.n_queries < report.n_demanded
        assert report.batch.n_queries == report.n_queries

    def test_no_demands_skips_batch(self, build):
        @register
        class _Silent(Checker):
            id = "test-silent"
            description = "no demands"

            def finish(self, ctx):
                return []

        try:
            report = run_checkers(build, ["test-silent"])
            assert report.batch is None
            assert report.findings == []
        finally:
            del _REGISTRY["test-silent"]

    def test_answers_keyed_by_rep_node(self, build):
        captured = {}

        @register
        class _Probe(Checker):
            id = "test-probe"
            description = "captures answers"

            def demands(self, ctx):
                for site in ctx.deref_sites():
                    if site.base_node is not None:
                        yield Query(site.base_node)

            def finish(self, ctx):
                for site in ctx.deref_sites():
                    if site.base_node is not None:
                        captured[site.base] = ctx.answer(site.base_node)
                return []

        try:
            run_checkers(build, ["test-probe"])
        finally:
            del _REGISTRY["test-probe"]
        # Every demanded base got an answer back from the batch.
        assert set(captured) == {"a", "acct"}
        assert all(r is not None and not r.exhausted for r in captured.values())

    def test_findings_sorted_and_file_stamped(self, build):
        report = run_checkers(build, file="prog.mj")
        assert all(f.file == "prog.mj" for f in report.findings)
        lines = [f.line for f in report.findings if f.line is not None]
        assert lines == sorted(lines)

    def test_mode_and_threads_forwarded(self, build):
        runner = ParallelCFL(build, runtime=RuntimeConfig(mode="seq"))
        report = run_checkers(build, ["null-deref"], runner=runner)
        assert report.batch.mode == "seq"
        assert report.batch.n_threads == 1


class TestRegistry:
    def test_builtins_registered(self):
        assert {"null-deref", "downcast", "may-alias", "shared-field-race"} <= set(
            checker_ids()
        )

    def test_make_checkers_default_is_default_enabled(self):
        default_ids = [c.id for c in make_checkers()]
        assert default_ids == [
            cid for cid in checker_ids() if _REGISTRY[cid].default_enabled
        ]
        # Opt-in checkers are registered but not run by a bare check.
        assert "escape" in checker_ids()
        assert "escape" not in default_ids
        assert "taint" in default_ids

    def test_unknown_id_raises(self):
        with pytest.raises(AnalysisError, match="unknown checker"):
            make_checkers(["no-such-checker"])

    def test_duplicate_id_rejected(self):
        with pytest.raises(AnalysisError, match="duplicate"):

            @register
            class _Dup(Checker):
                id = "null-deref"
                description = "clash"

    def test_missing_id_rejected(self):
        with pytest.raises(AnalysisError, match="no id"):

            @register
            class _NoId(Checker):
                description = "nameless"


class TestSeverity:
    def test_ordering(self):
        assert Severity.NOTE < Severity.WARNING < Severity.ERROR

    def test_parse(self):
        assert Severity.parse("Error") == Severity.ERROR
        with pytest.raises(AnalysisError, match="unknown severity"):
            Severity.parse("fatal")

    def test_report_counts(self, build):
        report = run_checkers(build)
        counts = report.counts_by_severity()
        assert sum(counts.values()) == len(report.findings)
        assert report.count_at_or_above(Severity.NOTE) == len(report.findings)


class TestFinding:
    def test_location_prefers_file_line(self):
        f = Finding(
            checker="c", severity=Severity.NOTE, message="m",
            method="A.m", file="x.mj", line=3,
        )
        assert f.location == "x.mj:3"
        f.line = None
        assert f.location == "x.mj"
        f.file = None
        assert f.location == "A.m"

    def test_to_dict_includes_witness_only_when_present(self):
        f = Finding(checker="c", severity=Severity.NOTE, message="m")
        assert "witness" not in f.to_dict()
        f.witness = "o flowsTo x: new"
        f.witness_certified = True
        d = f.to_dict()
        assert d["witness_certified"] is True
