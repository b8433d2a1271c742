"""Grammar-conformance harness tests: engine witnesses certified by CYK
against the declarative grammar, with a tier-2 sweep of all 20 suites."""

import pytest

from repro import build_pag, parse_program
from repro.benchgen.suites import suite_names
from repro.core.conformance import certify_benchmark, certify_queries
from repro.core.grammar import TAINT
from repro.core.query import Query

SRC = """
class Box {
  field item: Object
  method put(v: Object) {
    this.item = v
  }
  method get(): Object {
    var r: Object
    r = this.item
    return r
  }
}
class Main {
  static method main() {
    var b: Box
    var v: Object
    var got: Object
    b = new Box
    v = new Object
    b.put(v)
    got = b.get()
  }
}
"""

#: Tier-1 sample: one cheap and one heavy entry per family.
SAMPLE = ["_200_check", "_209_db", "batik", "luindex"]


@pytest.fixture(scope="module")
def build():
    return build_pag(parse_program(SRC))


class TestCertifyQueries:
    def test_all_witnesses_certified(self, build):
        queries = [Query(v) for v in build.pag.app_locals()]
        report = certify_queries(build.pag, queries, name="box")
        assert report.ok
        assert report.n_witnesses > 0
        assert report.n_certified == report.n_witnesses
        assert "OK" in report.summary()

    def test_wrong_grammar_is_detected(self, build, monkeypatch):
        # flowsTo witnesses are NOT taint derivations: certifying them
        # under the taint grammar must fail, proving the harness
        # discriminates rather than rubber-stamping.
        monkeypatch.setattr("repro.core.tracing.FLOWSTO", TAINT)
        queries = [Query(v) for v in build.pag.app_locals()]
        report = certify_queries(build.pag, queries, name="box")
        assert not report.ok
        assert report.failures
        assert all(f.reason == "rejected" for f in report.failures)
        assert all(f.terminals for f in report.failures)
        assert "FAILURE" in report.summary()

    def test_object_cap_limits_witness_count(self, build):
        queries = [Query(v) for v in build.pag.app_locals()]
        capped = certify_queries(
            build.pag, queries, name="box", max_objects_per_query=1
        )
        assert capped.ok
        assert capped.n_witnesses <= len(queries)


class TestSuiteConformance:
    @pytest.mark.parametrize("name", SAMPLE)
    def test_sampled_suites_conform(self, name):
        report = certify_benchmark(name)
        assert report.ok, report.summary()
        assert report.n_witnesses > 0

    @pytest.mark.smoke
    @pytest.mark.parametrize("name", suite_names())
    def test_all_twenty_suites_conform(self, name):
        report = certify_benchmark(name, n_queries=25)
        assert report.ok, report.summary()
