"""Per-checker unit tests: each built-in checker on a known-bug and a
known-clean program."""

import pytest

from repro import build_pag, parse_program
from repro.analyses import Severity, run_checkers
from repro.runtime import ParallelCFL


def check(src, checkers, engine=None):
    build = build_pag(parse_program(src))
    runner = ParallelCFL(build, engine=engine) if engine else None
    return run_checkers(build, checkers, runner=runner)


# ----------------------------------------------------------------------
# null-deref
# ----------------------------------------------------------------------
NULLDEREF_BUG = """
class Node { field item: Object }
class M {
  static method buggy() {
    var dangling: Node
    var got: Object
    got = dangling.item
  }
}
"""

NULLDEREF_CLEAN = """
class Node { field item: Object }
class M {
  static method fine() {
    var n: Node
    var v: Object
    var got: Object
    n = new Node
    v = new Object
    n.item = v
    got = n.item
  }
}
"""


class TestNullDeref:
    def test_known_bug(self):
        report = check(NULLDEREF_BUG, ["null-deref"])
        (f,) = report.findings
        assert f.checker == "null-deref"
        assert f.severity == Severity.ERROR
        assert f.method == "M.buggy"
        assert f.extra["base"] == "dangling"
        assert f.line == 7  # `got = dangling.item` within the source string

    def test_known_clean(self):
        assert check(NULLDEREF_CLEAN, ["null-deref"]).findings == []

    def test_exhausted_budget_is_note_not_error(self):
        from repro.core import EngineConfig

        report = check(
            NULLDEREF_CLEAN, ["null-deref"],
            engine=EngineConfig(budget=1),
        )
        assert all(f.severity == Severity.NOTE for f in report.findings)
        assert all("budget" in f.message for f in report.findings)

    def test_this_bases_skipped(self):
        src = """
        class A {
          field f: Object
          method read(): Object { var r: Object \n r = this.f \n return r }
        }
        """
        assert check(src, ["null-deref"]).findings == []


# ----------------------------------------------------------------------
# downcast
# ----------------------------------------------------------------------
DOWNCAST_BUG = """
class Base { }
class Sub extends Base { }
class M {
  static method bad() {
    var b: Base
    var s: Sub
    b = new Base
    s = (Sub) b
  }
}
"""

DOWNCAST_CLEAN = """
class Base { }
class Sub extends Base { }
class M {
  static method good() {
    var b: Base
    var s: Sub
    var up: Base
    b = new Sub
    s = (Sub) b
    up = (Base) s
  }
}
"""


class TestDowncast:
    def test_known_bug(self):
        report = check(DOWNCAST_BUG, ["downcast"])
        (f,) = report.findings
        assert f.severity == Severity.WARNING
        assert f.extra["cast_type"] == "Sub"
        assert f.extra["object_type"] == "Base"
        assert f.witness is not None and f.witness_certified

    def test_known_clean(self):
        assert check(DOWNCAST_CLEAN, ["downcast"]).findings == []

    def test_refinement_reuses_batch_answer(self):
        # The unsafe cast forces the refined stage, which must be served
        # from the batch answer table, not re-traversed.
        report = check(DOWNCAST_BUG, ["downcast"])
        (f,) = report.findings
        assert f.extra["refined"] is True
        assert f.extra["reused_batch_answer"] is True


# ----------------------------------------------------------------------
# may-alias
# ----------------------------------------------------------------------
ALIAS_BUG = """
class Buffer { field data: Object }
class M {
  static method run() {
    var p: Buffer
    var q: Buffer
    var v: Object
    var w: Object
    p = new Buffer
    q = p
    v = new Object
    p.data = v
    w = q.data
  }
}
"""

ALIAS_CLEAN = """
class Buffer { field data: Object }
class M {
  static method run() {
    var p: Buffer
    var q: Buffer
    var v: Object
    var w: Object
    p = new Buffer
    q = new Buffer
    v = new Object
    p.data = v
    w = q.data
  }
}
"""


class TestMayAlias:
    def test_known_alias_pair(self):
        report = check(ALIAS_BUG, ["may-alias"])
        notes = [f for f in report.findings if f.severity == Severity.NOTE]
        assert len(notes) == 1
        assert sorted(notes[0].extra["bases"]) == ["p", "q"]

    def test_known_clean(self):
        assert check(ALIAS_CLEAN, ["may-alias"]).findings == []

    def test_no_unsoundness_vs_andersen(self):
        for src in (ALIAS_BUG, ALIAS_CLEAN):
            report = check(src, ["may-alias"])
            assert not [
                f for f in report.findings if f.severity == Severity.ERROR
            ]


# ----------------------------------------------------------------------
# shared-field-race
# ----------------------------------------------------------------------
RACE_BUG = """
class Box { field item: Object }
class M {
  static method make(): Box {
    var b: Box
    b = new Box
    return b
  }
  static method writer() {
    var w: Box
    var v: Object
    w = M::make()
    v = new Object
    w.item = v
    M::reader(w)
  }
  static method reader(r: Box) {
    var got: Object
    got = r.item
  }
}
"""

RACE_CLEAN = """
class Box { field item: Object }
class M {
  static method writer() {
    var w: Box
    var v: Object
    v = new Object
    w = new Box
    w.item = v
  }
  static method reader() {
    var r: Box
    var got: Object
    r = new Box
    got = r.item
  }
}
"""


class TestSharedFieldRace:
    def test_known_race(self):
        report = check(RACE_BUG, ["shared-field-race"])
        (f,) = report.findings
        assert f.severity == Severity.WARNING
        assert f.extra["writer"] == "M.writer"
        assert f.extra["reader"] == "M.reader"
        assert f.extra["field"] == "item"
        assert f.witness is not None and f.witness_certified

    def test_distinct_objects_not_flagged(self):
        assert check(RACE_CLEAN, ["shared-field-race"]).findings == []

    def test_this_accessors_not_flagged(self):
        src = """
        class Box {
          field item: Object
          method put(v: Object) { this.item = v }
          method get(): Object { var r: Object \n r = this.item \n return r }
        }
        class M {
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
        assert check(src, ["shared-field-race"]).findings == []
