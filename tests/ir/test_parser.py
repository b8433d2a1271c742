"""Unit tests for the text front-end (repro.ir.parser)."""

import pytest

from repro.errors import ParseError, ValidationError
from repro.ir import parse_program
from repro.ir.statements import Alloc, Assign, Call, Load, Return, Store

VECTOR_SRC = """
// The paper's Fig. 2 Vector, trimmed.
class Vector {
  field elems: Object[]
  method <init>() {
    var t: Object[]
    t = new Object[]
    this.elems = t
  }
  method add(e: Object) {
    var t: Object[]
    t = this.elems
    t.arr = e
  }
  method get(): Object {
    var t: Object[]
    var r: Object
    t = this.elems
    r = t.arr
    return r
  }
}
class Main {
  static method main() {
    var v1: Vector
    var n1: Object
    var s1: Object
    v1 = new Vector
    n1 = new Object
    v1.<init>()
    v1.add(n1)
    s1 = v1.get()
  }
}
"""


class TestParseVector:
    def test_parses(self):
        p = parse_program(VECTOR_SRC)
        assert p.counts() == (2, 4)

    def test_statement_kinds(self):
        p = parse_program(VECTOR_SRC)
        add = p.method("Vector.add")
        kinds = [type(s) for s in add.body]
        assert kinds == [Load, Store]

    def test_call_lowering(self):
        p = parse_program(VECTOR_SRC)
        main = p.method("Main.main")
        calls = [s for s in main.body if isinstance(s, Call)]
        assert len(calls) == 3
        assert calls[1].receiver == "v1"
        assert calls[1].args == ("n1",)
        assert calls[2].result == "s1"

    def test_return_parsed(self):
        p = parse_program(VECTOR_SRC)
        get = p.method("Vector.get")
        assert isinstance(get.body[-1], Return)
        assert get.ret_var is not None


class TestSyntaxForms:
    def test_global_decl(self):
        p = parse_program("global CACHE: Object\n")
        assert "CACHE" in p.globals
        assert p.globals["CACHE"].is_global

    def test_library_class_flag(self):
        p = parse_program("library class L { method m() { } }\nclass A { }")
        assert not p.classes["L"].is_app
        assert p.classes["A"].is_app
        assert not p.method("L.m").is_app

    def test_static_call_syntax(self):
        src = """
        class Util { static method id(x: Object): Object { return x } }
        class M { static method main() {
            var a: Object
            var b: Object
            a = new Object
            b = Util::id(a)
        } }
        """
        p = parse_program(src)
        call = [s for s in p.method("M.main").body if isinstance(s, Call)][0]
        assert call.is_static
        assert call.class_name == "Util"
        assert call.result == "b"

    def test_void_call_statement(self):
        src = """
        class A { method go() { } }
        class M { static method main() {
            var a: A
            a = new A
            a.go()
        } }
        """
        p = parse_program(src)
        call = [s for s in p.method("M.main").body if isinstance(s, Call)][0]
        assert call.result is None

    def test_comments_both_styles(self):
        src = "class A { # hash comment\n method m() { } // slash comment\n }"
        assert parse_program(src).counts() == (1, 1)

    def test_extends(self):
        p = parse_program("class A { }\nclass B extends A { }")
        assert p.classes["B"].superclass == "A"
        assert p.types.is_subtype("B", "A")

    def test_array_types(self):
        src = """
        class A { field xs: Object[]
          method m() { var t: Object[] \n t = this.xs }
        }
        """
        p = parse_program(src)
        assert p.types.resolve("Object[]").is_array

    def test_roundtrip_assign(self):
        src = "class A { method m(p: Object) { var x: Object \n x = p } }"
        p = parse_program(src)
        stmt = p.method("A.m").body[0]
        assert isinstance(stmt, Assign)
        assert (stmt.target, stmt.source) == ("x", "p")

    def test_alloc_statement(self):
        src = "class A { method m() { var x: A \n x = new A } }"
        stmt = parse_program(src).method("A.m").body[0]
        assert isinstance(stmt, Alloc)
        assert stmt.type_name == "A"


class TestParseErrors:
    @pytest.mark.parametrize(
        "src",
        [
            "klass A { }",                       # bad top-level keyword
            "class A {",                          # unterminated class
            "class A { method m() { x } }",       # dangling name
            "class A { method m() { x = } }",     # missing rhs
            "class A { field x }",                # missing type
            "class A { method m( { } }",          # bad params
            "class { }",                          # missing class name
            "class A { method m() { return } }",  # missing return value
            "global G",                           # missing type
            "class A { method m() { x ? y } }",   # bad separator
        ],
    )
    def test_syntax_errors(self, src):
        with pytest.raises(ParseError):
            parse_program(src, validate=False)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as info:
            parse_program("class A {\n  field x\n}")
        assert info.value.line == 3  # the '}' where ':' was expected

    def test_validation_errors_propagate(self):
        with pytest.raises(ValidationError):
            parse_program("class A { method m() { x = y } }")

    def test_validate_false_skips_semantic_checks(self):
        p = parse_program("class A { method m() { x = y } }", validate=False)
        assert p.is_sealed

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_program("class A @ { }")

    @pytest.mark.parametrize(
        "src, message",
        [
            ("class A[] { }", "expected class name, got 'A[]'"),
            ("class A extends B[] { }", "expected superclass name, got 'B[]'"),
            ("class A { field f[]: A }", "expected field name, got 'f[]'"),
            ("class A { method m[]() { } }", "expected method name, got 'm[]'"),
            ("class A { method m(p[]: A) { } }", "expected parameter name, got 'p[]'"),
            ("class A { method m() { var x[]: A } }", "expected local name, got 'x[]'"),
            ("global G[]: A", "expected global name, got 'G[]'"),
            ("class A { method m() {\n x[] = new A } }", "expected identifier, got 'x[]'"),
            ("class A { method m() {\n x = y[] } }", "expected source expression, got 'y[]'"),
            ("class A { method m() {\n x = y.f[] } }", "expected member name, got 'f[]'"),
            ("class A { method m() {\n x.f = y[] } }", "expected stored value, got 'y[]'"),
            ("class A { method m() {\n x = (A) y[] } }", "expected cast operand, got 'y[]'"),
            ("class A { method m() {\n x.m(y[]) } }", "expected argument, got 'y[]'"),
            ("class A { method m() {\n return x[] } }", "expected return value, got 'x[]'"),
        ],
    )
    def test_only_types_take_an_array_suffix(self, src, message):
        with pytest.raises(ParseError) as info:
            parse_program(src, validate=False)
        line = src.count("\n") + 1
        assert str(info.value) == f"line {line}: {message}"
        assert info.value.line == line


class TestValidator:
    def test_undeclared_variable(self):
        with pytest.raises(ValidationError, match="undeclared|not a declared"):
            parse_program("class A { method m() { var x: Object \n x = nope } }")

    def test_unknown_field(self):
        with pytest.raises(ValidationError, match="no field"):
            parse_program(
                "class A { method m() { var x: Object \n x = this.ghost } }"
            )

    def test_field_found_on_supertype(self):
        src = """
        class Base { field f: Object }
        class Sub extends Base {
          method m() { var x: Object \n x = this.f }
        }
        """
        parse_program(src)  # must not raise

    def test_arity_mismatch(self):
        src = """
        class A { method f(x: Object) { } }
        class M { static method main() {
            var a: A \n a = new A \n a.f()
        } }
        """
        with pytest.raises(ValidationError, match="argument"):
            parse_program(src)

    def test_no_callee(self):
        src = """
        class A { }
        class M { static method main() { var a: A \n a = new A \n a.ghost() } }
        """
        with pytest.raises(ValidationError, match="no callee"):
            parse_program(src)

    def test_result_of_void_method(self):
        src = """
        class A { method f() { } }
        class M { static method main() {
            var a: A \n var r: Object \n a = new A \n r = a.f()
        } }
        """
        with pytest.raises(ValidationError, match="void"):
            parse_program(src)

    def test_return_in_void_method(self):
        src = "class A { method m(p: Object) { return p } }"
        with pytest.raises(ValidationError, match="void"):
            parse_program(src)

    def test_alloc_primitive_rejected(self):
        src = "class A { method m() { var x: A \n x = new int } }"
        with pytest.raises(ValidationError, match="primitive"):
            parse_program(src)

    def test_multiple_errors_all_reported(self):
        src = "class A { method m() { x = y \n p = q } }"
        with pytest.raises(ValidationError) as info:
            parse_program(src)
        assert "4 validation error" in str(info.value)


class TestSourceLocations:
    def test_loc_recorded_per_statement(self):
        p = parse_program(VECTOR_SRC)
        add = p.method("Vector.add")
        # 1-based lines within VECTOR_SRC (its first line is the blank
        # before the comment): `t = this.elems` is line 12, `t.arr = e` 13.
        assert [s.loc for s in add.body] == [12, 13]

    def test_loc_on_every_statement_kind(self):
        p = parse_program(VECTOR_SRC)
        for method in p.methods():
            for stmt in method.body:
                assert isinstance(stmt.loc, int) and stmt.loc > 0

    def test_builder_default_loc_is_none(self):
        from repro.ir import ProgramBuilder

        pb = ProgramBuilder()
        cb = pb.clazz("A")
        mb = cb.method("m", static=True)
        mb.local("x", "A")
        mb.alloc("x", "A")
        program = pb.build()
        (stmt,) = program.method("A.m").body
        assert stmt.loc is None


class TestCastStatements:
    SRC = """
    class Animal { }
    class Dog extends Animal { }
    class Main {
      static method main() {
        var a: Animal
        var d: Dog
        a = new Dog
        d = (Dog) a
      }
    }
    """

    def test_cast_parses(self):
        from repro.ir.statements import Cast

        p = parse_program(self.SRC)
        casts = [s for s in p.method("Main.main").body if isinstance(s, Cast)]
        assert len(casts) == 1
        assert casts[0].target == "d"
        assert casts[0].type_name == "Dog"
        assert casts[0].source == "a"

    def test_cast_roundtrips_through_printer(self):
        from repro.ir.printer import program_to_source

        p = parse_program(self.SRC)
        text = program_to_source(p)
        assert "d = (Dog) a" in text
        reparsed = parse_program(text)
        assert reparsed.counts() == p.counts()

    def test_cast_to_unknown_type_rejected(self):
        src = """
        class A { }
        class M { static method m() { var a: A \n var b: A \n a = new A \n b = (Ghost) a } }
        """
        with pytest.raises(ValidationError, match="Ghost"):
            parse_program(src)

    def test_cast_of_undeclared_source_rejected(self):
        src = "class A { static method m() { var b: A \n b = (A) ghost } }"
        with pytest.raises(ValidationError, match="ghost"):
            parse_program(src)

    def test_cast_is_value_preserving_in_pag(self):
        from repro.pag import build_pag

        build = build_pag(parse_program(self.SRC))
        from repro.core import CFLEngine

        engine = CFLEngine(build.pag)
        d = build.var("d", "Main.main")
        a = build.var("a", "Main.main")
        assert engine.points_to(d).objects == engine.points_to(a).objects
