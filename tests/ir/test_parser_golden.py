"""The mini-Java front end's output and errors, pinned byte for byte.

``tests/ir/test_parser.py`` checks what a parse means; these tables pin
exactly what :func:`~repro.ir.parser.parse_program` produces, so a
rewrite of the scanner or the parser cannot drift unseen.

``GOLDEN`` holds, per suite of Table I and per example program, the
sha256 of the parse of its printed text: the ``repr`` of every global,
class, field and method signature (locals included), of every
statement with its ``loc`` and its other slots, and the text
:func:`~repro.ir.printer.program_to_source` prints back.

``ERRORS`` holds malformed inputs with the exact ``(str(err),
err.line)`` of the :class:`~repro.errors.ParseError` each raises:
stray characters, errors after comments, CRLF line ends, a statement
split over lines, end of input inside each construct and keywords used
as names.  An intended change re-records both tables from
:func:`parse_digest` and :func:`parse_error`.
"""

import hashlib
from pathlib import Path

import pytest

from repro.benchgen import synthesize_program
from repro.benchgen.suites import spec_of, suite_names
from repro.errors import ParseError
from repro.ir import parse_program
from repro.ir.printer import program_to_source

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

GOLDEN = {
    "_200_check": "7e6c73b43b60cc7ee301bcf158d0dd2b8e0037ee9577cf05fb894097a2dbbec8",
    "_201_compress": "37b68bf3a2c61a9b23f95841554c10b468ebbeef3b6bd84e33aced8caacf298b",
    "_202_jess": "3a20b1bda3ef2e86d657fec4643dce1c22e91454c9e8772d0c4daf53b25adfed",
    "_205_raytrace": "d3885b4ac38dbb46278a251517afef56ae67b7e2d9b5c4dc1c115e1076c7363f",
    "_209_db": "b78040ec59bb9d3a32e5ae3fef2b7a76b3f3873ff8e17b480bac5cd8db0ba201",
    "_213_javac": "d1457479534365f98168b8db1fa69a90c592f9901096982a62ab52cb92de6d4d",
    "_222_mpegaudio": "4de8058e2644861e689ffa7a36293a5d4139c8e15bcf3d7db6f4be0a1d953b48",
    "_227_mtrt": "d97ca0f2ff306a50385281d3c177382f336160e0e37bbd5294e79d199eca638d",
    "_228_jack": "df8caea2d0f8a2ec424637357ec99f4acaf785a94da791f9dea6aa36e6d4e889",
    "_999_checkit": "5858966812186b5ee9337c95f9165f782cac02c37f0530a60e82583b102eb0e7",
    "avrora": "caa9cabca74f031f7d82bcac408968ca94a057bc4b7c6ed4ae8a0c71181b588e",
    "batik": "e5c9cf1e9a5acb3e9cde75605800d7de6e735b97f93391bf1793cefc27d5193a",
    "fop": "865ddfe119ee82bd272687453760b0c51569658c59acfc79ca852550b283ae7c",
    "h2": "8b44d172b0353bc0ccf1dba7f384e3612a958f963ca747f95d8f8b626be8600b",
    "luindex": "c142f7db9cb5daacf5942184c51b865e088631da5c23f43a946f267cb1e7c266",
    "lusearch": "a4144d225dc47a8bcb1d920959e6b9e8c1e4dc1cbf0155876d2ff2209d03b3e1",
    "pmd": "64bd45880de6767e525b044fbabb48764ce62fe64202cbf5fb696c8a7a4b2ddc",
    "sunflow": "cdab2d9cd6415e6ae27ef5566e5042aead92c5566e96c5a7c863816d4cfd458a",
    "tomcat": "3316c47cb6b53814461ffd862ddfd6e063fcbe224d208bcaa798122be60df7cb",
    "xalan": "bdc78e067cdcecb190b502cfadd444508b7f9878ff2aee203e93d269de35fc83",
    "account_race.mj": "978c1ce10081f2f522dadfd508b29bf41e58268f95f57595b0dbe4471b136731",
    "box_clean.mj": "a626511a9f1a2ffa4c8a0e3780c7504c7b145ead5bdeeb28f6ba4da3328de8de",
    "escape_pool.mj": "b00acbfa4f762a7a7ef8cc1d4fce7d0b3690625125227b84f19064e337bd5bd8",
    "taint_leak.mj": "883d0607bbe1aa94b17ff39d2db09cab7d597f72bf71f6c6cc3fd3b386374c60",
}

ERRORS = [
    # the ten of TestParseErrors
    ('klass A { }', ("line 1: expected 'class' or 'global' at top level, got 'klass'", 1)),
    ('class A {', ("line 1: unterminated class 'A'", 1)),
    ('class A { method m() { x } }', ("line 1: expected '=', '.' or '::' after 'x', got '}'", 1)),
    ('class A { method m() { x = } }', ("line 1: expected source expression, got '}'", 1)),
    ('class A { field x }', ("line 1: expected ':', got '}'", 1)),
    ('class A { method m( { } }', ("line 1: expected parameter name, got '{'", 1)),
    ('class { }', ("line 1: expected class name, got '{'", 1)),
    ('class A { method m() { return } }', ("line 1: expected return value, got '}'", 1)),
    ('global G', ('line 1: unexpected end of input', 1)),
    ('class A { method m() { x ? y } }', ("line 1: unexpected character '?'", 1)),
    # stray characters
    ('class A { method m() {\n  x = a / b\n} }', ("line 2: unexpected character '/'", 2)),
    ('?', ("line 1: unexpected character '?'", 1)),
    ('class A {\n  method m() {\n    var x: A;\n  }\n}', ("line 3: unexpected character ';'", 3)),
    ('class A {\n  field é: Object\n}', ("line 2: unexpected character 'é'", 2)),
    ('class A { method m() { @ var x: A } }', ("line 1: unexpected character '@'", 1)),
    ('class A {\n  field f: Object[\n}', ("line 2: unexpected character '['", 2)),
    ('class A {\n  method m() {\n    x = y.<1>\n  }\n}', ("line 3: unexpected character '<'", 3)),
    # errors on a line after comments
    ('// header\nclass A { // open\n  field x: Object // fine\n  field y\n}', ("line 5: expected ':', got '}'", 5)),
    ('# header\nclass A {\n  # body\n  method m() { x = y ? }\n}', ("line 4: unexpected character '?'", 4)),
    ('class A { # a\n  field f: Object # b\n  method m() {\n    x = y # c\n    x\n  }\n}', ("line 6: expected '=', '.' or '::' after 'x', got '}'", 6)),
    # CRLF line ends
    ('class A {\r\n  field x: Object\r\n  field y\r\n}\r\n', ("line 4: expected ':', got '}'", 4)),
    ('class A {\r\n  field x: Object\r\n  ; \r\n}\r\n', ("line 3: unexpected character ';'", 3)),
    # whitespace that is not a line end
    ('class A {\xa0\x0b\x0c\n\t field f\n}', ("line 3: expected ':', got '}'", 3)),
    # a statement split across lines
    ('class A { method m() {\n  x\n  =\n  y .\n}\n}', ("line 5: expected member name, got '}'", 5)),
    ('class A { method m() {\n  x\n  .\n  f\n  ,\n} }', ("line 5: expected '(' or '=' after member access, got ','", 5)),
    # end of input inside each construct
    ('class', ('line 1: unexpected end of input', 1)),
    ('class A', ('line 1: unexpected end of input', 1)),
    ('class A extends', ('line 1: unexpected end of input', 1)),
    ('class A {\n  field f: Object\n', ("line 2: unterminated class 'A'", 2)),
    ('class A { field', ('line 1: unexpected end of input', 1)),
    ('class A { field f:', ('line 1: unexpected end of input', 1)),
    ('class A { static', ('line 1: unexpected end of input', 1)),
    ('class A { method', ('line 1: unexpected end of input', 1)),
    ('class A { method m(', ('line 1: unexpected end of input', 1)),
    ('class A { method m(@a', ('line 1: unexpected end of input', 1)),
    ('class A { method m(x: Object,', ('line 1: unexpected end of input', 1)),
    ('class A { method m():', ('line 1: unexpected end of input', 1)),
    ('class A { method m() {', ('line 1: unterminated method body', 1)),
    ('class A { method m() {\n  x = y\n', ('line 2: unterminated method body', 2)),
    ('class A { method m() { var x:', ('line 1: unexpected end of input', 1)),
    ('class A { method m() { x =', ('line 1: unexpected end of input', 1)),
    ('class A { method m() { x = new', ('line 1: unexpected end of input', 1)),
    ('class A { method m() { x = (T', ('line 1: unexpected end of input', 1)),
    ('class A { method m() { x = y.', ('line 1: unexpected end of input', 1)),
    ('class A { method m() { x = y::m(', ('line 1: unexpected end of input', 1)),
    ('class A { method m() { x.f(a,', ('line 1: unexpected end of input', 1)),
    ('class A { method m() { x.f', ('line 1: unexpected end of input', 1)),
    ('class A { method m() { return', ('line 1: unexpected end of input', 1)),
    ('class A { method m() { @a', ('line 1: unterminated method body', 1)),
    ('global', ('line 1: unexpected end of input', 1)),
    ('global G:', ('line 1: unexpected end of input', 1)),
    # keywords used as names
    ('class A { method m() { var class: A } }', ("line 1: expected local name, got 'class'", 1)),
    ('class var { }', ("line 1: expected class name, got 'var'", 1)),
    ('global return: Object', ("line 1: expected global name, got 'return'", 1)),
    ('class A { method new() { } }', ("line 1: expected method name, got 'new'", 1)),
    ('class A { method m() { x = y.field } }', ("line 1: expected member name, got 'field'", 1)),
    # misplaced annotations and members
    ('@a class A { }', ('line 1: annotations apply to globals, locals and parameters, not classes', 1)),
    ('class A { method m() { @a x = y } }', ("line 1: annotations apply to 'var' declarations, parameters and globals, not statements", 1)),
    ('class A { var x: A }', ("line 1: expected 'field' or 'method' in class body, got 'var'", 1)),
    ('class A { static field f: A }', ("line 1: expected 'method', got 'field'", 1)),
    ('class A { method m() { x , y } }', ("line 1: expected '=', '.' or '::' after 'x', got ','", 1)),
    ('class A { method m() { x.f , y } }', ("line 1: expected '(' or '=' after member access, got ','", 1)),
    ('class A { method m() { x = (T) } }', ("line 1: expected cast operand, got '}'", 1)),
    ('class A { method m() { x = Y::m } }', ("line 1: expected '(', got '}'", 1)),
    ('class A { method m(x: Object y: Object) { } }', ("line 1: expected ',', got 'y'", 1)),
    ('class A { method m() { x.f(a b) } }', ("line 1: expected ',', got 'b'", 1)),
    ('class A { method m() { x = y } }\n}', ("line 2: expected 'class' or 'global' at top level, got '}'", 2)),
    ('class A {\r  field y\r}', ("line 1: expected ':', got '}'", 1)),
    ('class A {\n  // trailing comment\n', ("line 1: unterminated class 'A'", 1)),
    ('class A { method m() {\n  x = y\n  # trailing comment\n', ('line 2: unterminated method body', 2)),
]


def _slots(stmt):
    return [slot for cls in type(stmt).__mro__ for slot in getattr(cls, "__slots__", ())]


def parse_digest(text):
    """sha256 of everything ``parse_program(text)`` builds."""
    program = parse_program(text)
    digest = hashlib.sha256()

    def add(item):
        digest.update(repr(item).encode())
        digest.update(b"\n")

    for var in program.globals.values():
        add(("global", var.name, var.type_name, var.annotations))
    for clazz in program.classes.values():
        add(("class", clazz.name, clazz.superclass, clazz.is_app))
        fields = getattr(program.types.resolve(clazz.name), "fields", {})
        for field in fields.items():
            add(("field", *field))
        for method in clazz.methods.values():
            add((
                "method", method.qualified_name, method.is_static,
                method.return_type, method.is_app,
                [(v.name, v.type_name, v.annotations) for v in method.params],
                [(v.name, v.type_name, v.is_param, v.annotations)
                 for v in method.locals.values()],
            ))
            for stmt in method.body:
                add((type(stmt).__name__, repr(stmt),
                     *(getattr(stmt, slot) for slot in _slots(stmt))))
    add(program_to_source(program))
    return digest.hexdigest()


def parse_error(src):
    """``(str(err), err.line)`` of the :class:`ParseError` ``src`` raises."""
    with pytest.raises(ParseError) as info:
        parse_program(src, validate=False)
    return str(info.value), info.value.line


def source_of(name):
    if name.endswith(".mj"):
        return (EXAMPLES / name).read_text()
    return program_to_source(synthesize_program(spec_of(name).params))


def test_golden_covers_every_suite_and_example():
    names = suite_names() + sorted(p.name for p in EXAMPLES.glob("*.mj"))
    assert sorted(GOLDEN) == sorted(names)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_parse_digest(name):
    assert parse_digest(source_of(name)) == GOLDEN[name]


@pytest.mark.parametrize("src, expected", ERRORS, ids=[repr(s) for s, _ in ERRORS])
def test_parse_error(src, expected):
    assert parse_error(src) == expected
