"""Text front-end for the mini-Java IR.

The concrete syntax is deliberately small — it exists so that example
programs, regression fixtures and generated benchmarks can be stored
and inspected as plain text::

    class Vector {
      field elems: Object[]
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
    global CACHE: Object

Grammar (EBNF)::

    program    := (classdecl | globaldecl)*
    globaldecl := anno* "global" NAME ":" type
    classdecl  := ["library"] "class" NAME ["extends" NAME] "{" member* "}"
    member     := "field" NAME ":" type
                | ["static"] "method" NAME "(" params ")" [":" type] "{" stmt* "}"
    params     := [param ("," param)*]
    param      := anno* NAME ":" type
    anno       := "@" NAME                                    # e.g. @source, @sink
    stmt       := anno* "var" NAME ":" type
                | NAME "=" "new" type
                | NAME "=" NAME
                | NAME "=" "(" type ")" NAME                  # checked downcast
                | NAME "=" NAME "." NAME                      # load
                | NAME "." NAME "=" NAME                      # store
                | [NAME "="] NAME "." NAME "(" args ")"       # virtual call
                | [NAME "="] NAME "::" NAME "(" args ")"      # static call
                | "return" NAME
    type       := NAME ["[]"]

Only a type takes the ``[]`` suffix: a class, field, method, local,
parameter, global, operand or argument name ending in ``[]`` is a
:class:`~repro.errors.ParseError` at its line.

``//`` and ``#`` start comments that run to end of line.  A class marked
``library`` contributes no queries (Table I's app/library distinction).

Every parsed statement records its 1-based source line in
``Statement.loc`` so that client diagnostics (``repro check``) can cite
``file:line`` locations.

The scanner works a line at a time.  It splits the text on ``"\\n"``
alone (``"\\r"`` and every other blank are whitespace, so CRLF text
numbers its lines as LF text does) and cuts each line at its first
``//`` or ``#``: no token contains either, so the first one always
opens a comment (a text that holds neither skips the cut).  One ``findall`` of a token pattern with no whitespace
or comment branch then yields the line's tokens, appended to two flat
lists, words and their line numbers.  The parser walks those lists by
index and reads a token's kind from its first character: ``@`` starts
an annotation, one of ``{}():,.=`` a punctuator, anything else a name.

``findall`` skips what no token matches, so a coverage check guards
each line: its tokens joined must be as long as the line without its
whitespace (``str.split`` semantics, the same set of characters as the
pattern ``\\s``).  Only a line that fails the check is walked again,
whitespace run by token, to report the first character nothing matches
as ``unexpected character`` on that line.  End of input is a sentinel
word no token can equal, carrying the line of the last token; each
check that fails on it raises ``unexpected end of input`` (or the
unterminated class or method body) at that line.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.errors import ParseError
from repro.ir.builder import ClassBuilder, MethodBuilder, ProgramBuilder
from repro.ir.program import Program

__all__ = ["parse_program"]


_TOKEN_RE = re.compile(
    r"""
    [A-Za-z_$][A-Za-z0-9_$]*(?:\[\])*      # name
  | [{}(),.=]|::?                         # punctuator
  | <[A-Za-z][A-Za-z0-9_]*>(?:\[\])*      # name such as <init>
  | @[A-Za-z_][A-Za-z0-9_]*               # annotation
    """,
    re.VERBOSE,
)

#: A token or a whitespace run: the walk that finds an invalid character.
_WALK_RE = re.compile(r"\s+|" + _TOKEN_RE.pattern, re.VERBOSE)

_KEYWORDS = frozenset(
    {"class", "extends", "field", "method", "static", "var", "new", "return", "global", "library"}
)

#: The end-of-input word: it contains the line separator, so no token equals it.
_EOF = "\n"

#: First characters of the words that are not names: annotations,
#: punctuators and the end-of-input sentinel.
_NOT_NAME_START = frozenset("@{}():,.=" + _EOF)


def _unexpected_character(line: str, number: int) -> ParseError:
    """The error for the first character of ``line`` that is neither
    whitespace nor the start of a token."""
    pos = 0
    while True:
        m = _WALK_RE.match(line, pos)
        if m is None:
            return ParseError(f"unexpected character {line[pos]!r}", number)
        pos = m.end()


def _scan(text: str) -> Tuple[List[str], List[int]]:
    """The words of ``text`` and the line of each, ending in the
    :data:`_EOF` sentinel (on the last token's line, or line 1)."""
    words: List[str] = []
    lines: List[int] = []
    findall = _TOKEN_RE.findall
    comments = "#" in text or "//" in text
    for number, line in enumerate(text.split("\n"), 1):
        if comments:
            cut = line.find("#")
            if cut >= 0:
                line = line[:cut]
            cut = line.find("//")
            if cut >= 0:
                line = line[:cut]
        found = findall(line)
        if len("".join(found)) != len("".join(line.split())):
            raise _unexpected_character(line, number)
        if found:
            words += found
            lines += [number] * len(found)
    lines.append(lines[-1] if lines else 1)
    words.append(_EOF)
    return words, lines


class _Parser:
    """Recursive descent over scanned words.  Each method takes the
    index of its construct's first word and returns the index after its
    last; no check passes the :data:`_EOF` sentinel, so no index runs
    past it."""

    __slots__ = ("words", "lines")

    def __init__(self, text: str) -> None:
        self.words, self.lines = _scan(text)

    def error(self, i: int, message: str) -> ParseError:
        """``message`` at word ``i``, or the end-of-input error there."""
        if self.words[i] == _EOF:
            message = "unexpected end of input"
        return ParseError(message, self.lines[i])

    def expect(self, i: int, text: str) -> int:
        """The index after word ``i``, which must be ``text``."""
        word = self.words[i]
        if word != text:
            raise self.error(i, f"expected {text!r}, got {word!r}")
        return i + 1

    def name(self, i: int, what: str = "identifier") -> str:
        """Word ``i``, which must be a name, not a keyword, without a
        ``[]`` suffix."""
        word = self.words[i]
        if word[0] in _NOT_NAME_START or word in _KEYWORDS or word[-1] == "]":
            raise self.error(i, f"expected {what}, got {word!r}")
        return word

    def type_name(self, i: int, what: str = "type name") -> str:
        """Word ``i``, which must be a name and not a keyword; only a
        type may carry ``[]`` suffixes."""
        word = self.words[i]
        if word[0] in _NOT_NAME_START or word in _KEYWORDS:
            raise self.error(i, f"expected {what}, got {word!r}")
        return word

    def annotations(self, i: int) -> Tuple[Tuple[str, ...], int]:
        """The ``@name`` words from ``i`` on (``@`` stripped)."""
        words = self.words
        j = i
        while words[j][0] == "@":
            j += 1
        return tuple(word[1:] for word in words[i:j]), j

    def program(self, builder: ProgramBuilder) -> None:
        words = self.words
        end = len(words) - 1
        i = 0
        while i < end:
            annos: Tuple[str, ...] = ()
            if words[i][0] == "@":
                annos, i = self.annotations(i)
            word = words[i]
            if word == "global":
                name = self.name(i + 1, "global name")
                i = self.expect(i + 2, ":")
                builder.global_var(name, self.type_name(i), annotations=annos)
                i += 1
            elif word in ("class", "library"):
                if annos:
                    raise ParseError(
                        "annotations apply to globals, locals and parameters, "
                        "not classes",
                        self.lines[i],
                    )
                i = self.clazz(i, builder)
            else:
                raise self.error(
                    i, f"expected 'class' or 'global' at top level, got {word!r}"
                )

    def clazz(self, i: int, builder: ProgramBuilder) -> int:
        words = self.words
        is_app = words[i] != "library"
        if not is_app:
            i += 1
        i = self.expect(i, "class")
        name = self.name(i, "class name")
        extends = "Object"
        i += 1
        if words[i] == "extends":
            extends = self.name(i + 1, "superclass name")
            i += 2
        cb = builder.clazz(name, extends=extends, is_app=is_app)
        i = self.expect(i, "{")
        while words[i] != "}":
            word = words[i]
            if word == "field":
                f_name = self.name(i + 1, "field name")
                i = self.expect(i + 2, ":")
                cb.field(f_name, self.type_name(i))
                i += 1
            elif word in ("method", "static"):
                i = self.method(i, cb)
            elif word == _EOF:
                raise ParseError(f"unterminated class {name!r}", self.lines[i])
            else:
                raise self.error(
                    i, f"expected 'field' or 'method' in class body, got {word!r}"
                )
        return i + 1

    def method(self, i: int, cb: ClassBuilder) -> int:
        words = self.words
        static = words[i] == "static"
        if static:
            i += 1
        i = self.expect(i, "method")
        name = self.name(i, "method name")
        i = self.expect(i + 1, "(")
        params: List[Tuple[str, str, Tuple[str, ...]]] = []
        if words[i] == ")":
            i += 1
        else:
            while True:
                p_annos: Tuple[str, ...] = ()
                if words[i][0] == "@":
                    p_annos, i = self.annotations(i)
                p_name = self.name(i, "parameter name")
                i = self.expect(i + 1, ":")
                params.append((p_name, self.type_name(i), p_annos))
                i += 1
                if words[i] == ")":
                    i += 1
                    break
                i = self.expect(i, ",")
        returns = "void"
        if words[i] == ":":
            returns = self.type_name(i + 1, "return type")
            i += 2
        mb = cb.method(name, params=params, returns=returns, static=static)
        i = self.expect(i, "{")
        while words[i] != "}":
            i = self.statement(i, mb)
        return i + 1

    def statement(self, i: int, mb: MethodBuilder) -> int:
        words = self.words
        annos: Tuple[str, ...] = ()
        if words[i][0] == "@":
            annos, i = self.annotations(i)
        word = words[i]
        line = self.lines[i]
        if word == _EOF:
            raise ParseError("unterminated method body", line)
        if word == "var":
            name = self.name(i + 1, "local name")
            i = self.expect(i + 2, ":")
            mb.local(name, self.type_name(i), annotations=annos)
            return i + 1
        if annos:
            raise ParseError(
                "annotations apply to 'var' declarations, parameters and "
                "globals, not statements",
                line,
            )
        if word == "return":
            mb.ret(self.name(i + 1, "return value"), loc=line)
            return i + 2

        first = self.name(i)
        sep = words[i + 1]
        if sep == "=":
            return self.assignment_rhs(i + 2, mb, first, line)
        if sep == ".":
            member = self.name(i + 2, "member name")
            after = words[i + 3]
            if after == "(":
                args, i = self.args(i + 4)
                mb.call(first, member, args, loc=line)
                return i
            if after == "=":
                mb.store(first, member, self.name(i + 4, "stored value"), loc=line)
                return i + 5
            raise self.error(
                i + 3, f"expected '(' or '=' after member access, got {after!r}"
            )
        if sep == "::":
            member = self.name(i + 2, "method name")
            args, i = self.args(self.expect(i + 3, "("))
            mb.call_static(first, member, args, loc=line)
            return i
        raise self.error(
            i + 1, f"expected '=', '.' or '::' after {first!r}, got {sep!r}"
        )

    def assignment_rhs(self, i: int, mb: MethodBuilder, target: str, line: int) -> int:
        words = self.words
        word = words[i]
        if word == "new":
            mb.alloc(target, self.type_name(i + 1), loc=line)
            return i + 2
        if word == "(":
            type_name = self.type_name(i + 1, "cast type name")
            i = self.expect(i + 2, ")")
            mb.cast(target, type_name, self.name(i, "cast operand"), loc=line)
            return i + 1
        src = self.name(i, "source expression")
        word = words[i + 1]
        if word == ".":
            member = self.name(i + 2, "member name")
            if words[i + 3] == "(":
                args, i = self.args(i + 4)
                mb.call(src, member, args, result=target, loc=line)
                return i
            mb.load(target, src, member, loc=line)
            return i + 3
        if word == "::":
            member = self.name(i + 2, "method name")
            args, i = self.args(self.expect(i + 3, "("))
            mb.call_static(src, member, args, result=target, loc=line)
            return i
        mb.assign(target, src, loc=line)
        return i + 1

    def args(self, i: int) -> Tuple[List[str], int]:
        """A ``NAME, NAME, ...)`` argument list (the '(' is consumed)."""
        words = self.words
        args: List[str] = []
        if words[i] == ")":
            return args, i + 1
        while True:
            args.append(self.name(i, "argument"))
            if words[i + 1] == ")":
                return args, i + 2
            i = self.expect(i + 1, ",")


def parse_program(text: str, validate: bool = True) -> Program:
    """Parse source text into a sealed (and by default validated)
    :class:`~repro.ir.program.Program`."""
    builder = ProgramBuilder()
    _Parser(text).program(builder)
    return builder.build(validate=validate)
