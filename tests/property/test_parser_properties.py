"""Property tests (hypothesis) for the mini-Java front end's layout
handling.

A valid program is printed, cut into its tokens, and re-emitted with
random separators between them: spaces, tabs, no-break spaces, CRLF
and blank lines, ``//`` and ``#`` comments at line ends, several
printed lines joined on one, and one printed line spread over several.
Layout carries no meaning, so:

* **reflow is invisible** — the reflowed text parses to a program that
  prints the original text;
* **locations follow the text** — each statement's ``loc`` is the line
  its first token landed on;
* **stray characters are caught where they are** — one character no
  token can start, put in front of any token, raises
  :class:`~repro.errors.ParseError` at that token's line.
"""

import random
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchgen import SynthesisParams, synthesize_program
from repro.errors import ParseError
from repro.ir import parse_program
from repro.ir.printer import program_to_source

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.mj"))

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Tokens of printed text, which is ASCII with a space or punctuation
#: between any two tokens.
TOKEN = re.compile(r"[\w$<>@]+(?:\[\])*|::|\S")

#: Separators that never end a line; a no-break space and a vertical
#: tab are whitespace but not line ends.
BLANKS = [" ", "  ", "\t", "\xa0", " \x0b"]

#: Characters no token starts with and that open no comment.
STRAY = ["?", ";", "é", "!", "%", "/", "~", "[", "]"]

COMMENT_TEXT = "abc ?;é@/#:{}\t"


@st.composite
def printed_programs(draw):
    """The printed text of a small synthesized program or of a shipped
    example (the examples carry annotations and comments)."""
    if EXAMPLES and draw(st.booleans()):
        program = parse_program(draw(st.sampled_from(EXAMPLES)).read_text())
    else:
        program = synthesize_program(SynthesisParams(
            seed=draw(st.integers(0, 10_000)),
            n_data_classes=draw(st.integers(1, 2)),
            containment_depth=draw(st.integers(1, 2)),
            n_boxes=1,
            n_vecs=draw(st.integers(0, 1)),
            n_box_subclasses=draw(st.integers(0, 1)),
            n_util_chains=draw(st.integers(0, 1)),
            wrapper_chain_len=draw(st.integers(1, 2)),
            n_app_classes=1,
            methods_per_app_class=draw(st.integers(1, 2)),
            actions_per_method=draw(st.integers(1, 4)),
            n_globals=draw(st.integers(0, 1)),
            n_hub_containers=0,
        ))
    return program_to_source(program)


def is_statement(printed_line):
    """A printed method-body line that is a statement, not a ``var``."""
    body = printed_line[4:]
    return (printed_line.startswith("    ") and not body.startswith(" ")
            and not body.startswith(("var ", "@")))


def separator(rng, newline):
    """A random separator; ``newline`` forces it to end a line."""
    pieces = [rng.choice(BLANKS) for _ in range(rng.randint(0, 2))]
    if newline or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.25:
            pieces.append(" //" + "".join(rng.choices(COMMENT_TEXT, k=rng.randint(0, 8))))
        elif roll < 0.5:
            pieces.append("#" + "".join(rng.choices(COMMENT_TEXT, k=rng.randint(0, 8))))
        pieces.append(rng.choice(["\n", "\r\n", "\n\n", "\n \t\n", "\r\n\r\n"]))
        pieces.extend(rng.choice(BLANKS) for _ in range(rng.randint(0, 2)))
    return "".join(pieces)


def runs_together(prev, token):
    """Whether ``prev`` and ``token`` would scan as one word with
    nothing between them."""
    return bool(prev) and (prev[-1].isalnum() or prev[-1] in "]>_$") and (
        token[0].isalnum() or token[0] in "<_$@")


def reflow(text, seed, stray_at=None):
    """``text`` with random separators between its tokens: the new
    text, the line each statement's first token landed on, and the line
    of token number ``stray_at`` (which gets a stray character in front
    of it when given)."""
    rng = random.Random(seed)
    out = []
    line = 1
    statement_lines = []
    stray_line = None
    index = 0
    prev = ""
    for printed in text.splitlines():
        tokens = TOKEN.findall(printed)
        # Join most printed lines onto the line before, break others.
        unit_break = rng.random() < 0.6
        for k, token in enumerate(tokens):
            sep = separator(rng, newline=unit_break and k == 0 and bool(out))
            if k > 0 and rng.random() < 0.1:
                sep += separator(rng, newline=True)  # spread the line out
            if not sep and runs_together(prev, token):
                sep = " "
            out.append(sep)
            line += sep.count("\n")
            if index == stray_at:
                out.append(rng.choice(STRAY))
                stray_line = line
            if k == 0 and is_statement(printed):
                statement_lines.append(line)
            out.append(token)
            prev = token
            index += 1
    out.append(separator(rng, newline=rng.random() < 0.5))
    return "".join(out), statement_lines, stray_line


def statement_locs(program):
    """Statement ``loc``s in the order the printer emits them."""
    return [
        stmt.loc
        for clazz in program.classes.values()
        for method in clazz.methods.values()
        for stmt in method.body
    ]


@settings(max_examples=40, **COMMON)
@given(printed_programs(), st.integers(0, 2**32 - 1))
def test_reflowed_text_parses_to_the_same_program(text, seed):
    assert program_to_source(parse_program(text)) == text
    reflowed, statement_lines, _ = reflow(text, seed)
    program = parse_program(reflowed)
    assert program_to_source(program) == text
    assert statement_locs(program) == statement_lines


@settings(max_examples=40, **COMMON)
@given(printed_programs(), st.integers(0, 2**32 - 1), st.integers(0, 10**6))
def test_stray_character_raises_at_its_line(text, seed, where):
    n_tokens = len(TOKEN.findall(text))
    broken, _, stray_line = reflow(text, seed, stray_at=where % n_tokens)
    with pytest.raises(ParseError, match="unexpected character") as info:
        parse_program(broken)
    assert info.value.line == stray_line


def test_annotations_then_end_of_input():
    with pytest.raises(ParseError) as info:
        parse_program("class A { }\n\n@source @sink\n// trailing")
    assert (str(info.value), info.value.line) == ("line 3: unexpected end of input", 3)
