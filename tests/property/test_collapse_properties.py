"""Points-to cycle collapse leaves the graph a one-pass reference
describes.

Small mini-Java programs with drawn ``assign`` cycles (among a method's
locals, and through a recursive call whose sites lowering demotes to
``assign``) are lowered with every ``add_*_edge`` call logged.  The
reference replays that log once: each edge with its endpoints resolved
through the built graph's :meth:`~repro.pag.graph.PAG.rep`, an
``assign``/``gassign`` self-loop dropped, the first occurrence kept.
Every adjacency dict, both global field indexes and the edge record
must equal it, in order.  Adding any recorded edge again under any ids
of its endpoints' classes must change nothing.
"""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import parse_program
from repro.pag import PAG, build_pag
from repro.pag.edges import EdgeKind

from ..pag.test_pag_golden import DICTS
from .test_properties import COMMON

N_LOCALS = 6

COPIES = (EdgeKind.ASSIGN, EdgeKind.GASSIGN)


def edge_call(kind, args):
    """``(kind, dst, src, label)`` of an ``add_<kind>_edge(*args)`` call."""
    if kind == EdgeKind.STORE:
        base, field, value = args
        return kind, base, value, field
    if len(args) == 2:
        return (kind, *args, None)
    return (kind, *args)


def add_edge(pag, kind, dst, src, label):
    """Call the ``add_*_edge`` method that enters ``(kind, dst, src, label)``."""
    add = getattr(pag, f"add_{kind.name.lower()}_edge")
    if kind == EdgeKind.STORE:
        add(dst, label, src)
    elif label is None:
        add(dst, src)
    else:
        add(dst, src, label)


def build_logged(text):
    """Build ``text``'s PAG, logging every ``add_*_edge`` call in order."""
    log = []

    def spy(kind):
        real = getattr(PAG, f"add_{kind.name.lower()}_edge")

        def add(self, *args):
            log.append(edge_call(kind, args))
            real(self, *args)

        return add

    spies = {f"add_{kind.name.lower()}_edge": spy(kind) for kind in EdgeKind}
    with patch.multiple(PAG, **spies):
        build = build_pag(parse_program(text))
    return build, log


def reference(log, rep):
    """The record and every dict, built in one pass over ``log``."""
    record = {}
    dicts = {name: {} for name in DICTS}
    for kind, dst, src, label in log:
        dst, src = rep(dst), rep(src)
        if dst == src and kind in COPIES:
            continue
        key = (int(kind), dst, src, label)
        if key in record:
            continue
        record[key] = None
        name = kind.name.lower()
        inbound, outbound = (src, dst) if label is None else ((src, label), (dst, label))
        dicts[f"{name}_in"].setdefault(dst, []).append(inbound)
        dicts[f"{name}_out"].setdefault(src, []).append(outbound)
        if kind == EdgeKind.LOAD:
            dicts["loads_by_field"].setdefault(label, []).append((src, dst))
        elif kind == EdgeKind.STORE:
            dicts["stores_by_field"].setdefault(label, []).append((dst, src))
    return list(record), {name: list(d.items()) for name, d in dicts.items()}


def state(pag):
    return list(pag._edges), {name: list(getattr(pag, name).items()) for name in DICTS}


@st.composite
def programs(draw):
    """A small program text with drawn ``assign`` cycles."""
    var = st.integers(0, N_LOCALS - 1).map("v{}".format)
    stmts = []
    cycles = st.lists(st.integers(0, N_LOCALS - 1), min_size=1, max_size=4, unique=True)
    for cycle in draw(st.lists(cycles, max_size=3), label="cycles"):
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            stmts.append(f"v{b} = v{a}")
    other = st.one_of(
        st.builds("{} = new A".format, var),
        st.builds("{} = {}".format, var, var),
        st.builds("{} = {}.f".format, var, var),
        st.builds("{}.f = {}".format, var, var),
        st.builds("{} = {}.id({})".format, var, var, var),
        st.builds("G = {}".format, var),
        st.builds("{} = G".format, var),
        st.builds("{} = G.f".format, var),
    )
    stmts += draw(st.lists(other, max_size=12), label="statements")
    stmts = draw(st.permutations(stmts), label="order")
    recursive = draw(st.booleans(), label="recursive id")
    locals_ = "\n".join(f"var v{i}: A" for i in range(N_LOCALS))
    body = "\n".join(stmts)
    again = "r = this.id(p)" if recursive else ""
    return f"""
        global G: A
        class A {{
          field f: A
          method id(p: A): A {{
            var r: A
            r = p
            {again}
            return r
          }}
        }}
        class Main {{ static method main() {{
          {locals_}
          {body}
        }} }}
    """


@settings(max_examples=60, **COMMON)
@given(programs(), st.data())
def test_collapse_matches_one_pass_reference(text, data):
    build, log = build_logged(text)
    pag = build.pag
    assert state(pag) == reference(log, pag.rep)
    assert pag.n_edges == len(pag._edges)

    before = state(pag)
    classes = {}
    for nid in range(len(pag)):
        classes.setdefault(pag.rep(nid), []).append(nid)
    for kind, dst, src, label in before[0]:
        add_edge(pag, EdgeKind(kind),
                 data.draw(st.sampled_from(classes[dst])),
                 data.draw(st.sampled_from(classes[src])), label)
    assert state(pag) == before
