"""The PAG's leg index (:meth:`PAG.rows`) and field index
(:meth:`PAG.field_bases`) stay equal to a rebuild.

The engine's sweep reads every adjacency row of a node through the leg
index, so the index must track the per-kind dicts exactly: after any
sequence of edge adds, before and after its first use, and across
points-to cycle collapse.  The reference rebuild below reads the dicts
through the rule table's adjacency names, in table order; each entry
must be the very list the dict holds, and a pickled graph's index must
hold the same rows.

An alias round visits the matched pairs the field index names, so that
index must give, per field of ``stores_by_field``/``loads_by_field``,
every base's positions in the field's list, ascending, under the same
edits, and keep doing so on a pickled graph that is edited further.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rules import MATCHED_BY_FIELD, RULES

from .test_properties import COMMON, build_from, small_params

EDGE_KINDS = ("new", "assign", "gassign", "load", "store", "param", "ret")
FIELDS = ("f", "g", "next")


def rebuilt(pag, direction):
    """The leg index in ``direction``, rebuilt from the adjacency dicts."""
    adjacencies = [(rule.kind, getattr(pag, rule.adjacency[direction]))
                   for rule in RULES]
    nodes = set().union(*(adj for _kind, adj in adjacencies))
    rows = {}
    for node in nodes:
        row = tuple((kind, adj[node]) for kind, adj in adjacencies
                    if adj.get(node))
        if row:
            rows[node] = row
    return rows


def rebuilt_field_bases(pag, by_field):
    """The field index of ``by_field``, rebuilt from its pair lists."""
    index = {}
    for field, pairs in getattr(pag, by_field).items():
        bases = index[field] = {}
        for pos, (base, _other) in enumerate(pairs):
            bases.setdefault(base, []).append(pos)
    return index


def assert_index_current(pag):
    for direction in (False, True):
        got, want = pag.rows(direction), rebuilt(pag, direction)
        assert got == want
        for node, row in want.items():
            for (_k, mine), (_k2, theirs) in zip(got[node], row):
                assert mine is theirs
    for by_field in MATCHED_BY_FIELD:
        assert pag.field_bases(by_field) == rebuilt_field_bases(pag, by_field)


def add_random(pag, data):
    """One random edge add (sometimes on a fresh node)."""
    if data.draw(st.booleans(), label="fresh node"):
        pag.add_local(f"fresh{len(pag)}", method="M.m")
    variables = list(pag.variables())
    objects = list(pag.objects())
    var = st.sampled_from(variables)
    kind = data.draw(st.sampled_from(EDGE_KINDS), label="kind")
    if kind == "new" and objects:
        pag.add_new_edge(data.draw(var), data.draw(st.sampled_from(objects)))
    elif kind == "assign":
        pag.add_assign_edge(data.draw(var), data.draw(var))
    elif kind == "gassign":
        g = pag.add_global(f"g{len(pag)}")
        dst, src = (g, data.draw(var)) if data.draw(st.booleans()) else (data.draw(var), g)
        pag.add_gassign_edge(dst, src)
    elif kind == "load":
        pag.add_load_edge(data.draw(var), data.draw(var),
                          data.draw(st.sampled_from(FIELDS)))
    elif kind == "store":
        pag.add_store_edge(data.draw(var), data.draw(st.sampled_from(FIELDS)),
                           data.draw(var))
    elif kind == "param":
        pag.add_param_edge(data.draw(var), data.draw(var),
                           data.draw(st.integers(0, 3)))
    elif kind == "ret":
        pag.add_ret_edge(data.draw(var), data.draw(var),
                         data.draw(st.integers(0, 3)))


@settings(max_examples=30, **COMMON)
@given(small_params(), st.data())
def test_leg_index_tracks_edits(params, data):
    pag = build_from(params).pag
    for _ in range(data.draw(st.integers(0, 4), label="adds before use")):
        add_random(pag, data)
    assert_index_current(pag)
    for _ in range(data.draw(st.integers(0, 8), label="adds after use")):
        add_random(pag, data)
        assert_index_current(pag)
    if data.draw(st.booleans(), label="close an assign cycle"):
        # Between two bases of heap edges where there are two, so the
        # collapse rewrites the pair lists the field index describes.
        bases = sorted({base for by_field in MATCHED_BY_FIELD
                        for pairs in getattr(pag, by_field).values()
                        for base, _other in pairs})
        pool = bases if len(bases) >= 2 else list(pag.variables())
        a, b = data.draw(st.lists(st.sampled_from(pool),
                                  min_size=2, max_size=2, unique=True))
        pag.add_assign_edge(a, b)
        pag.add_assign_edge(b, a)
    pag.collapse_assign_sccs()
    assert_index_current(pag)
    for _ in range(data.draw(st.integers(0, 4), label="adds after collapse")):
        add_random(pag, data)
    assert_index_current(pag)
    thawed = pickle.loads(pickle.dumps(pag, protocol=pickle.HIGHEST_PROTOCOL))
    assert_index_current(thawed)
    for direction in (False, True):
        assert thawed.rows(direction) == pag.rows(direction)
    for by_field in MATCHED_BY_FIELD:
        assert thawed.field_bases(by_field) == pag.field_bases(by_field)
    for _ in range(data.draw(st.integers(0, 4), label="adds after thaw")):
        add_random(thawed, data)
        assert_index_current(thawed)
