"""The engine's compiled sweep agrees with the rule table.

:mod:`repro.core.rules` is the one statement of how each PAG edge kind
is traversed, and the engine compiles its sweep from it.  For every
traversal a :class:`TracingEngine` query swept, the closure of its
start item under the table rows (the round row following the recorded
alias-round products) must be exactly the sweep's visited set, and the
traversal's answers must be what the table reads off that set: the
``new``-row objects backwards, the variable items forwards.
"""

import pytest

from repro.benchgen.suites import load_benchmark, spec_of, suite_names
from repro.core.context import EMPTY_CTX
from repro.core.engine import CFLEngine, EngineConfig
from repro.core.grammar import get_grammar
from repro.core.query import Query
from repro.core.rules import FLOWS_TO, POINTS_TO, ROUND_KIND, rules
from repro.core.tracing import TracingEngine
from repro.ir import parse_program
from repro.pag import build_pag
from repro.pag.edges import EdgeKind

#: Tier-1 sample: one cheap and one heavy entry per family.
SAMPLE = ["_200_check", "_209_db", "batik", "luindex"]
N_QUERIES = 25


def table_closure(engine, key):
    """``(items, answers)`` reachable from ``key``'s start under the
    table; answers are the ``new``-row objects of a ``POINTSTO`` key."""
    direction, start, ctx0 = key
    pag = engine.pag
    cs = engine.cfg.context_sensitive
    heap = engine.cfg.field_mode != "none"
    items = {(start, ctx0)}
    answers = set()
    work = [(start, ctx0)]
    while work:
        x, c = work.pop()
        for rule in rules(engine.grammar):
            if not rule.heap:
                steps = [(y, cy) for y, cy, _ in rule.successors(pag, direction, x, c, cs)]
            elif heap and rule.kind is ROUND_KIND[direction]:
                products = engine.tracer.heap_aux.get((direction, x, c), ())
                steps = [(y, EMPTY_CTX if pag.is_global(y) else cy) for y, cy in products]
            else:
                continue
            for item in steps:
                if direction == POINTS_TO and rule.kind is EdgeKind.NEW:
                    answers.add(item)
                elif item not in items:
                    items.add(item)
                    work.append(item)
    return items, answers


def assert_sweeps_follow_table(pag, config, queries):
    """Check every traversal of every non-exhausted query; returns the
    number of traversals checked."""
    oracle = CFLEngine(pag, config)
    checked = 0
    for query in queries:
        engine = TracingEngine(pag, config)
        top = engine.points_to(query.var, query.ctx)
        if top.exhausted:
            continue
        for key, visited in engine.tracer.visited.items():
            items, answers = table_closure(engine, key)
            assert items == visited, key
            direction, node, ctx = key
            if direction == POINTS_TO:
                got = oracle.points_to(node, ctx)
                expected = answers
            else:
                got = oracle.flows_to(node, ctx)
                expected = {(y, c) for y, c in visited if pag.is_variable(y)}
            if not got.exhausted:
                assert got.points_to == expected, key
            checked += 1
        root = (POINTS_TO, pag.rep(query.var), top.query.ctx)
        assert top.points_to == table_closure(engine, root)[1]
    return checked


def suite_case(name):
    spec = spec_of(name)
    build = load_benchmark(name)
    return build.pag, spec.engine_config(), spec.workload()[:N_QUERIES]


class TestTable:
    def test_one_row_per_edge_kind_in_sweep_order(self):
        table = rules(get_grammar("flowsto"))
        assert [r.kind for r in table] == list(EdgeKind)
        assert [r.kind for r in table if r.heap] == [EdgeKind.LOAD, EdgeKind.STORE]

    def test_terminals_projected_onto_assign(self):
        by_kind = {r.kind: r for r in rules(get_grammar("flowsto"))}
        assert by_kind[EdgeKind.NEW].symbol(FLOWS_TO) == "new"
        assert by_kind[EdgeKind.NEW].symbol(POINTS_TO) == "~new"
        for kind in (EdgeKind.ASSIGN, EdgeKind.GASSIGN, EdgeKind.PARAM, EdgeKind.RET):
            assert by_kind[kind].symbol(FLOWS_TO, 3) == "assign"
        assert by_kind[EdgeKind.LOAD].symbol(POINTS_TO, "f") == "~ld:f"
        assert by_kind[EdgeKind.STORE].symbol(FLOWS_TO, "f") == "st:f"

    def test_successors_push_and_pop(self, fig2):
        build, n = fig2
        pag = build.pag
        by_kind = {r.kind: r for r in rules(get_grammar("flowsto"))}
        param, ret = by_kind[EdgeKind.PARAM], by_kind[EdgeKind.RET]

        def targets(rule, direction, x, c, cs=True):
            return [(y, cy) for y, cy, _ in rule.successors(pag, direction, x, c, cs)]

        # s1 = v1.get() is call site 2: entering get backwards through
        # its return pushes the site, as does entering add forwards
        assert targets(ret, POINTS_TO, n["s1"], ()) == [(n["ret_get"], (2,))]
        assert targets(param, FLOWS_TO, n["n1"], ()) == [(n["e_add"], (1,))]
        # leaving get backwards pops only the matching site; an empty
        # call string passes through every site
        assert targets(param, POINTS_TO, n["this_get"], (2,)) == [(n["v1"], ())]
        assert targets(param, POINTS_TO, n["this_get"], (7,)) == []
        assert {y for y, _ in targets(param, POINTS_TO, n["this_get"], ())} == {
            n["v1"], n["v2"]
        }
        # context-insensitive runs keep the call string
        assert targets(ret, POINTS_TO, n["s1"], (), cs=False) == [(n["ret_get"], ())]
        assert len(targets(param, POINTS_TO, n["this_get"], (7,), cs=False)) == 2

    def test_global_target_gets_empty_context(self):
        build = build_pag(parse_program(
            """
            global G: Object
            class M { static method main() {
                var a: Object \n var b: Object
                a = new Object \n G = a \n b = G
            } }
            """
        ))
        pag = build.pag
        g = next(v for v in range(pag.n_nodes) if pag.is_global(v))
        table = rules(get_grammar("flowsto"))
        targets = [
            (y, cy)
            for rule in table if not rule.heap
            for y, cy, _ in rule.successors(pag, POINTS_TO, build.var("b", "M.main"), (7,))
        ]
        assert (g, ()) in targets


class TestSweepsFollowTable:
    def test_fig2(self, fig2):
        build, n = fig2
        cfg = EngineConfig()
        queries = [Query(v) for v in build.pag.app_locals()]
        assert assert_sweeps_follow_table(build.pag, cfg, queries) > 0

    def test_context_insensitive(self, fig2):
        build, _ = fig2
        cfg = EngineConfig(context_sensitive=False)
        queries = [Query(v) for v in build.pag.app_locals()]
        assert assert_sweeps_follow_table(build.pag, cfg, queries) > 0

    def test_global_written_in_callee(self):
        # The forward sweep of the Box allocated in make() runs under
        # make's call string and must reset it at the global write —
        # a path the suite workloads rarely reach.
        build = build_pag(parse_program(
            """
            global G: Box
            class Box { field val: Object }
            class F { method make(): Box {
                var b: Box \n b = new Box \n G = b \n return b
            } }
            class M { static method main() {
                var f: F \n var x: Box \n var o: Object \n var r: Object
                f = new F \n x = f.make() \n o = new Object
                x.val = o \n r = x.val
            } }
            """
        ))
        queries = [Query(build.var("r", "M.main"))]
        assert assert_sweeps_follow_table(build.pag, EngineConfig(), queries) == 3

    @pytest.mark.parametrize("name", SAMPLE)
    def test_sample_suite(self, name):
        assert assert_sweeps_follow_table(*suite_case(name)) > 0


@pytest.mark.smoke
@pytest.mark.parametrize("name", suite_names())
def test_all_suites(name):
    assert assert_sweeps_follow_table(*suite_case(name)) > 0
