"""Property test: selective invalidation is answer-preserving.

Randomized add-only edit sequences against a warm incremental session
must leave every answer byte-identical to a from-scratch engine on the
edited graph, at an unlimited budget (so budget artefacts cannot mask
a missed invalidation).  This is the acceptance property of the
reverse-index invalidation path: dropping too much only costs time,
dropping too little shows up here as a stale answer.

The same holds when single queries, batches and edits interleave on
one :class:`repro.api.Session`: the batches of every backend run on the
session's demand store and record no footprint, so the ``local``,
``sim`` and ``threads`` batches' entries must fall at the next edge
edit, while the single queries' entries are invalidated selectively.
Under a drawn finite budget every answer is a subset of the unlimited
one.

An ``assign`` edit between locals of different methods can add a
recursion cycle that build-time collapse never saw.  The pinned
``@example`` cases are such edits, one from each ``--hypothesis-seed``
that failed before call strings were bounded
(``repro.core.context.ctx_enter``): each raised ``RecursionError`` or
ran for minutes at the unlimited budget.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.andersen import AndersenSolver
from repro.api import RuntimeConfig, Session
from repro.benchgen import SynthesisParams, synthesize_program
from repro.core import CFLEngine, EngineConfig, Query
from repro.core.incremental import IncrementalAnalysis
from repro.core.matrix import MatrixKernel
from repro.pag import build_pag

UNLIMITED = 10**9

FIELDS = ("f0", "f1", "arr")

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def small_params(draw):
    return SynthesisParams(
        seed=draw(st.integers(0, 10_000)),
        n_data_classes=draw(st.integers(1, 2)),
        containment_depth=draw(st.integers(1, 2)),
        n_boxes=draw(st.integers(1, 2)),
        n_vecs=draw(st.integers(0, 1)),
        n_box_subclasses=draw(st.integers(0, 1)),
        n_util_chains=draw(st.integers(0, 1)),
        wrapper_chain_len=draw(st.integers(1, 2)),
        n_app_classes=1,
        methods_per_app_class=draw(st.integers(1, 2)),
        actions_per_method=draw(st.integers(1, 4)),
        n_globals=draw(st.integers(0, 1)),
        n_hub_containers=0,
        read_fanout=draw(st.integers(0, 1)),
    )


#: One drawn edit: (kind, i, j, field_index) — i/j select nodes from
#: the session's pools by modulo at apply time.
edit_ops = st.tuples(
    st.sampled_from(("new", "assign", "store", "load", "local")),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    st.integers(0, len(FIELDS) - 1),
)


def apply_edit(inc, locals_, objs, counter, op):
    kind, i, j, f = op
    a = locals_[i % len(locals_)]
    b = locals_[j % len(locals_)]
    if kind == "new":
        o = inc.add_obj(f"o_edit{counter}")
        objs.append(o)
        inc.add_new_edge(a, o)
    elif kind == "assign":
        inc.add_assign_edge(a, b)
    elif kind == "store":
        inc.add_store_edge(a, FIELDS[f], b)
    elif kind == "load":
        inc.add_load_edge(a, b, FIELDS[f])
    else:  # fresh local wired into the graph
        v = inc.add_local(f"v_edit{counter}@edit.m")
        locals_.append(v)
        inc.add_assign_edge(v, a)


def pinned(seed, **params):
    """Synthesis params of a pinned example: the drawn fields over the
    ``small_params`` fixed ones."""
    fixed = dict(n_app_classes=1, n_hub_containers=0)
    return SynthesisParams(seed=seed, **fixed, **params)


class TestEditSequencesMatchScratch:
    @settings(max_examples=12, **COMMON)
    @given(small_params(), st.lists(edit_ops, min_size=1, max_size=5))
    # from --hypothesis-seed 3
    @example(
        pinned(71, n_data_classes=1, containment_depth=1, n_boxes=2, n_vecs=1,
               n_box_subclasses=1, n_util_chains=1, wrapper_chain_len=1,
               methods_per_app_class=2, actions_per_method=4, n_globals=0,
               read_fanout=1),
        [("load", 179, 7, 2), ("assign", 1, 71, 2), ("assign", 417, 989, 1),
         ("assign", 1358, 539, 1), ("load", 6923, 653, 2)],
    )
    # from --hypothesis-seed 26
    @example(
        pinned(13, n_data_classes=1, containment_depth=1, n_boxes=2, n_vecs=1,
               n_box_subclasses=0, n_util_chains=1, wrapper_chain_len=2,
               methods_per_app_class=1, actions_per_method=4, n_globals=0,
               read_fanout=1),
        [("new", 280, 1603, 0), ("load", 600, 80, 2), ("new", 124, 798, 2)],
    )
    # from --hypothesis-seed 8
    @example(
        pinned(409, n_data_classes=1, containment_depth=1, n_boxes=2, n_vecs=1,
               n_box_subclasses=0, n_util_chains=1, wrapper_chain_len=1,
               methods_per_app_class=2, actions_per_method=1, n_globals=0,
               read_fanout=0),
        [("assign", 485, 2766, 0)],
    )
    # from --hypothesis-seed 16
    @example(
        pinned(113, n_data_classes=1, containment_depth=1, n_boxes=2, n_vecs=0,
               n_box_subclasses=1, n_util_chains=1, wrapper_chain_len=1,
               methods_per_app_class=1, actions_per_method=1, n_globals=1,
               read_fanout=0),
        [("store", 1422, 3402, 0), ("load", 2167, 58, 0), ("local", 4388, 817, 2),
         ("store", 114, 305, 2)],
    )
    # from --hypothesis-seed 25
    @example(
        pinned(0, n_data_classes=1, containment_depth=2, n_boxes=2, n_vecs=1,
               n_box_subclasses=0, n_util_chains=0, wrapper_chain_len=2,
               methods_per_app_class=1, actions_per_method=1, n_globals=0,
               read_fanout=0),
        [("assign", 84, 1358, 1)],
    )
    def test_post_edit_answers_byte_identical(self, params, edits):
        build = build_pag(synthesize_program(params))
        pag = build.pag
        inc = IncrementalAnalysis(
            pag, EngineConfig(budget=UNLIMITED, tau_f=0, tau_u=0)
        )
        locals_ = list(pag.app_locals())
        objs = []
        # warm the session before editing
        for var in locals_:
            inc.points_to(var)
        for counter, op in enumerate(edits):
            apply_edit(inc, locals_, objs, counter, op)
        scratch = CFLEngine(pag, EngineConfig(budget=UNLIMITED))
        for var in locals_:
            got = inc.points_to(var)
            want = scratch.points_to(var)
            assert not got.exhausted
            assert got.points_to == want.points_to, pag.name(var)

    @settings(max_examples=8, **COMMON)
    @given(small_params(), st.lists(edit_ops, min_size=1, max_size=4))
    # from --hypothesis-seed 13
    @example(
        pinned(2254, n_data_classes=1, containment_depth=2, n_boxes=2, n_vecs=0,
               n_box_subclasses=0, n_util_chains=0, wrapper_chain_len=1,
               methods_per_app_class=1, actions_per_method=4, n_globals=0,
               read_fanout=0),
        [("local", 1030, 357, 2), ("assign", 118, 166, 2), ("store", 3243, 1345, 1)],
    )
    def test_interleaved_queries_and_edits(self, params, edits):
        # Query between every edit, so invalidation runs against a
        # live mix of warm entries, cached answers and fresh state.
        build = build_pag(synthesize_program(params))
        pag = build.pag
        inc = IncrementalAnalysis(
            pag, EngineConfig(budget=UNLIMITED, tau_f=0, tau_u=0)
        )
        locals_ = list(pag.app_locals())
        objs = []
        probe = locals_[: min(4, len(locals_))]
        for var in probe:
            inc.points_to(var)
        for counter, op in enumerate(edits):
            apply_edit(inc, locals_, objs, counter, op)
            for var in probe:
                inc.points_to(var)
        scratch = CFLEngine(pag, EngineConfig(budget=UNLIMITED))
        for var in locals_:
            assert inc.points_to(var).points_to == \
                scratch.points_to(var).points_to, pag.name(var)


#: Drawn cross-method assigns: ``(i, j)`` picks the destination local
#: and then a source local of another method, by modulo at apply time.
cross_method_ops = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
    min_size=1, max_size=4,
)


def add_cross_method_assigns(inc, locals_, picks):
    pag = inc.pag
    for i, j in picks:
        dst = locals_[i % len(locals_)]
        others = [v for v in locals_ if pag.method_of(v) != pag.method_of(dst)]
        if others:
            inc.add_assign_edge(dst, others[j % len(others)])


class TestCrossMethodEditsStaySound:
    """Edits that add recursion cycles build-time collapse never saw
    still give finite, Andersen-sound answers that the matrix kernel
    reproduces exactly."""

    @settings(max_examples=25, **COMMON)
    @given(
        small_params(),
        st.lists(edit_ops, min_size=0, max_size=3),
        cross_method_ops,
    )
    def test_engine_sound_and_matrix_identical(self, params, edits, picks):
        pag = build_pag(synthesize_program(params)).pag
        inc = IncrementalAnalysis(pag, EngineConfig(budget=UNLIMITED))
        locals_ = list(pag.app_locals())
        objs = []
        for counter, op in enumerate(edits):
            apply_edit(inc, locals_, objs, counter, op)
        add_cross_method_assigns(inc, locals_, picks)
        cfg = EngineConfig(budget=UNLIMITED)
        engine = CFLEngine(pag, cfg)
        oracle = AndersenSolver(pag).solve()
        queries = [Query(v) for v in locals_]
        matrix = MatrixKernel(pag, cfg).run_batch(queries)
        for query, got in zip(queries, matrix):
            want = engine.run_query(query)
            assert not want.exhausted
            assert want.objects <= oracle.points_to(query.var), pag.name(query.var)
            assert got.points_to == want.points_to, pag.name(query.var)


#: One drawn session step: a single points-to query, a ``local`` batch
#: of every local, or an edit.
session_ops = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.integers(0, 10_000)),
        st.just(("batch",)),
        edit_ops,
    ),
    min_size=1, max_size=8,
)


#: The in-process backends a session's batches run on in
#: :data:`backend_ops` (mp is covered by ``tests/api/test_session.py``:
#: process start-up is too slow for a property).
BACKENDS = ("sim", "threads", "local")

#: Like :data:`session_ops`, but each batch runs on a drawn backend
#: (DQ, two workers).  An example starts with such a batch and some
#: edits, so the edits meet its entries, and ends with a ``local``
#: batch of every local, so it checks every answer after its last edit.
backend_ops = st.tuples(
    st.sampled_from(BACKENDS),
    st.lists(edit_ops, min_size=1, max_size=4),
    st.lists(
        st.one_of(
            st.tuples(st.just("query"), st.integers(0, 10_000)),
            st.tuples(st.just("batch"), st.sampled_from(BACKENDS)),
            edit_ops,
        ),
        max_size=6,
    ),
).map(lambda drawn: [
    ("batch", drawn[0]), *drawn[1], *drawn[2], ("batch", "local"),
])


def run_session(params, ops, budget):
    """Apply ``ops`` to a fresh ``local`` DQ x2 session at ``budget``
    (a ``("batch", backend)`` step runs on ``backend``); yields
    ``(var, answer, from-scratch answer at an unlimited budget)`` for
    every answer given, the scratch engine running on the graph as it
    stood when the answer was given."""
    pag = build_pag(synthesize_program(params)).pag
    session = Session.from_pag(
        pag,
        runtime=RuntimeConfig(mode="DQ", n_threads=2, backend="local"),
        engine=EngineConfig(budget=budget, tau_f=0, tau_u=0),
    )
    locals_ = list(pag.app_locals())
    objs = []
    jumps = session.seq.jumps
    for counter, op in enumerate(ops):
        if op[0] == "query":
            var = locals_[op[1] % len(locals_)]
            answers = [(var, session.points_to(var))]
        elif op[0] == "batch":
            by_query = session.batch(
                [Query(v) for v in locals_], backend=op[1] if op[1:] else None
            ).results_by_query()
            answers = [(v, by_query[(pag.rep(v), ())]) for v in locals_]
        else:
            apply_edit(session.seq, locals_, objs, counter, op)
            answers = []
        scratch = CFLEngine(pag, EngineConfig(budget=UNLIMITED))
        for var, got in answers:
            yield var, got, scratch.points_to(var)
    # one store throughout: edits invalidate, they never replace it
    assert session.seq.jumps is jumps
    assert session.runner().resident_jumps() is jumps


class TestSessionInterleavings:
    """Single queries, batches and edits on one session."""

    @settings(max_examples=10, **COMMON)
    @given(small_params(), session_ops)
    def test_unlimited_answers_match_scratch(self, params, ops):
        for var, got, want in run_session(params, ops, UNLIMITED):
            assert not got.exhausted
            assert got.points_to == want.points_to, var

    @settings(max_examples=10, **COMMON)
    @given(small_params(), session_ops, st.integers(1, 400))
    def test_budgeted_answers_are_subsets(self, params, ops, budget):
        for var, got, want in run_session(params, ops, budget):
            assert got.points_to <= want.points_to, var

    @settings(max_examples=300, **COMMON)
    @given(small_params(), backend_ops)
    def test_every_backend_matches_scratch(self, params, ops):
        for var, got, want in run_session(params, ops, UNLIMITED):
            assert not got.exhausted
            assert got.points_to == want.points_to, var
