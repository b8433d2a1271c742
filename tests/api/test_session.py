"""Tests for :class:`repro.api.Session` — the one blessed entry point.

The facade's contract: a program is parsed and lowered **once**, every
expensive artifact stays resident (PAG, sequential jump map, persistent
per-backend executors), and its answers are identical to the
lower-level engines it fronts.  Constructors, name resolution, single
queries, batches, checkers, and the compacted snapshot round-trip are
all covered here; the serving daemon built on top is covered in
``tests/serve``.
"""

from pathlib import Path

import pytest

from repro.api import (
    CFLEngine,
    EngineConfig,
    InputError,
    JumpMapLifecycle,
    MetricsRecorder,
    Query,
    RuntimeConfig,
    Session,
    build_pag,
    load_benchmark,
    load_snapshot,
    spec_of,
)
from repro.andersen import AndersenSolver
from repro.benchgen import SynthesisParams, synthesize_program
from repro.ir.statements import Assign, Load, Store

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "box_clean.mj"


@pytest.fixture()
def box():
    return Session.open(EXAMPLE)


class TestConstructors:
    def test_open_reads_and_lowers_once(self, box):
        assert box.kind == "java"
        assert box.source == str(EXAMPLE)
        assert box.pag.n_nodes > 0

    def test_open_missing_file_is_input_error(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            Session.open(tmp_path / "nope.mj")

    def test_open_directory_is_input_error(self, tmp_path):
        with pytest.raises(InputError, match="directory"):
            Session.open(tmp_path)

    def test_from_source(self):
        session = Session.from_source(
            "class M { static method main() { var a: Object\n"
            "a = new Object } }"
        )
        res = session.points_to("a@M.main")
        assert len(res.objects) == 1

    def test_from_build_adopts_the_harness_path(self, fig2):
        b, n = fig2
        session = Session.from_build(b)
        assert session.points_to(n["s1"]).objects == {n["o_n1"]}

    def test_from_pag_has_no_name_resolution(self, fig2):
        b, _ = fig2
        session = Session.from_pag(b.pag)
        with pytest.raises(InputError, match="bare PAG"):
            session.resolve("s1@Main.main")
        with pytest.raises(InputError):
            session.check()
        # node-id queries still work against the bare graph
        assert session.batch([Query(v) for v in session.app_locals()[:3]])

    def test_recorder_counts_sessions_and_builds(self):
        rec = MetricsRecorder()
        Session.open(EXAMPLE, recorder=rec)
        snap = rec.snapshot()
        assert snap["api.sessions"] == 1
        assert snap["api.pag_builds"] == 1


class TestResolutionAndQueries:
    def test_resolve_spec(self, box):
        node = box.resolve("b@Main.main")
        assert box.name(node) == "b@Main.main"

    def test_queries_default_to_app_locals(self, box):
        qs = box.queries()
        assert [q.var for q in qs] == box.app_locals()

    def test_points_to_accepts_spec_or_node(self, box):
        by_spec = box.points_to("b@Main.main")
        by_node = box.points_to(box.resolve("b@Main.main"))
        assert by_spec.objects == by_node.objects
        assert sorted(box.name(o) for o in by_spec.objects) == [
            "o:Main.main:0"
        ]

    def test_flows_to_by_label(self, box):
        res = box.flows_to("o:Main.main:0")
        names = {box.name(v) for v in res.objects}
        assert "b@Main.main" in names
        assert "same@Main.main" in names

    def test_may_alias(self, box):
        assert box.may_alias("b@Main.main", "same@Main.main")
        assert not box.may_alias("b@Main.main", "v@Main.main")

    def test_answers_match_the_share_nothing_engine(self, fig2):
        b, _ = fig2
        session = Session.from_build(b)
        seq = CFLEngine(b.pag)
        for var in b.pag.app_locals():
            assert session.points_to(var).objects == seq.points_to(var).objects

    def test_trace_points_to_certifies_each_object(self, box):
        result, witnesses = box.trace_points_to("got@Main.main")
        assert not result.exhausted
        assert len(witnesses) == len(result.points_to)
        for w in witnesses:
            assert w.certify()

    def test_trace_exhausted_has_no_witnesses(self, fig2):
        b, n = fig2
        session = Session.from_build(b, engine=EngineConfig(budget=3))
        result, witnesses = session.trace_points_to(n["s1"])
        assert result.exhausted
        assert witnesses == []


class TestBatchesAndResidency:
    def test_batch_defaults_to_app_locals(self, box):
        batch = box.batch()
        assert batch.n_queries == len(box.app_locals())

    def test_runner_is_persistent_per_key(self, box):
        r1 = box.runner(mode="DQ", n_threads=2, backend="threads")
        r2 = box.runner(mode="DQ", n_threads=2, backend="threads")
        r3 = box.runner(mode="DQ", n_threads=4, backend="threads")
        assert r1 is r2
        assert r1 is not r3

    def test_resident_jumps_survive_batches(self, fig2):
        b, _ = fig2
        session = Session.from_build(
            b,
            runtime=RuntimeConfig(mode="DQ", n_threads=2, backend="threads"),
            engine=EngineConfig(tau_f=0, tau_u=0),
        )
        assert session.resident_jumps() is None  # no batch yet
        session.batch()
        jumps = session.resident_jumps()
        assert isinstance(jumps, JumpMapLifecycle)
        n_first = jumps.n_finished_edges + jumps.n_unfinished_edges
        assert n_first > 0
        session.batch()
        assert session.resident_jumps() is jumps  # same resident store
        assert session.n_jump_entries() >= n_first

    def test_batch_answers_match_seq(self, fig2):
        b, _ = fig2
        session = Session.from_build(
            b, runtime=RuntimeConfig(mode="DQ", n_threads=2,
                                     backend="threads")
        )
        batch = session.batch()
        seq = CFLEngine(b.pag)
        for e in batch.executions:
            assert e.result.objects == seq.run_query(e.result.query).objects

    def test_close_drops_residency(self, box):
        box.batch()
        box.points_to("b@Main.main")
        box.close()
        assert box.stats()["n_runners"] == 0
        assert box.stats()["n_jump_entries"] == 0


def _withheld(name, k):
    """Suite ``name`` lowered with ``k`` of its reference-typed app
    assign/load/store statements withheld (every ``len/k``-th in program
    order); returns the build and the withheld statements as
    ``(kind, method, dst, src, field)`` edits."""
    program = synthesize_program(spec_of(name).params)
    types = program.types

    def ref(method, var):
        local = method.locals.get(var)
        return local is not None and types.resolve(local.type_name).is_reference

    eligible = []
    for m in program.methods():
        if not m.is_app:
            continue
        for stmt in m.body:
            kind = type(stmt)
            if kind is Assign and ref(m, stmt.target) and ref(m, stmt.source):
                edit = ("assign", stmt.target, stmt.source, "")
            elif kind is Load and ref(m, stmt.target) and ref(m, stmt.base):
                edit = ("load", stmt.target, stmt.base, stmt.field)
            elif kind is Store and ref(m, stmt.base) and ref(m, stmt.source):
                edit = ("store", stmt.base, stmt.source, stmt.field)
            else:
                continue
            eligible.append((m, stmt, edit))
    step = len(eligible) / k
    chosen = [eligible[int(i * step)] for i in range(k)]
    for m, stmt, _ in chosen:
        m.body.remove(stmt)
    edits = [(e[0], m.qualified_name) + e[1:] for m, _, e in chosen]
    return build_pag(program), edits


def _apply_edits(session, edits):
    for kind, method, dst, src, field in edits:
        d = session.resolve(f"{dst}@{method}")
        s = session.resolve(f"{src}@{method}")
        if kind == "assign":
            session.seq.add_assign_edge(d, s)
        elif kind == "load":
            session.seq.add_load_edge(d, s, field)
        else:
            session.seq.add_store_edge(d, field, s)


def _answers(batch):
    return repr(sorted(
        (key, sorted(r.points_to), r.exhausted)
        for key, r in batch.results_by_query().items()
    ))


class TestEditsRetireRunners:
    """An edit through ``session.seq`` must reach the batch runners: their
    committed jump maps (and an mp runner's frozen PAG) predate it."""

    @pytest.mark.parametrize("backend", ["sim", "threads", "mp"])
    def test_batch_after_edits_matches_a_fresh_session(self, backend):
        kw = dict(
            runtime=RuntimeConfig(mode="DQ", n_threads=2, backend=backend),
            # Unlimited budget: there every backend is byte-identical.
            engine=spec_of("_200_check").engine_config(budget=10**9),
        )
        build, edits = _withheld("_200_check", 30)
        session = Session.from_build(build, **kw)
        session.batch()
        _apply_edits(session, edits)
        after = session.batch()

        fresh_build, _ = _withheld("_200_check", 30)
        fresh = Session.from_build(fresh_build, **kw)
        _apply_edits(fresh, edits)
        assert _answers(after) == _answers(fresh.batch())

    def test_edit_retires_runners_and_the_warm_log(self, tmp_path):
        snap = tmp_path / "box.snap"
        kw = dict(
            runtime=RuntimeConfig(mode="DQ", n_threads=2, backend="threads"),
            engine=EngineConfig(tau_f=0, tau_u=0),
        )
        cold = Session.open(EXAMPLE, **kw)
        cold.batch()
        cold.snapshot(snap)

        warm = Session.from_snapshot(snap, EXAMPLE, **kw)
        runner = warm.runner()
        assert runner.resident_jumps().n_finished_edges > 0  # warmed
        warm.seq.add_local("fresh_local")
        assert warm.resident_jumps() is None
        retired = warm.runner()
        assert retired is not runner
        # The warm log describes the pre-edit program: nothing replayed.
        assert retired.resident_jumps() is None
        assert warm.runner() is retired  # resident until the next edit


class TestCrossMethodEdit:
    """An edit that closes a recursion cycle through a call (here, a
    callee local fed from its caller) after build-time collapse ran:
    served batches must still finish at an unlimited budget, agree with
    a from-scratch engine and stay Andersen-sound."""

    @pytest.mark.parametrize("backend", ["local", "matrix"])
    def test_batch_after_cross_method_assign(self, backend):
        pytest.importorskip("numpy")
        params = SynthesisParams(
            seed=0, n_data_classes=1, containment_depth=2, n_boxes=2, n_vecs=1,
            n_box_subclasses=0, n_util_chains=0, wrapper_chain_len=2,
            n_app_classes=1, methods_per_app_class=1, actions_per_method=1,
            n_globals=0, n_hub_containers=0, read_fanout=0,
        )
        cfg = EngineConfig(budget=10**9)
        session = Session.from_build(build_pag(synthesize_program(params)), engine=cfg)
        session.batch(backend=backend)
        session.seq.add_assign_edge(
            session.resolve("a@App0.help0"), session.resolve("v1@App0.run0")
        )
        after = session.batch(backend=backend).results_by_query()
        engine = CFLEngine(session.pag, cfg)
        oracle = AndersenSolver(session.pag).solve()
        assert len(after) == len(session.app_locals())
        for (var, ctx), got in after.items():
            want = engine.points_to(var, ctx)
            assert not got.exhausted
            assert got.points_to == want.points_to, session.name(var)
            assert got.objects <= oracle.points_to(var), session.name(var)


class TestEditPathCounters:
    def test_engine_counters_survive_edits(self):
        # The resident sequential session's engine reports to the
        # session's recorder, so edit workloads see engine.* counters.
        rec = MetricsRecorder()
        session = Session.open(EXAMPLE, recorder=rec)
        a, b = session.app_locals()[:2]
        session.points_to(a)
        before = rec.snapshot()["engine.steps"]
        assert before > 0
        session.seq.add_assign_edge(a, b)
        session.points_to(a)
        snap = rec.snapshot()
        assert snap["inc.edits"] == 1
        assert snap["engine.steps"] > before


class TestCheckers:
    def test_clean_fixture_has_no_findings(self, box):
        report = box.check(["null-deref", "downcast"])
        assert report.findings == []
        assert report.n_queries > 0

    def test_non_java_kind_is_rejected(self, fig2):
        b, _ = fig2
        session = Session.from_build(b, kind="c")
        with pytest.raises(InputError, match="mini-Java"):
            session.check()


class TestSnapshotRoundTrip:
    def test_export_log_is_compacted_to_one_entry_per_key(self, fig2):
        b, _ = fig2
        rec = MetricsRecorder()
        session = Session.from_build(
            b,
            runtime=RuntimeConfig(mode="DQ", n_threads=2, backend="threads"),
            engine=EngineConfig(tau_f=0, tau_u=0),
            recorder=rec,
        )
        # Populate both resident stores: the sequential map and a
        # persistent runner's committed map (overlapping keys).
        for var in b.pag.app_locals():
            session.points_to(var)
        session.batch()
        runner = session.runner()
        raw_logs = [session.seq.jumps.export_log()]
        raw_logs.extend(runner.export_resident_logs())
        raw = sum(len(log) for log in raw_logs)
        unique = {(kind, key) for log in raw_logs for kind, key, _ in log}

        log = session.export_log()
        keys = [(kind, key) for kind, key, _payload in log]
        assert len(keys) == len(set(keys)), "duplicate keys in epoch-0 log"
        assert set(keys) == unique
        assert 0 < len(log) <= raw
        if len(log) < raw:
            assert rec.snapshot()["snapshot.log_compacted"] == raw - len(log)

    def test_snapshot_warm_boot_round_trip(self, tmp_path):
        snap = tmp_path / "box.snap"
        cold = Session.open(EXAMPLE, engine=EngineConfig(tau_f=0, tau_u=0))
        expected = {
            spec: cold.points_to(spec).objects
            for spec in ("b@Main.main", "v@Main.main", "got@Main.main")
        }
        cold.snapshot(snap)

        warm = Session.from_snapshot(
            snap, EXAMPLE, engine=EngineConfig(tau_f=0, tau_u=0)
        )
        assert warm.n_jump_entries() > 0  # seeded before any query
        for spec, objects in expected.items():
            assert warm.points_to(spec).objects == objects

    def test_warm_from_snapshot_returns_accepted_entries(self, tmp_path):
        snap = tmp_path / "box.snap"
        cold = Session.open(EXAMPLE, engine=EngineConfig(tau_f=0, tau_u=0))
        for spec in ("b@Main.main", "got@Main.main"):
            cold.points_to(spec)
        cold.snapshot(snap)

        warm = Session.open(EXAMPLE, engine=EngineConfig(tau_f=0, tau_u=0))
        accepted = warm.warm_from_snapshot(snap)
        assert accepted > 0

    def test_warm_log_seeds_later_runners(self, tmp_path):
        snap = tmp_path / "box.snap"
        cold = Session.open(EXAMPLE, engine=EngineConfig(tau_f=0, tau_u=0))
        cold.batch(mode="DQ", n_threads=2, backend="threads")
        for spec in ("b@Main.main", "got@Main.main"):
            cold.points_to(spec)
        cold.snapshot(snap)

        warm = Session.open(
            EXAMPLE,
            runtime=RuntimeConfig(mode="DQ", n_threads=2, backend="threads"),
            engine=EngineConfig(tau_f=0, tau_u=0),
        )
        warm.warm_from_snapshot(snap)
        runner = warm.runner()  # created after the warm boot
        jumps = runner.resident_jumps()
        assert jumps is not None
        assert jumps.n_finished_edges + jumps.n_unfinished_edges > 0

    def test_hybrid_session_warms_its_demand_route(self, tmp_path):
        # hybrid's sparse batches run on its demand-route executor, so a
        # warm boot must seed that executor's map, not skip it.
        pytest.importorskip("numpy")
        name = "_200_check"
        build = load_benchmark(name)
        engine = spec_of(name).engine_config()
        snap = tmp_path / "check.snap"
        cold = Session.from_build(build, engine=engine)
        cold.batch(spec_of(name).workload(), mode="DQ", backend="local")
        cold.snapshot(snap)
        saved = {(kind, key) for kind, key, _ in load_snapshot(snap).log}
        assert saved

        warm = Session.from_build(
            build,
            runtime=RuntimeConfig(mode="DQ", n_threads=2, backend="hybrid"),
            engine=engine,
        )
        warm.warm_from_snapshot(snap)
        warm.runner()  # created after the warm boot, before any batch
        demand = warm.resident_jumps()
        assert demand is not None
        held = {(kind, key) for kind, key, _ in demand.export_log()}
        assert held == saved

        queries = warm.queries(warm.app_locals()[:3])
        batch = warm.batch(queries)
        want = cold.batch(queries, mode="DQ", backend="local")
        assert batch.points_to_map() == want.points_to_map()
        assert warm.resident_jumps() is demand
        assert len(demand.export_log()) >= len(saved)


class TestStats:
    def test_stats_reports_resident_state(self, box):
        stats = box.stats()
        for key in ("source", "kind", "n_nodes", "n_edges", "mode",
                    "backend", "n_threads", "budget", "grammar",
                    "n_runners", "n_jump_entries", "n_cached_queries"):
            assert key in stats
        box.points_to("b@Main.main")
        box.batch()
        after = box.stats()
        assert after["n_runners"] == 1
        assert after["n_cached_queries"] > 0
