"""Tests for :class:`repro.api.Session` — the one blessed entry point.

The facade's contract: a program is parsed and lowered **once**, every
expensive artifact stays resident (PAG, the one jump map, persistent
per-configuration runners on it), and its answers are identical to the
lower-level engines it fronts.  Constructors, name resolution, single
queries, batches, edits, checkers, and the snapshot round-trip are
all covered here; the serving daemon built on top is covered in
``tests/serve``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (
    CFLEngine,
    EngineConfig,
    InputError,
    JumpMap,
    MetricsRecorder,
    PAG,
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

    def test_lookup_without_override_keeps_the_session_runtime(self, box):
        # No override, no copy: the runner runs on the session's own
        # (frozen) runtime, and an explicit override equal to it finds
        # the same runner.
        runner = box.runner()
        assert runner.runtime is box.runtime
        assert box.runner() is runner
        rt = box.runtime
        assert box.runner(
            mode=rt.mode, n_threads=rt.n_threads, backend=rt.backend
        ) is runner

    def test_runners_are_keyed_by_effective_threads(self):
        # local runs on the calling thread whatever n_threads says, so
        # both batches share one runner and one committed map.
        session = Session.from_build(load_benchmark("_200_check"))
        for n in (2, 4):
            session.batch(mode="D", n_threads=n, backend="local")
        assert session.stats()["n_runners"] == 1
        jumps = session.seq.jumps
        assert session.n_jump_entries() == (
            jumps.n_finished_edges + jumps.n_unfinished_edges
        )

    def test_resident_jumps_survive_batches(self, fig2):
        b, _ = fig2
        session = Session.from_build(
            b,
            runtime=RuntimeConfig(mode="DQ", n_threads=2, backend="threads"),
            engine=EngineConfig(tau_f=0, tau_u=0),
        )
        jumps = session.runner().resident_jumps()
        assert jumps is session.seq.jumps  # the session's one map
        assert isinstance(jumps, JumpMap)
        session.batch()
        n_first = jumps.n_finished_edges + jumps.n_unfinished_edges
        assert n_first > 0
        session.batch()
        assert session.runner().resident_jumps() is jumps
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


class TestEditsKeepRunners:
    """An edge edit through ``session.seq`` must reach the batch
    runners.  Every runner runs on ``seq``'s map, which the edit
    invalidates in place, so every runner stays: entries indexed under
    a footprint fall only when the edit reaches them, entries the
    ``sim``, ``threads`` and ``mp`` engines wrote (no footprint) fall
    at every edge edit, and unfinished markers stay."""

    @pytest.mark.parametrize(
        "backend", ["sim", "threads", "mp", "local", "hybrid"]
    )
    def test_batch_after_edits_matches_a_fresh_session(self, backend):
        kw = dict(
            runtime=RuntimeConfig(mode="DQ", n_threads=2, backend=backend),
            # Unlimited budget: there every backend is byte-identical.
            engine=spec_of("_200_check").engine_config(budget=10**9),
        )
        build, edits = _withheld("_200_check", 30)
        session = Session.from_build(build, **kw)
        session.batch()
        runner = session.runner()
        jumps = session.seq.jumps
        assert runner.resident_jumps() is jumps
        _apply_edits(session, edits)
        after = session.batch()
        # One store throughout, invalidated in place; no runner retired.
        assert session.runner() is runner
        assert runner.resident_jumps() is session.seq.jumps is jumps
        assert session.seq.n_invalidated > 0

        fresh_build, _ = _withheld("_200_check", 30)
        fresh = Session.from_build(fresh_build, **kw)
        _apply_edits(fresh, edits)
        assert _answers(after) == _answers(fresh.batch())

    @pytest.mark.parametrize("backend", ["sim", "local"])
    def test_edge_edit_drops_only_unrecorded_and_reached_entries(
        self, backend
    ):
        # Two disjoint heap islands.  Single queries on island a index
        # their entries; a batch over island b, on either backend,
        # writes entries with no footprint; an exhausting query plants
        # unfinished markers.
        pag = PAG()
        nodes = {}
        for tag in ("a", "b"):
            p = pag.add_local(f"p_{tag}")
            v = pag.add_local(f"v_{tag}")
            x = pag.add_local(f"x_{tag}")
            pag.add_new_edge(p, pag.add_obj(f"o_base_{tag}"))
            pag.add_new_edge(v, pag.add_obj(f"o_val_{tag}"))
            pag.add_store_edge(p, f"f_{tag}", v)
            pag.add_load_edge(x, p, f"f_{tag}")
            nodes[tag] = (p, v, x)
        session = Session.from_pag(
            pag,
            runtime=RuntimeConfig(mode="DQ", n_threads=2, backend=backend),
            engine=EngineConfig(tau_f=0, tau_u=0),
        )
        seq = session.seq
        jumps = seq.jumps
        session.points_to(nodes["a"][2])
        indexed = dict(jumps.finished_items())
        assert indexed and seq.n_tracked_entries > 0
        session.batch([Query(nodes["b"][2])])
        written = {
            key for key, _ in jumps.finished_items() if key not in indexed
        }
        assert written  # the batch's entries, without a footprint
        jumps.insert_unfinished((nodes["b"][0], (), False), 7)
        markers = dict(jumps.unfinished_items())
        runner = session.runner()

        # An edge into island a's untouched corner: a fresh local
        # assigned from nothing any island a entry visited.
        fresh = seq.add_local("fresh")
        seq.add_assign_edge(fresh, seq.add_local("other"))
        held = dict(jumps.finished_items())
        assert held == indexed  # indexed and unreached: all kept
        assert not written & held.keys()  # unrecorded: all dropped
        assert dict(jumps.unfinished_items()) == markers
        assert session.runner() is runner

    def test_node_addition_keeps_every_runner(self):
        session = Session.open(
            EXAMPLE,
            runtime=RuntimeConfig(mode="DQ", n_threads=2, backend="threads"),
            engine=EngineConfig(tau_f=0, tau_u=0),
        )
        session.batch()
        runners = [session.runner(), session.runner(backend="sim")]
        jumps = session.seq.jumps
        n_fin = jumps.n_finished_edges
        assert n_fin > 0
        session.seq.add_local("fresh_local")
        session.seq.add_global("FRESH_GLOBAL")
        session.seq.add_obj("fresh_obj")
        assert [session.runner(), session.runner(backend="sim")] == runners
        assert jumps.n_finished_edges == n_fin
        assert session.stats()["n_runners"] == 2


class TestOneDemandStore:
    def test_points_to_then_local_batch_writes_one_map(self):
        # Single queries and a local batch read and write one map: the
        # batch takes the shortcuts the queries published, and the
        # session holds no second copy of them.
        name = "_200_check"
        session = Session.from_build(
            load_benchmark(name),
            runtime=RuntimeConfig(mode="DQ", backend="local"),
            engine=spec_of(name).engine_config(),
        )
        for var in session.app_locals():
            session.points_to(var)
        seq = session.seq.jumps
        batch = session.batch()
        assert batch.n_queries == len(session.app_locals())
        assert session.runner().resident_jumps() is seq
        assert session.n_jump_entries() == (
            seq.n_finished_edges + seq.n_unfinished_edges
        ) > 0
        assert len(session.export_log()) == len(seq.export_log())
        assert sum(e.result.costs.jmp_taken for e in batch.executions) > 0

    def test_share_nothing_local_keeps_off_the_store(self, box):
        box.points_to("b@Main.main")
        before = box.n_jump_entries()
        batch = box.batch(mode="naive", backend="local")
        assert batch.n_jumps == batch.total_saved == 0
        assert box.runner(mode="naive", backend="local").resident_jumps() is None
        assert box.n_jump_entries() == before


class TestCrossMethodEdit:
    """An edit that closes a recursion cycle through a call (here, a
    callee local fed from its caller) after build-time collapse ran:
    served batches must still finish at an unlimited budget, agree with
    a from-scratch engine and stay Andersen-sound."""

    @pytest.mark.parametrize("backend", ["local", "matrix"])
    def test_batch_after_cross_method_assign(self, backend):
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


class TestEditThroughMergedMember:
    """An edit naming a node that points-to cycle elimination merged
    away lands on its representative, where the traversal reads it."""

    PROGRAM = """
        class A { }
        class Main { static method main() {
            var a: A
            var b: A
            var c: A
            var d: A
            a = b
            b = a
            c = new A
            d = a
            %s
        } }
    """

    @staticmethod
    def answer(session, var):
        result = session.points_to(f"{var}@Main.main")
        assert not result.exhausted
        return sorted(session.name(o) for o in result.objects)

    def test_edit_matches_the_rebuilt_program(self):
        cfg = EngineConfig(budget=10**9)
        session = Session.from_source(self.PROGRAM % "", engine=cfg)
        assert session.build.n_merged_assign_nodes == 1
        raw_b = session.build.var_ids["b@Main.main"]
        assert session.rep(raw_b) != raw_b
        assert self.answer(session, "d") == []
        session.seq.add_assign_edge(raw_b, session.resolve("c@Main.main"))
        rebuilt = Session.from_source(self.PROGRAM % "b = c", engine=cfg)
        assert self.answer(rebuilt, "d") == ["o:Main.main:0"]
        assert self.answer(session, "d") == self.answer(rebuilt, "d")


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
        session = Session.from_build(
            b,
            runtime=RuntimeConfig(mode="DQ", n_threads=2, backend="threads"),
            engine=EngineConfig(tau_f=0, tau_u=0),
        )
        # Single queries and a threads batch write the one map.
        for var in b.pag.app_locals():
            session.points_to(var)
        session.batch()
        log = session.export_log()
        keys = [(kind, key) for kind, key, _payload in log]
        assert len(keys) == len(set(keys)), "duplicate keys in epoch-0 log"
        assert log == session.seq.jumps.export_log()
        assert len(log) == len(session.seq.jumps) > 0

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

    def test_runner_made_after_a_warm_boot_sees_the_snapshot(self, tmp_path):
        snap = tmp_path / "box.snap"
        cold = Session.open(EXAMPLE, engine=EngineConfig(tau_f=0, tau_u=0))
        cold.batch(mode="DQ", n_threads=2, backend="threads")
        for spec in ("b@Main.main", "got@Main.main"):
            cold.points_to(spec)
        cold.snapshot(snap)
        saved = {(kind, key) for kind, key, _ in load_snapshot(snap).log}

        warm = Session.open(
            EXAMPLE,
            runtime=RuntimeConfig(mode="DQ", n_threads=2, backend="threads"),
            engine=EngineConfig(tau_f=0, tau_u=0),
        )
        warm.warm_from_snapshot(snap)
        runner = warm.runner()  # created after the warm boot
        held = {
            (kind, key) for kind, key, _ in runner.resident_jumps().export_log()
        }
        assert held == saved
        batch = warm.batch()
        assert sum(e.result.costs.jmp_taken for e in batch.executions) > 0

    def test_hybrid_session_warms_its_demand_route(self, tmp_path):
        # hybrid's sparse batches run on its demand-route executor, so a
        # warm boot must seed that executor's map, not skip it.
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
        demand = warm.runner().resident_jumps()  # made after the warm boot
        assert demand is warm.seq.jumps
        held = {(kind, key) for kind, key, _ in demand.export_log()}
        assert held == saved

        queries = warm.queries(warm.app_locals()[:3])
        batch = warm.batch(queries)
        want = cold.batch(queries, mode="DQ", backend="local")
        assert batch.points_to_map() == want.points_to_map()
        assert warm.runner().resident_jumps() is demand
        assert len(demand.export_log()) >= len(saved)


class TestStats:
    def test_stats_reports_resident_state(self, box):
        stats = box.stats()
        for key in ("source", "kind", "n_nodes", "n_edges", "mode",
                    "backend", "n_threads", "budget",
                    "n_runners", "n_jump_entries", "n_cached_queries"):
            assert key in stats
        box.points_to("b@Main.main")
        box.batch()
        after = box.stats()
        assert after["n_runners"] == 1
        assert after["n_cached_queries"] > 0


NUMPY_FREE_SCRIPT = """
import sys
sys.modules["numpy"] = None  # any `import numpy` now raises ImportError
from repro.api import EngineConfig, MetricsRecorder, Query, RuntimeConfig, Session
from repro.core.scheduling import DEFAULT_BULK_CROSSOVER

rec = MetricsRecorder()
session = Session.open(
    sys.argv[1],
    runtime=RuntimeConfig(backend="hybrid"),
    engine=EngineConfig(budget=10**9),
    recorder=rec,
)
app_locals = session.app_locals()
# A batch at the crossover, so hybrid routes it to the bulk kernel.
queries = [
    Query(app_locals[i % len(app_locals)]) for i in range(DEFAULT_BULK_CROSSOVER)
]
want = session.batch(queries, mode="seq", backend="sim").points_to_map()
assert want
assert session.batch(queries, backend="matrix").points_to_map() == want
assert session.batch(queries).points_to_map() == want
assert rec.snapshot()["matrix.routed_bulk"] == 1
print("ok")
"""


def test_matrix_and_hybrid_run_without_numpy():
    # The bulk kernel is pure Python: with numpy made unimportable, a
    # matrix batch and a hybrid batch routed to the bulk kernel still
    # answer exactly what the sequential engine does.
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_SCRIPT, str(EXAMPLE)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
