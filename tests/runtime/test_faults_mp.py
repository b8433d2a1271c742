"""Fault-injection tests for the fault-tolerant multiprocess backend.

Every recovery path of `repro.runtime.mp` is exercised against real
process failures from `repro.runtime.faults`: worker kills (EOF on the
pipe), reported exceptions, garbage protocol messages, and hangs cut
short by the per-unit deadline — under both sharing settings.  The
invariants: the batch always completes, zero queries are lost,
share-nothing answers stay byte-identical to the sequential engine,
and the recovery is visible in the per-chunk statuses and counters.
"""

import pytest

from repro.benchgen import SynthesisParams, synthesize_program
from repro.core import CFLEngine, EngineConfig, JumpMap, Query
from repro.errors import RuntimeConfigError, WorkerCrash
from repro.pag import build_pag
from repro.runtime import FaultPlan, FaultSpec, MPExecutor, RuntimeConfig
from repro.runtime.faults import FaultInjector
from repro.runtime.mp import COORDINATOR

TERMINAL = {"completed", "retried", "quarantined"}


@pytest.fixture(scope="module")
def bench():
    build = build_pag(
        synthesize_program(
            SynthesisParams(seed=77, n_app_classes=2, methods_per_app_class=2,
                            actions_per_method=6)
        )
    )
    queries = [Query(v) for v in build.pag.app_locals()]
    seq = CFLEngine(build.pag)
    expected = {q.var: seq.run_query(q).objects for q in queries}
    return build, queries, expected


def assert_recovered(batch, queries, expected):
    """The common postconditions of every fault scenario."""
    assert batch.n_queries == len(queries), "queries were lost"
    for e in batch.executions:
        assert e.result.objects == expected[e.result.query.var]
    assert all(s in TERMINAL for s in batch.chunk_status)
    assert batch.n_worker_crashes >= 1
    assert batch.errors, "recovered failures must be reported"


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(RuntimeConfigError):
            FaultSpec("kill", after_units=-1)
        with pytest.raises(RuntimeConfigError):
            FaultSpec("hang", hang_s=0)
        with pytest.raises(RuntimeConfigError):
            FaultSpec("frobnicate")

    def test_for_worker_filters(self):
        plan = FaultPlan((FaultSpec("kill", worker=0), FaultSpec("garbage")))
        assert [s.mode for s in plan.for_worker(0)] == ["kill", "garbage"]
        assert [s.mode for s in plan.for_worker(3)] == ["garbage"]

    def test_environment_plan_ignored(self, bench, monkeypatch):
        # Plans arrive only through RuntimeConfig.faults:
        # a plan-shaped environment variable arms nothing.
        build, queries, expected = bench
        monkeypatch.setenv("REPRO_FAULTS", "kill@0")
        ex = MPExecutor(
            build.pag,
            RuntimeConfig(mode="naive", n_threads=2, backend="mp"),
        )
        assert ex.runtime.faults is None
        batch = ex.run_units([[q] for q in queries])
        assert batch.n_worker_crashes == 0
        assert batch.n_queries == len(queries)
        for e in batch.executions:
            assert e.result.objects == expected[e.result.query.var]

    def test_engine_config_channel_retired(self, bench):
        # The legacy core->runtime channel (EngineConfig(faults=...)) is
        # gone: the kwarg is a TypeError and the executor takes the plan
        # from its RuntimeConfig.
        build, _, _ = bench
        plan = FaultPlan.single("garbage", worker=1)
        with pytest.raises(TypeError, match="faults"):
            EngineConfig(faults=plan)
        assert MPExecutor(
            build.pag,
            RuntimeConfig(n_threads=2, backend="mp", faults=plan),
        ).runtime.faults is plan

    def test_injector_fires_once_per_incarnation(self):
        fired = []
        inj = FaultInjector(FaultPlan.single("exc", after_units=1), 0)
        inj._fire = lambda spec: fired.append(spec.mode)
        inj.on_unit_start(); inj.on_unit_end()   # unit 1: below threshold
        inj.on_unit_start(); inj.on_unit_end()   # unit 2: fires
        inj.on_unit_start(); inj.on_unit_end()   # unit 3: already fired
        assert fired == ["exc"]


class TestKillRecovery:
    def test_kill_one_of_four_mid_batch(self, bench):
        # The acceptance scenario: 1 of 4 workers dies mid-batch; the
        # batch completes, zero queries lost, share-nothing answers
        # byte-identical to SeqCFL, and >= 1 chunk records a retry.
        build, queries, expected = bench
        batch = MPExecutor(
            build.pag,
            RuntimeConfig(
                mode="naive", n_threads=4, backend="mp", chunk_size=1,
                faults=FaultPlan.single("kill", worker=0, after_units=1),
                max_respawns=1,
            ),
        ).run_units([[q] for q in queries])
        assert_recovered(batch, queries, expected)
        assert batch.n_chunks_retried >= 1
        assert batch.n_chunk_retries >= 1

    def test_kill_with_sharing_no_lost_queries(self, bench):
        # Unlimited budget: every query completes, so sharing must not
        # change any answer even across crash-requeue epochs.
        build, queries, expected = bench
        batch = MPExecutor(
            build.pag,
            RuntimeConfig(
                mode="D", n_threads=4, backend="mp", chunk_size=1,
                faults=FaultPlan.single("kill", worker=0, after_units=1),
                max_respawns=1,
            ),
            engine_config=EngineConfig(tau_f=0, tau_u=0),
        ).run_units([[q] for q in queries])
        assert_recovered(batch, queries, expected)
        assert batch.n_chunks_retried >= 1
        assert batch.n_jumps > 0

    def test_respawned_worker_counted(self, bench):
        build, queries, expected = bench
        batch = MPExecutor(
            build.pag,
            RuntimeConfig(
                mode="naive", n_threads=2, backend="mp", chunk_size=1,
                faults=FaultPlan.single("kill", worker=0, after_units=1),
                max_respawns=1,
            ),
        ).run_units([[q] for q in queries])
        assert_recovered(batch, queries, expected)
        assert batch.n_worker_respawns == 1


class TestExceptionAndGarbage:
    @pytest.mark.parametrize("sharing", [False, True])
    def test_exception_mode(self, bench, sharing):
        build, queries, expected = bench
        cfg = EngineConfig(tau_f=0, tau_u=0) if sharing else None
        batch = MPExecutor(
            build.pag,
            RuntimeConfig(
                mode="D" if sharing else "naive", n_threads=2, backend="mp",
                chunk_size=1,
                faults=FaultPlan.single("exc", worker=0, after_units=1),
                max_respawns=1,
            ),
            engine_config=cfg,
        ).run_units([[q] for q in queries])
        assert_recovered(batch, queries, expected)
        # the traceback travelled over the pipe into the report
        assert any("InjectedFault" in e for e in batch.errors)

    @pytest.mark.parametrize("sharing", [False, True])
    def test_garbage_mode(self, bench, sharing):
        build, queries, expected = bench
        cfg = EngineConfig(tau_f=0, tau_u=0) if sharing else None
        batch = MPExecutor(
            build.pag,
            RuntimeConfig(
                mode="D" if sharing else "naive", n_threads=2, backend="mp",
                chunk_size=1,
                faults=FaultPlan.single("garbage", worker=1, after_units=1),
                max_respawns=1,
            ),
            engine_config=cfg,
        ).run_units([[q] for q in queries])
        assert_recovered(batch, queries, expected)
        assert any("garbage" in e for e in batch.errors)


class TestDeadlineAndStragglers:
    def test_hung_worker_killed_and_chunk_reassigned(self, bench):
        build, queries, expected = bench
        batch = MPExecutor(
            build.pag,
            RuntimeConfig(
                mode="naive", n_threads=2, backend="mp", chunk_size=4,
                faults=FaultPlan(
                    (FaultSpec("hang", worker=0, after_units=0, hang_s=60.0),)
                ),
                unit_timeout=0.5, max_respawns=1,
            ),
        ).run_units([[q] for q in queries])
        assert_recovered(batch, queries, expected)
        assert batch.n_chunk_retries >= 1
        # the batch must not have waited out the 60 s hang
        assert batch.makespan < 30.0
        assert any("deadline" in e for e in batch.errors)

    def test_invalid_unit_timeout_rejected(self, bench):
        build, _, _ = bench
        # The executor takes its knobs from a RuntimeConfig, which
        # refuses out-of-range values on construction.
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(n_threads=2, backend="mp", unit_timeout=0.0)
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(n_threads=2, backend="mp", max_chunk_retries=-1)
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(n_threads=2, backend="mp", max_respawns=-1)


class TestQuarantine:
    def test_poison_chunks_run_inline(self, bench):
        # Every worker dies on its first unit; after the retry budget
        # the coordinator quarantines chunks and answers them inline —
        # the batch still completes with correct answers.
        build, queries, expected = bench
        batch = MPExecutor(
            build.pag,
            RuntimeConfig(
                mode="naive", n_threads=2, backend="mp", chunk_size=8,
                faults=FaultPlan.single("kill", worker=None, after_units=0),
                max_chunk_retries=1, max_respawns=2,
            ),
        ).run_units([[q] for q in queries])
        assert_recovered(batch, queries, expected)
        assert batch.n_chunks_quarantined >= 1
        assert any(e.worker == COORDINATOR for e in batch.executions)

    def test_quarantine_with_sharing_commits_inline_entries(self, bench):
        build, queries, expected = bench
        ex = MPExecutor(
            build.pag,
            RuntimeConfig(
                mode="D", n_threads=2, backend="mp", chunk_size=8,
                faults=FaultPlan.single("kill", worker=None, after_units=0),
                max_chunk_retries=0, max_respawns=1,
            ),
            engine_config=EngineConfig(tau_f=0, tau_u=0),
        )
        jumps = JumpMap()
        batch = ex.run_units([[q] for q in queries], jumps)
        assert_recovered(batch, queries, expected)
        assert batch.n_chunks_quarantined >= 1
        # inline execution committed onto the coordinator's map
        assert jumps.n_jumps == batch.n_jumps > 0


class TestCleanRunRegressions:
    def test_clean_run_reports_no_faults(self, bench):
        build, queries, expected = bench
        batch = MPExecutor(
            build.pag,
            RuntimeConfig(mode="naive", n_threads=2, backend="mp"),
        ).run_units([[q] for q in queries])
        assert batch.n_worker_crashes == 0
        assert batch.n_chunk_retries == 0
        assert batch.n_worker_respawns == 0
        assert batch.errors == []
        assert batch.chunk_status
        assert all(s == "completed" for s in batch.chunk_status)

    def test_empty_batch_reports_zero_workers(self, bench):
        # Regression: the early-return path used to claim n_workers
        # spawned threads (vs min(n_workers, n_chunks) on the real
        # path), skewing utilisation comparisons.
        build, _, _ = bench
        batch = MPExecutor(
            build.pag,
            RuntimeConfig(mode="naive", n_threads=4, backend="mp"),
        ).run_units([])
        assert batch.n_threads == 0
        assert batch.worker_busy == []
        assert batch.utilisation == 0.0
        assert batch.chunk_status == []

    def test_worker_crash_importable_from_errors(self):
        # WorkerCrash moved to repro.errors; the old import paths and
        # the ReproError hierarchy must keep working.
        from repro.errors import ReproError
        from repro.runtime import WorkerCrash as W1
        from repro.runtime.mp import WorkerCrash as W2

        assert W1 is W2 is WorkerCrash
        assert issubclass(WorkerCrash, ReproError)
