"""Tests for the consolidated configuration API:
:class:`repro.runtime.config.RuntimeConfig`, ``ParallelCFL``'s one
keyword-only constructor, and the constructor contracts of
``ParallelCFL`` and ``EngineConfig`` (retired keywords are plain
``TypeError``s).
"""

import pickle

import pytest

from repro.core import CFLEngine, EngineConfig
from repro.core.engine import FIELD_MODES
from repro.errors import AnalysisError, RuntimeConfigError
from repro.obs.timeline import TimelineRecorder
from repro.runtime import BACKENDS, MODES, ParallelCFL, RuntimeConfig
from repro.runtime.contention import CostModel
from repro.runtime.faults import FaultPlan


class TestRuntimeConfig:
    def test_defaults_match_the_paper(self):
        rt = RuntimeConfig()
        assert (rt.mode, rt.n_threads, rt.backend) == ("DQ", 16, "sim")
        assert rt.sharing and rt.scheduling
        assert rt.effective_threads == 16

    def test_mode_derived_flags(self):
        assert not RuntimeConfig(mode="seq").sharing
        assert not RuntimeConfig(mode="naive").sharing
        assert RuntimeConfig(mode="D").sharing
        assert not RuntimeConfig(mode="D").scheduling
        assert RuntimeConfig(mode="seq", n_threads=8).effective_threads == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "turbo"},
            {"backend": "gpu"},
            {"n_threads": 0},
            {"chunk_size": 0},
            {"unit_timeout": 0.0},
            {"max_chunk_retries": -1},
            {"max_respawns": -1},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(**kwargs)

    @pytest.mark.parametrize("backend", ["matrix", "hybrid"])
    def test_calling_thread_backends_use_one_worker(self, fig2, backend):
        # Both of hybrid's routes, like local, run on the calling
        # thread: the config, the batch_start event and the batch agree.
        rt = RuntimeConfig(n_threads=16, backend=backend)
        assert rt.effective_threads == 1
        b, _ = fig2
        rec = TimelineRecorder()
        batch = ParallelCFL(b, runtime=rt, recorder=rec).run()
        (start,) = rec.events_of("batch_start")
        assert start["n_workers"] == batch.n_threads == 1

    def test_frozen(self):
        rt = RuntimeConfig()
        with pytest.raises(AttributeError):
            rt.mode = "D"

    def test_with_revalidates(self):
        rt = RuntimeConfig(mode="D")
        assert rt.with_(n_threads=4).n_threads == 4
        assert rt.with_(n_threads=4).mode == "D"
        with pytest.raises(RuntimeConfigError):
            rt.with_(backend="gpu")

    def test_picklable(self):
        rt = RuntimeConfig(mode="D", backend="mp", chunk_size=3)
        assert pickle.loads(pickle.dumps(rt)) == rt

    def test_mode_and_backend_vocabularies_exported(self):
        assert set(MODES) == {"seq", "naive", "D", "DQ"}
        assert set(BACKENDS) == {
            "sim", "local", "threads", "mp", "matrix", "hybrid",
        }


class TestParallelCFLConfigAPI:
    def test_runtime_config_constructor(self, fig2):
        b, _ = fig2
        runner = ParallelCFL(
            b, runtime=RuntimeConfig(mode="D", n_threads=4)
        )
        assert runner.runtime.mode == "D"
        assert runner.runtime.effective_threads == 4
        assert runner.runtime.backend == "sim"
        batch = runner.run()
        assert batch.n_queries == len(b.pag.app_locals())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "threads"},
            {"chunk_size": 2},
            {"cost_model": CostModel()},
            {"faults": FaultPlan.single("exc", worker=0)},
            {"unit_timeout": 1.5},
            {"mode": "naive"},
            {"n_threads": 2},
            {"engine_config": EngineConfig()},
            {"schedule_config": None},
            {"schedule": None},
            {"types": None},
        ],
    )
    def test_retired_legacy_kwargs_are_type_errors(self, fig2, kwargs):
        # Runtime knobs (backend=, chunk_size=, cost_model=, faults=,
        # unit_timeout=, and the mode=/n_threads= overrides) live on
        # RuntimeConfig only; the engine config is spelled engine=, as
        # on Session.  Scheduling has no setting (schedule=), and the
        # type table comes from the program (types=).
        b, _ = fig2
        (name, _value), = kwargs.items()
        with pytest.raises(TypeError, match=name):
            ParallelCFL(b, **kwargs)

    def test_runtime_config_carries_the_retired_kwargs(self, fig2):
        # ...and the supported spelling reaches the runner's runtime
        # config.
        b, _ = fig2
        plan = FaultPlan.single("exc", worker=0)
        runner = ParallelCFL(
            b,
            runtime=RuntimeConfig(
                backend="mp", chunk_size=2, faults=plan, unit_timeout=1.5
            ),
        )
        rt = runner.runtime
        assert rt.backend == "mp"
        assert rt.chunk_size == 2
        assert rt.faults is plan
        assert rt.unit_timeout == 1.5

    def test_unknown_kwarg_is_a_type_error(self, fig2):
        b, _ = fig2
        with pytest.raises(TypeError, match="warp_drive"):
            ParallelCFL(b, warp_drive=9)

    def test_configs_are_keyword_only(self, fig2):
        b, _ = fig2
        with pytest.raises(TypeError, match="positional"):
            ParallelCFL(b, RuntimeConfig())


class TestEngineConfigPostShims:
    def test_field_mode_is_validated(self):
        for mode in FIELD_MODES:
            assert EngineConfig(field_mode=mode).field_mode == mode
        with pytest.raises(AnalysisError):
            EngineConfig(field_mode="fuzzy")

    def test_default_resolves_to_sensitive(self):
        assert EngineConfig().field_mode == "sensitive"

    def test_field_sensitive_ctor_is_a_type_error(self):
        with pytest.raises(TypeError, match="field_sensitive"):
            EngineConfig(field_sensitive=True)

    def test_faults_ctor_is_a_type_error(self):
        with pytest.raises(TypeError, match="faults"):
            EngineConfig(faults=FaultPlan.single("exc", worker=0))

    def test_field_sensitive_attribute_is_gone(self):
        with pytest.raises(AttributeError):
            EngineConfig().field_sensitive

    def test_plain_dataclass_round_trips(self):
        cfg = EngineConfig(field_mode="match", budget=7)
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        assert cfg.with_(budget=9).field_mode == "match"

    def test_config_runs(self, fig2):
        b, n = fig2
        eng = CFLEngine(b.pag, EngineConfig(field_mode="sensitive"))
        assert eng.points_to(n["s1"]).objects == {n["o_n1"]}


class TestNoDeprecatedUsageInPackage:
    def test_src_tree_is_clean(self):
        # The retired shim spellings must not reappear anywhere in the
        # package (or resurrect via copy-paste from old call sites).
        from pathlib import Path
        import repro

        pkg = Path(repro.__file__).parent
        offenders = []
        for py in pkg.rglob("*.py"):
            text = py.read_text()
            for needle in ("EngineConfig(field_sensitive",
                           "EngineConfig(faults",
                           "field_sensitive="):
                if needle in text:
                    offenders.append((py.name, needle))
        assert not offenders
