"""The bulk matrix kernel against the demand engine, byte for byte.

The matrix backend's contract is *exact* equality with SeqCFL at an
unlimited budget — same ``points_to`` state sets, same context
handling, for every heap-precision mode.
These are the tier-1 checks (hand programs + a small benchmark
sample); the full 20-suite sweep is tier-2
(``tests/smoke/test_matrix_sweep.py``).
"""

import pytest

from repro import build_pag, parse_program
from repro.benchgen.suites import load_benchmark, spec_of
from repro.core.engine import CFLEngine, EngineConfig
from repro.core.matrix import MatrixKernel
from repro.core.query import Query
from repro.core.scheduling import DEFAULT_BULK_CROSSOVER
from repro.errors import AnalysisError
from repro.runtime.config import RuntimeConfig
from repro.runtime.executor import ParallelCFL

UNLIMITED = 10**9

BOX_SRC = """
class Box {
  field item: Object
  method put(v: Object) {
    this.item = v
  }
  method get(): Object {
    var r: Object
    r = this.item
    return r
  }
}
class Main {
  static method main() {
    var b: Box
    var v: Object
    var got: Object
    b = new Box
    v = new Object
    b.put(v)
    got = b.get()
  }
}
"""

#: Tier-1 benchmark sample: the two smallest suites.
SAMPLE = ["_200_check", "_999_checkit"]


@pytest.fixture(scope="module")
def box_build():
    return build_pag(parse_program(BOX_SRC))


def assert_identical(pag, cfg, queries=None):
    """Every query answered by the kernel equals the exhaustive-budget
    demand engine's answer, state set for state set."""
    if queries is None:
        queries = [Query(v) for v in pag.app_locals()]
    engine = CFLEngine(pag, cfg)
    kernel = MatrixKernel(pag, cfg)
    results = kernel.run_batch(queries)
    assert len(results) == len(queries)
    for q, got in zip(queries, results):
        want = engine.run_query(q)
        assert not want.exhausted, "oracle must be exact — raise the budget"
        assert not got.exhausted
        assert got.points_to == want.points_to, pag.name(pag.rep(q.var))


def test_box_identical(box_build):
    assert_identical(box_build.pag, EngineConfig(budget=UNLIMITED))


def test_fig2_context_sensitivity(fig2_build):
    # The paper's running example: the kernel must keep s1 -> o16 and
    # NOT merge in o20 (that merge is the context-insensitive answer).
    pag = fig2_build.pag
    cfg = EngineConfig(budget=UNLIMITED)
    assert_identical(pag, cfg)
    cfg_ci = EngineConfig(budget=UNLIMITED, context_sensitive=False)
    assert_identical(pag, cfg_ci)
    s1 = next(v for v in pag.app_locals() if pag.name(v) == "s1@Main.main")
    cs = MatrixKernel(pag, cfg).points_to(s1)
    ci = MatrixKernel(pag, cfg_ci).points_to(s1)
    assert cs.objects < ci.objects


@pytest.mark.parametrize("field_mode", ["sensitive", "match", "none"])
def test_box_field_modes(box_build, field_mode):
    cfg = EngineConfig(budget=UNLIMITED, field_mode=field_mode)
    assert_identical(box_build.pag, cfg)


@pytest.mark.parametrize("name", SAMPLE)
def test_benchmark_sample_identical(name):
    build = load_benchmark(name)
    cfg = spec_of(name).engine_config(budget=UNLIMITED)
    assert_identical(build.pag, cfg, spec_of(name).workload())


def test_repeated_batches_and_new_seeds(box_build):
    # A second batch reuses the closed fixpoint; a query over a node
    # first seen later still gets the exact answer.
    pag = box_build.pag
    cfg = EngineConfig(budget=UNLIMITED)
    queries = [Query(v) for v in pag.app_locals()]
    kernel = MatrixKernel(pag, cfg)
    first = kernel.run_batch(queries[:1])
    again = kernel.run_batch(queries)
    assert first[0].points_to == again[0].points_to
    engine = CFLEngine(pag, cfg)
    for q, got in zip(queries, again):
        assert got.points_to == engine.run_query(q).points_to


def test_non_variable_query_rejected(box_build):
    pag = box_build.pag
    kernel = MatrixKernel(pag, EngineConfig(budget=UNLIMITED))
    obj = next(iter(pag.objects()))
    with pytest.raises(AnalysisError, match="not a variable"):
        kernel.points_to(obj)


class TestExecutorIntegration:
    def test_matrix_backend_matches_sim(self, box_build):
        cfg = EngineConfig(budget=UNLIMITED)
        seq = ParallelCFL(
            box_build.pag, runtime=RuntimeConfig(mode="seq"), engine=cfg
        ).run()
        mat = ParallelCFL(
            box_build.pag,
            runtime=RuntimeConfig(mode="DQ", backend="matrix"),
            engine=cfg,
        ).run()
        assert mat.points_to_map() == seq.points_to_map()
        assert mat.n_queries == seq.n_queries

    @pytest.mark.parametrize(
        "n_queries,expect_counter",
        [
            (DEFAULT_BULK_CROSSOVER, "matrix.routed_bulk"),
            (DEFAULT_BULK_CROSSOVER - 1, "matrix.routed_demand"),
        ],
    )
    def test_hybrid_routes_by_batch_size(
        self, box_build, n_queries, expect_counter
    ):
        from repro.obs import MetricsRecorder

        app_locals = box_build.pag.app_locals()
        queries = [Query(app_locals[i % len(app_locals)]) for i in range(n_queries)]
        cfg = EngineConfig(budget=UNLIMITED)
        seq = ParallelCFL(
            box_build.pag, runtime=RuntimeConfig(mode="seq"), engine=cfg
        ).run(queries)
        rec = MetricsRecorder()
        batch = ParallelCFL(
            box_build.pag,
            runtime=RuntimeConfig(backend="hybrid", n_threads=2),
            engine=cfg,
            recorder=rec,
        ).run(queries)
        assert batch.points_to_map() == seq.points_to_map()
        assert batch.metrics.get(expect_counter) == 1

    def test_matrix_counters_recorded(self, box_build):
        from repro.obs import MetricsRecorder

        rec = MetricsRecorder()
        batch = ParallelCFL(
            box_build.pag,
            runtime=RuntimeConfig(backend="matrix"),
            engine=EngineConfig(budget=UNLIMITED),
            recorder=rec,
        ).run()
        for key in ("matrix.states", "matrix.edges",
                    "matrix.fixpoint_rounds", "matrix.word_ops"):
            assert batch.metrics.get(key, 0) > 0, key
        assert any(k.startswith("matrix.nnz.") for k in batch.metrics)
