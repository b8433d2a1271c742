"""Property-based checks of the bulk matrix kernel on random programs.

Two invariants over the benchmark generator's program space:

* **engine equivalence** — the kernel's batch answers equal the demand
  engine's exhaustive-budget answers, state set for state set, under
  the default context-sensitive configuration;
* **Andersen equivalence** — context-insensitively, the kernel's
  object sets equal the whole-program Andersen solution (the same
  oracle the demand engine is held to).
"""

from hypothesis import HealthCheck, given, settings

from repro.andersen import AndersenSolver
from repro.core import CFLEngine, EngineConfig, Query
from repro.core.matrix import MatrixKernel

from .test_properties import build_from, small_params

UNLIMITED = 10**9

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(max_examples=20, **COMMON)
@given(small_params())
def test_matrix_equals_engine(params):
    build = build_from(params)
    cfg = EngineConfig(budget=UNLIMITED)
    engine = CFLEngine(build.pag, cfg)
    queries = [Query(v) for v in build.pag.app_locals()]
    results = MatrixKernel(build.pag, cfg).run_batch(queries)
    for q, got in zip(queries, results):
        want = engine.run_query(q)
        assert not want.exhausted
        assert got.points_to == want.points_to, build.pag.name(q.var)


@settings(max_examples=20, **COMMON)
@given(small_params())
def test_ci_matrix_equals_andersen(params):
    build = build_from(params)
    oracle = AndersenSolver(build.pag).solve()
    cfg = EngineConfig(context_sensitive=False, budget=UNLIMITED)
    kernel = MatrixKernel(build.pag, cfg)
    for var in build.pag.app_locals():
        got = kernel.points_to(var)
        assert not got.exhausted
        assert got.objects == oracle.points_to(var), build.pag.name(var)
