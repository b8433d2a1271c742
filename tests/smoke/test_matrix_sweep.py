"""Tier-2 byte-identity sweep: the matrix kernel vs SeqCFL on all 20
benchmark suites.

This is the acceptance bar of the matrix backend — exact state-set
equality at an unlimited budget, per query, per suite.
Excluded from tier-1 via the ``smoke`` marker::

    PYTHONPATH=src python -m pytest tests/smoke/test_matrix_sweep.py -m smoke -q
"""

import pytest

from repro.benchgen.suites import load_benchmark, spec_of, suite_names
from repro.core.engine import CFLEngine
from repro.core.matrix import MatrixKernel

pytestmark = pytest.mark.smoke

UNLIMITED = 10**9


@pytest.mark.parametrize("name", suite_names())
def test_suite_identical(name):
    build = load_benchmark(name)
    spec = spec_of(name)
    cfg = spec.engine_config(budget=UNLIMITED)
    queries = spec.workload()

    engine = CFLEngine(build.pag, cfg)
    results = MatrixKernel(build.pag, cfg).run_batch(queries)

    mismatches = []
    for q, got in zip(queries, results):
        want = engine.run_query(q)
        assert not want.exhausted
        if got.points_to != want.points_to:
            mismatches.append(build.pag.name(build.pag.rep(q.var)))
    assert not mismatches, (
        f"{name}: {len(mismatches)} diverging queries, "
        f"e.g. {mismatches[:5]}"
    )
