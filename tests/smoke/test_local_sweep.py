"""Tier-2 identity sweep for ``backend="local"`` on all 20 suites.

Per suite: byte-identity with SeqCFL at an unlimited budget, and
answer-for-answer identity (``exhausted`` flags included) with the
simulator at one worker at the suite's own budget, for a cold batch and
a warm second batch.  Excluded from tier-1 via the ``smoke`` marker::

    PYTHONPATH=src python -m pytest tests/smoke/test_local_sweep.py -m smoke -q
"""

import pytest

from repro.benchgen.suites import suite_names
from tests.runtime.test_local import (
    assert_local_matches_seq,
    assert_local_matches_sim_x1,
)

pytestmark = pytest.mark.smoke


@pytest.mark.parametrize("name", suite_names())
def test_suite_local_matches_seq(name):
    assert_local_matches_seq(name)


@pytest.mark.parametrize("name", suite_names())
def test_suite_local_matches_sim_x1(name):
    assert_local_matches_sim_x1(name)
