"""Edge cases of the obs.report renderers: empty batches, all-zero
counter maps, and deterministic tie-breaking in the hot-query ranking.
"""

from repro.core import Query
from repro.core.query import QueryCosts, QueryResult
from repro.obs.report import (
    hot_queries,
    render_hot_queries,
    render_metrics_table,
)
from repro.runtime import ParallelCFL, RuntimeConfig
from repro.runtime.results import BatchResult, QueryExecution


def _execution(var, ctx=(), start=0.0, finish=1.0, worker=0):
    result = QueryResult(
        query=Query(var, ctx), points_to=frozenset(),
        costs=QueryCosts(), exhausted=False,
    )
    return QueryExecution(result, worker, start, finish)


class TestEmptyInputs:
    def test_metrics_table_with_no_counters(self):
        assert "no counters" in render_metrics_table({})

    def test_hot_queries_empty_batch_via_executor(self, fig2):
        b, _ = fig2
        batch = ParallelCFL(b, runtime=RuntimeConfig(mode="seq")).run([])
        assert hot_queries(batch) == []
        assert "empty" in render_hot_queries(batch).lower()


class TestAllZeroCounters:
    def test_zero_values_render_not_dropped(self):
        # A zero is informative (jumps.hits == 0 on mode=naive), so the
        # table keeps the row instead of hiding it.
        table = render_metrics_table({"jumps.hits": 0, "engine.queries": 0})
        assert "jumps.hits" in table and "engine.queries" in table
        assert "[jumps]" in table and "[engine]" in table

    def test_all_zero_durations_do_not_divide_by_zero(self):
        batch = BatchResult(
            mode="seq", n_threads=1,
            executions=[_execution(5, start=0.0, finish=0.0)],
            makespan=0.0, worker_busy=[0.0],
        )
        text = render_hot_queries(batch)
        assert "node5" in text  # rendered, no ZeroDivisionError


class TestTieBreaking:
    def test_equal_durations_rank_by_var_then_ctx(self):
        # Three executions with identical durations, inserted in
        # shuffled order: the ranking must be (var, ctx)-deterministic,
        # not arrival-order.
        batch = BatchResult(
            mode="seq", n_threads=1,
            executions=[
                _execution(9, ctx=(1,)),
                _execution(3, ctx=(2,)),
                _execution(9, ctx=(0,)),
                _execution(3, ctx=(1,)),
            ],
            makespan=1.0, worker_busy=[4.0],
        )
        rows = hot_queries(batch, top=10)
        assert [(r["var"],) for r in rows] == [(3,), (3,), (9,), (9,)]
        # Same-var ties fall through to the context.
        assert [r["query"] for r in rows] == [
            "node3@1", "node3@2", "node9@0", "node9@1",
        ]

    def test_longer_duration_still_dominates_tiebreak(self):
        batch = BatchResult(
            mode="seq", n_threads=1,
            executions=[
                _execution(1, finish=1.0),
                _execution(2, finish=5.0),
            ],
            makespan=5.0, worker_busy=[6.0],
        )
        rows = hot_queries(batch, top=10)
        assert [r["var"] for r in rows] == [2, 1]
