"""Grammar-conformance harness: certify engine witnesses against the
declarative flowsTo grammar, independently, via CYK.

The engine (:mod:`repro.core.engine`) *implements* a CFL-reachability
traversal; the declarative :data:`~repro.core.grammar.FLOWSTO` grammar
*specifies* it.  This harness closes the loop between the two: it
re-runs demanded queries under the
:class:`~repro.core.tracing.TracingEngine`, extracts a witness path for
every ``(variable, object)`` answer, and checks each witness string for

* **membership** — CYK (:mod:`repro.core.cfl`) accepts the terminal
  string under the grammar built for the PAG's field alphabet, and
* **realisability** — the call-string projection is in R_CS (grammar
  (3) of the paper), when the path does not cross a context-clearing
  global.

A conforming engine produces only certified witnesses; any failure is
reported with the exact terminal string so the divergence between
implementation and specification is inspectable.  The tier-1 test
suite runs the harness on a sample of benchmarks; the tier-2 smoke job
sweeps all 20 suites of Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.engine import EngineConfig
from repro.core.query import Query
from repro.core.tracing import TracingEngine
from repro.errors import AnalysisError

__all__ = [
    "ConformanceFailure",
    "ConformanceReport",
    "certify_queries",
    "certify_benchmark",
]


@dataclass(frozen=True)
class ConformanceFailure:
    """One witness the grammar refused."""

    var: int
    obj: int
    terminals: Tuple[str, ...]
    reason: str  # "rejected"


@dataclass
class ConformanceReport:
    """Outcome of one conformance run."""

    name: str
    n_queries: int = 0
    n_exhausted: int = 0
    n_witnesses: int = 0
    n_certified: int = 0
    failures: List[ConformanceFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every extracted witness was certified by CYK."""
        return not self.failures and self.n_certified == self.n_witnesses

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (
            f"{self.name}: {self.n_certified}/"
            f"{self.n_witnesses} witnesses certified over "
            f"{self.n_queries} queries ({self.n_exhausted} exhausted) "
            f"- {status}"
        )


def certify_queries(
    pag,
    queries: Sequence[Query],
    engine_config: Optional[EngineConfig] = None,
    *,
    name: str = "<adhoc>",
    max_objects_per_query: Optional[int] = None,
) -> ConformanceReport:
    """Run ``queries`` under a :class:`TracingEngine` and certify every
    reachable object's witness against the declarative flowsTo grammar.

    Exhausted queries still contribute whatever objects they found
    (their witnesses are complete derivations even when the answer set
    is not).  ``max_objects_per_query`` caps certification work on hub
    variables with huge points-to sets; the cap picks the smallest
    object ids for determinism.
    """
    engine = TracingEngine(pag, engine_config or EngineConfig())
    report = ConformanceReport(name=name)
    fields = sorted(set(pag.stores_by_field) | set(pag.loads_by_field))
    for query in queries:
        var = pag.rep(query.var)
        try:
            result = engine.points_to(var, query.ctx)
        except AnalysisError:
            report.n_queries += 1
            report.n_exhausted += 1
            continue
        report.n_queries += 1
        if result.exhausted:
            report.n_exhausted += 1
        items = sorted(result.points_to)
        if max_objects_per_query is not None:
            items = items[:max_objects_per_query]
        for obj, obj_ctx in items:
            report.n_witnesses += 1
            witness = engine.explain(var, query.ctx, obj, obj_ctx)
            if witness.certify(fields):
                report.n_certified += 1
            else:
                report.failures.append(
                    ConformanceFailure(
                        var, obj, tuple(witness.terminals()), "rejected"
                    )
                )
    return report


def certify_benchmark(
    name: str,
    *,
    n_queries: Optional[int] = 12,
    engine_config: Optional[EngineConfig] = None,
    max_objects_per_query: Optional[int] = 8,
) -> ConformanceReport:
    """Conformance-check one Table I suite entry.

    Takes the first ``n_queries`` of the benchmark's standard shuffled
    workload (None: all of it) and certifies every witness.  Uses the
    spec's engine configuration unless overridden.
    """
    from repro.benchgen.suites import load_benchmark, spec_of

    spec = spec_of(name)
    build = load_benchmark(name)
    cfg = engine_config or spec.engine_config()
    workload = spec.workload()
    if n_queries is not None:
        workload = workload[:n_queries]
    return certify_queries(
        build.pag,
        workload,
        cfg,
        name=name,
        max_objects_per_query=max_objects_per_query,
    )
