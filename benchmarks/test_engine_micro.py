"""Wall-clock micro-benchmarks of the core components (real timings,
not simulated).  These are throughput regressions guards for the
engine, Andersen solver, scheduler, text front end and PAG
construction."""

from repro.andersen import AndersenSolver
from repro.api import RuntimeConfig, Session, parse_program
from repro.benchgen import SynthesisParams, synthesize_program
from repro.benchgen.suites import load_benchmark, spec_of
from repro.core import CFLEngine, JumpMap
from repro.core.scheduling import schedule_queries
from repro.ir.printer import program_to_source
from repro.pag import build_pag

BENCH = "_205_raytrace"


def test_bench_parse(benchmark):
    """The mini-Java front end on tomcat's printed text, validation on:
    the parse every ``Session.from_source`` runs."""
    program = load_benchmark("tomcat").program
    text = program_to_source(program)
    result = benchmark(parse_program, text)
    assert result.counts() == program.counts()


def test_bench_build_pag(benchmark):
    program = synthesize_program(SynthesisParams(seed=7, n_app_classes=6))
    result = benchmark(build_pag, program)
    assert result.pag.n_nodes > 100


def test_bench_single_query(benchmark):
    spec = spec_of(BENCH)
    build = load_benchmark(BENCH)
    engine = CFLEngine(build.pag, spec.engine_config())
    queries = spec.workload()
    heavy = max(queries, key=lambda q: engine.run_query(q).costs.work)
    result = benchmark(engine.run_query, heavy)
    assert result.costs.work > 0


def test_bench_query_batch_seq(benchmark):
    spec = spec_of(BENCH)
    build = load_benchmark(BENCH)
    queries = spec.workload()[:100]

    def run():
        engine = CFLEngine(build.pag, spec.engine_config())
        return engine.run_batch(queries)

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(results) == 100


def test_bench_query_batch_shared(benchmark):
    spec = spec_of(BENCH)
    build = load_benchmark(BENCH)
    queries = spec.workload()[:100]

    def run():
        engine = CFLEngine(build.pag, spec.engine_config(), jumps=JumpMap())
        return engine.run_batch(queries)

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(results) == 100


def alias_rounds(result):
    """The alias rounds a query ran or cut short (lookups that found no
    finished shortcut)."""
    return result.costs.jmp_lookups - result.costs.jmp_taken


def test_bench_alias_round(benchmark):
    """Tomcat's query with the most alias rounds in its standard
    workload, run in order on one engine over a shared JumpMap.  Each
    timed run starts from an empty map, so it does its rounds rather
    than take the shortcuts an earlier run published."""
    spec = spec_of("tomcat")
    pag = load_benchmark("tomcat").pag
    config = spec.engine_config()
    engine = CFLEngine(pag, config, jumps=JumpMap())
    heavy = max(spec.workload(), key=lambda q: alias_rounds(engine.run_query(q)))

    def fresh_engine():
        return (CFLEngine(pag, config, jumps=JumpMap()), heavy), {}

    result = benchmark.pedantic(CFLEngine.run_query, setup=fresh_engine, rounds=50)
    assert alias_rounds(result) > 0


def test_bench_local_batch(benchmark):
    """A cold ``local`` DQ batch of tomcat's application locals (the
    runner's default batch) on a fresh Session: the batch path that
    ``repro serve`` and ``hybrid``'s demand route take."""
    spec = spec_of("tomcat")
    build = load_benchmark("tomcat")

    def fresh_session():
        session = Session.from_build(
            build,
            runtime=RuntimeConfig(mode="DQ", backend="local"),
            engine=spec.engine_config(),
        )
        return (session,), {}

    batch = benchmark.pedantic(Session.batch, setup=fresh_session, rounds=3)
    assert batch.n_queries == len(list(build.pag.app_locals()))


def test_bench_andersen(benchmark):
    build = load_benchmark(BENCH)
    result = benchmark(lambda: AndersenSolver(build.pag).solve())
    assert result.iterations > 0


def test_bench_scheduler(benchmark):
    build = load_benchmark(BENCH)
    queries = spec_of(BENCH).workload()
    groups = benchmark(schedule_queries, build.pag, queries, build.program.types)
    assert sum(len(g) for g in groups) == len(queries)
