"""End-to-end integration tests across every subsystem.

These walk the full production pipeline — text → IR → validation →
call graph → PAG → scheduling → parallel batch → statistics →
witnesses — plus cross-front-end and cross-engine consistency.
"""

import pytest

from repro import (
    AndersenSolver,
    CFLEngine,
    EngineConfig,
    ParallelCFL,
    Query,
    RuntimeConfig,
    SteensgaardSolver,
    TracingEngine,
    build_pag,
    parse_program,
    schedule_queries,
)
from repro.benchgen import SynthesisParams, synthesize_program
from repro.cfront import lower_c, parse_c
from repro.core.refinement import RefinementDriver
from repro.ir.printer import program_to_source


@pytest.fixture(scope="module")
def pipeline_build():
    program = synthesize_program(
        SynthesisParams(seed=99, n_app_classes=3, methods_per_app_class=2,
                        actions_per_method=6)
    )
    return build_pag(program)


class TestFullPipeline:
    def test_parse_schedule_run_report(self, pipeline_build):
        build = pipeline_build
        queries = [Query(v) for v in build.pag.app_locals()]
        groups = schedule_queries(build.pag, queries, build.program.types)
        assert sum(len(g) for g in groups) == len(queries)

        seq = ParallelCFL(
            build,
            runtime=RuntimeConfig(mode="seq"),
            engine=EngineConfig(budget=5000),
        ).run(queries)
        dq = ParallelCFL(
            build,
            runtime=RuntimeConfig(mode="DQ", n_threads=8),
            engine=EngineConfig(budget=5000),
        ).run(queries)
        assert dq.n_queries == seq.n_queries
        assert dq.speedup_over(seq) > 1.0
        # every completed DQ answer equals the sequential answer
        seq_map = seq.points_to_map()
        for e in dq.executions:
            if not e.result.exhausted:
                key = (e.result.query.var, e.result.query.ctx)
                assert e.result.objects == seq_map[key]

    def test_three_oracles_agree(self, pipeline_build):
        """CFL(ci) == Andersen; CFL(cs) ⊆ both; Steensgaard ⊇ Andersen."""
        build = pipeline_build
        andersen = AndersenSolver(build.pag).solve()
        steens = SteensgaardSolver(build.pag).solve()
        ci = CFLEngine(build.pag, EngineConfig(context_sensitive=False, budget=10**9))
        cs = CFLEngine(build.pag, EngineConfig(budget=10**9))
        for var in build.pag.app_locals()[:30]:
            a = andersen.points_to(var)
            assert ci.points_to(var).objects == a
            assert cs.points_to(var).objects <= a
            for obj in a:
                assert steens.same_class(var, obj)

    def test_roundtrip_through_printer_preserves_analysis(self, pipeline_build):
        build = pipeline_build
        src = program_to_source(build.program)
        build2 = build_pag(parse_program(src))
        e1 = CFLEngine(build.pag, EngineConfig(budget=10**9))
        e2 = CFLEngine(build2.pag, EngineConfig(budget=10**9))
        for var in build.pag.app_locals()[:15]:
            var2 = build2.pag.rep(build2.pag.node_id(build.pag.name(var)))
            names1 = {build.pag.name(o) for o in e1.points_to(var).objects}
            names2 = {build2.pag.name(o) for o in e2.points_to(var2).objects}
            assert names1 == names2

    def test_witnesses_for_pipeline_answers(self, pipeline_build):
        build = pipeline_build
        eng = TracingEngine(build.pag)
        certified = 0
        for var in build.pag.app_locals()[:12]:
            res = eng.points_to(var)
            if res.exhausted:
                continue
            for obj, ctx in res.points_to:
                assert eng.explain(var, (), obj, ctx).certify()
                certified += 1
        assert certified >= 3

    def test_refinement_agrees_with_direct(self, pipeline_build):
        build = pipeline_build
        driver = RefinementDriver(build.pag, EngineConfig(budget=10**9))
        direct = CFLEngine(build.pag, EngineConfig(budget=10**9))
        for var in build.pag.app_locals()[:20]:
            ans = driver.points_to(var)
            assert ans.result.points_to == direct.points_to(var).points_to


class TestCrossFrontEnd:
    """The same store/load/call structure through both front-ends must
    produce isomorphic answers."""

    JAVA = """
    class Cell { field v: Object
      method put(x: Object) { this.v = x }
      method take(): Object { var r: Object \n r = this.v \n return r }
    }
    class M { static method main() {
        var c: Cell \n var a: Object \n var out: Object
        c = new Cell \n a = new Object
        c.put(a) \n out = c.take()
    } }
    """

    C = """
    func put(cell, x) { *cell = x }
    func take(cell) { var r \n r = *cell \n return r }
    func main() {
      var c, a, out, slot
      c = &slot
      a = alloc()
      put(c, a)
      out = take(c)
    }
    """

    def test_both_find_the_flow(self):
        jb = build_pag(parse_program(self.JAVA))
        je = CFLEngine(jb.pag, EngineConfig(budget=10**9))
        j_out = je.points_to(jb.var("out", "M.main")).objects
        assert {jb.pag.name(o) for o in j_out} == {"o:M.main:1"}

        cb = lower_c(parse_c(self.C))
        ce = CFLEngine(cb.pag, EngineConfig(budget=10**9))
        c_out = ce.points_to(cb.value_node("out", "main")).objects
        assert {cb.pag.name(o) for o in c_out} == {"heap:main:0"}

    def test_sharing_works_on_both(self):
        from repro.core import JumpMap

        for build, qvar in (
            (build_pag(parse_program(self.JAVA)), None),
            (lower_c(parse_c(self.C)), None),
        ):
            eng = CFLEngine(
                build.pag, EngineConfig(budget=10**9, tau_f=0, tau_u=0),
                jumps=JumpMap(),
            )
            for var in build.pag.app_locals():
                eng.points_to(var)
            assert eng.jumps.n_jumps >= 0  # exercised without error
