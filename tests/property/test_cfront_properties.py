"""Property tests for the mini-C front-end on randomly generated
programs: the storage-cell lowering must preserve the Andersen
equivalence and the soundness ordering, like the Java front-end."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.andersen import AndersenSolver
from repro.cfront import CProgramBuilder, lower_c
from repro.core import CFLEngine, EngineConfig

UNLIMITED = 10**9


def generate_c_program(seed: int, n_funcs: int, stmts_per_func: int):
    """Random, always-valid mini-C program.

    Shapes exercised: malloc chains, address-of (incl. multi-level
    pointers), deref stores/loads, copies, direct calls to earlier
    functions (no recursion — collapsing is tested separately), globals.
    """
    rng = random.Random(seed)
    b = CProgramBuilder()
    n_globals = rng.randint(0, 2)
    for g in range(n_globals):
        b.global_var(f"G{g}")
    callable_funcs = []  # (name, n_params)

    for fi in range(n_funcs):
        name = f"f{fi}"
        n_params = rng.randint(0, 2)
        params = [f"p{k}" for k in range(n_params)]
        fb = b.func(name, params)
        local_names = [f"v{k}" for k in range(4)]
        fb.local(*local_names)
        pool = params + local_names + [f"G{g}" for g in range(n_globals)]
        # make sure something is initialised
        fb.alloc(local_names[0])
        returned = False
        for _ in range(stmts_per_func):
            kind = rng.choice(
                ["alloc", "copy", "addr", "store", "load", "call", "ret"]
            )
            if kind == "alloc":
                fb.alloc(rng.choice(pool))
            elif kind == "copy":
                fb.copy(rng.choice(pool), rng.choice(pool))
            elif kind == "addr":
                fb.addr_of(rng.choice(pool), rng.choice(params + local_names))
            elif kind == "store":
                fb.store(rng.choice(pool), rng.choice(pool))
            elif kind == "load":
                fb.load(rng.choice(pool), rng.choice(pool))
            elif kind == "call" and callable_funcs:
                callee, arity = rng.choice(callable_funcs)
                args = [rng.choice(pool) for _ in range(arity)]
                result = rng.choice(pool) if rng.random() < 0.7 else None
                fb.call(callee, args, result=result)
            elif kind == "ret" and not returned:
                fb.ret(rng.choice(pool))
                returned = True
        if not returned:
            fb.ret(local_names[0])
        callable_funcs.append((name, n_params))
    return b.build()


@st.composite
def c_params(draw):
    return (
        draw(st.integers(0, 10_000)),
        draw(st.integers(1, 3)),
        draw(st.integers(2, 10)),
    )


COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestCFrontProperties:
    @settings(max_examples=25, **COMMON)
    @given(c_params())
    def test_ci_cfl_equals_andersen(self, params):
        seed, n_funcs, stmts = params
        build = lower_c(generate_c_program(seed, n_funcs, stmts))
        oracle = AndersenSolver(build.pag).solve()
        engine = CFLEngine(
            build.pag, EngineConfig(context_sensitive=False, budget=UNLIMITED)
        )
        for var in build.pag.variables():
            got = engine.points_to(var)
            assert not got.exhausted
            assert got.objects == oracle.points_to(var), build.pag.name(var)

    @settings(max_examples=20, **COMMON)
    @given(c_params())
    def test_cs_refines_and_is_sound(self, params):
        seed, n_funcs, stmts = params
        build = lower_c(generate_c_program(seed, n_funcs, stmts))
        oracle = AndersenSolver(build.pag).solve()
        cs = CFLEngine(build.pag, EngineConfig(budget=UNLIMITED))
        for var in list(build.pag.variables())[:30]:
            assert cs.points_to(var).objects <= oracle.points_to(var)

    @settings(max_examples=15, **COMMON)
    @given(c_params())
    def test_generator_is_deterministic(self, params):
        seed, n_funcs, stmts = params
        a = lower_c(generate_c_program(seed, n_funcs, stmts))
        b = lower_c(generate_c_program(seed, n_funcs, stmts))
        assert a.pag.n_nodes == b.pag.n_nodes
        assert a.pag.n_edges == b.pag.n_edges
