"""Benchmark inputs: program text, seeded draws and withheld edits.

Every input is a pure function of the workload seed, so one seed always
gives the same programs, orders, request draws and edit samples.  The
programs themselves are the fixed Table I suite (``repro.benchgen``)
rendered to mini-Java text with the repository's own printer; the seed
only decides orders, request targets and which statements are edited.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

from repro.api import BuildResult, build_pag, parse_program, spec_of
from repro.benchgen.synthesis import synthesize_program
from repro.ir.printer import program_to_source
from repro.ir.statements import Assign, Load, Store

#: Hybrid-backend programs: the twelve suites whose batches stay below
#: the router's bulk crossover (1000 queries) plus the two cheapest
#: above it, so one pass exercises both sides of the size choice.  The
#: other six bulk-routed suites cost 1.6-6.5 s each per cold batch and
#: would leave too few repetitions in one run.
HYBRID_PROGRAMS = (
    "_200_check", "_201_compress", "_202_jess", "_205_raytrace", "_209_db",
    "_222_mpegaudio", "_227_mtrt", "_228_jack", "_999_checkit", "avrora",
    "luindex", "sunflow", "lusearch", "xalan",
)
SERVE_PROGRAM = "tomcat"
EDIT_PROGRAMS = ("tomcat", "_213_javac")
#: Statements withheld per edited program (replayed one per transaction).
EDITS_PER_PROGRAM = 250
#: Zipf exponent of the serve workload's target popularity.  Below 1 so
#: that no single target carries a large share of the requests, whose
#: budget outcome would then swing ``decided_frac`` from seed to seed.
ZIPF_S = 0.5

#: Small programs for the benchmark's own tests (``--tiny``).
TINY_PROGRAMS = ("_200_check", "_999_checkit")


@dataclass(frozen=True)
class ProgramText:
    """One suite program as the text a user would hand to ``repro``."""

    name: str
    text: str
    budget: int


def load_program(name: str) -> Tuple[ProgramText, BuildResult, str]:
    """Suite ``name`` as text, that text parsed and lowered, and a
    round-trip complaint ("" when none): the printed text must lower to
    the same node, edge and application-local counts as the IR."""
    spec = spec_of(name)
    program = synthesize_program(spec.params)
    text = program_to_source(program)
    printed = build_pag(parse_program(text))
    counts = [(p.n_nodes, p.n_edges, len(p.app_locals()))
              for p in (build_pag(program).pag, printed.pag)]
    problem = "" if counts[0] == counts[1] else f"{name}: {counts[0]} != {counts[1]}"
    return ProgramText(name, text, spec.budget), printed, problem


def round_trip_mismatches(names: Sequence[str]) -> List[str]:
    """Round-trip complaints of the named suites."""
    return [problem for problem in (load_program(n)[2] for n in names) if problem]


def rng_for(*parts: object) -> random.Random:
    """A generator seeded by the joined parts (stable across runs)."""
    return random.Random(":".join(str(p) for p in parts))


def pass_order(seed: int, workload: str, index: int, names: Sequence[str]) -> List[str]:
    """Program order of one measured pass: a fresh shuffle per pass, so
    a slow host phase lands on different programs each time."""
    order = list(names)
    rng_for(workload, seed, "pass", index).shuffle(order)
    return order


def query_order(seed: int, workload: str, index: int, name: str, n: int) -> List[int]:
    """Issue order of a program's ``n`` application locals in one pass."""
    order = list(range(n))
    rng_for(workload, seed, "queries", index, name).shuffle(order)
    return order


def zipf_draws(seed: int, targets: Sequence[str], n: int) -> List[str]:
    """``n`` request targets: a seeded popularity ranking of ``targets``
    sampled with Zipf(``ZIPF_S``) weights."""
    ranked = sorted(targets)
    rng = rng_for("serve", seed)
    rng.shuffle(ranked)
    cum = list(accumulate(1.0 / (k ** ZIPF_S) for k in range(1, len(ranked) + 1)))
    return rng.choices(ranked, cum_weights=cum, k=n)


# ----------------------------------------------------------------------
# edit_session: withheld statements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Edit:
    """One withheld statement, replayed as a PAG edge.

    ``kind`` is ``assign`` (``dst = src``), ``load`` (``dst = src.field``)
    or ``store`` (``dst.field = src``); ``dst`` is the edit's target
    variable, the one whose points-to set the transaction traces.
    """

    program: str
    method: str
    kind: str
    dst: str
    src: str
    field: str = ""

    def spec(self, var: str) -> str:
        return f"{var}@{self.method}"


@dataclass(frozen=True)
class EditProgram:
    """A program with some statements withheld from its text."""

    name: str
    budget: int
    full_text: str
    text: str
    edits: Tuple[Edit, ...]


def _eligible(name: str, program) -> List[Tuple[int, Edit]]:
    """App-code assign/load/store statements of suite ``name`` over
    reference-typed locals only (no globals), with their source lines,
    in program order."""
    types = program.types
    out = []
    for method in program.methods():
        if not method.is_app:
            continue
        qname = method.qualified_name

        def ref(var: str) -> bool:
            local = method.locals.get(var)
            return local is not None and types.resolve(local.type_name).is_reference

        def ref_field(base: str, field: str) -> bool:
            return types.field_type(method.locals[base].type_name, field).is_reference

        for stmt in method.body:
            if type(stmt) is Assign and ref(stmt.target) and ref(stmt.source):
                edit = Edit(name, qname, "assign", stmt.target, stmt.source)
            elif (type(stmt) is Load and ref(stmt.target) and ref(stmt.base)
                  and ref_field(stmt.base, stmt.field)):
                edit = Edit(name, qname, "load", stmt.target, stmt.base, stmt.field)
            elif (type(stmt) is Store and ref(stmt.base) and ref(stmt.source)
                  and ref_field(stmt.base, stmt.field)):
                edit = Edit(name, qname, "store", stmt.base, stmt.source, stmt.field)
            else:
                continue
            out.append((stmt.loc, edit))
    return out


def edit_program(name: str, seed: int, k: int) -> EditProgram:
    """Withhold a seeded sample of ``k`` eligible statements of suite
    ``name`` from its text.

    The sample is systematic: every ``len/k``-th eligible statement in
    program order from a seeded offset, so each sample spreads over all
    classes and methods alike and the work per transaction varies less
    from seed to seed than under simple random sampling."""
    base = load_program(name)[0]
    eligible = _eligible(name, parse_program(base.text))
    step = len(eligible) / k
    offset = rng_for("edit", seed, name).uniform(0, step)
    chosen = [eligible[int(offset + i * step)] for i in range(k)]
    drop = {line for line, _ in chosen}
    lines = base.text.splitlines(keepends=True)
    text = "".join(line for i, line in enumerate(lines, 1) if i not in drop)
    return EditProgram(name, base.budget, base.text, text, tuple(e for _, e in chosen))


def edit_plan(seed: int, names: Sequence[str], k: int) -> Tuple[Dict[str, EditProgram], List[Edit]]:
    """The edited programs and their edits interleaved in a seeded
    transaction order."""
    programs = {n: edit_program(n, seed, k) for n in names}
    order = [e for p in programs.values() for e in p.edits]
    rng_for("edit", seed, "order").shuffle(order)
    return programs, order
