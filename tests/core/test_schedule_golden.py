"""The §III-C schedule of every suite, pinned byte for byte.

Per suite, the ``DQ`` work units of two batches are folded into one
sha256: the standard workload and all application locals.  Each unit
contributes its ``(var, ctx)`` list in issue order, its DD and its
component id, so a change to the ``direct`` relation, the CD or DD
order, or the split/merge to the mean size M moves the digest.  An
intended change re-records the table from :func:`schedule_digest`.
"""

import hashlib

import pytest

from repro.benchgen.suites import load_benchmark, spec_of, suite_names
from repro.core.query import Query
from repro.core.scheduling import schedule_queries
from repro.runtime import ParallelCFL, RuntimeConfig

GOLDEN = {
    "_200_check": "00bc66dc6475e2784e137eb82605b6178837acae41bf6acffdf7847f046fbed3",
    "_201_compress": "a62ee47deab4137748198878929fb34b004090c027b97d4dc965c8f77d010088",
    "_202_jess": "1e8177cd40684d7dd11e82ebbe2c8de9cfe8256f3e90a89e6b0e73ea28942aef",
    "_205_raytrace": "a4d2eac8740107b717af1918e240060662933154575868db35af140421b7ee04",
    "_209_db": "7295cbdc67feaa8dec0a4e2c9a3ad62721ad10c8d259bb2eccf830104897350c",
    "_213_javac": "e0eb33eb43cebae03a66ff15db70e8055688c3db37102ee370f2701640d08c91",
    "_222_mpegaudio": "56cc1191e8ce3d267806126d80ebfb578e7fe4a3540c36129e89a25c23e05fe5",
    "_227_mtrt": "d4333110a6aaf5c6f2d8d96507a30690e1a921cdce622f19b7b4037c17aa5f3c",
    "_228_jack": "7927fb1348d31510761a24ab853080c26b3a2b8b82b69422159b3f0b4500d284",
    "_999_checkit": "3b46f17151ccc4d8924214fb7fb1b5bdd5d59311f343ab1cd72e69b973f01cd4",
    "avrora": "e1db3232d16588b3c3caf0bfc9d6e20864f609435479c06e473ec7e6bdf493e6",
    "batik": "02903d09c8c9cde6f65d0752a90de178b4ebd29354749be1b0320997aa91c4bd",
    "fop": "c4f64292644eb8686d61a468d056a4768b9b16545baa782e893d258a8143ad44",
    "h2": "8519a9f5c928a64df330639108c345cf1da0770fb6b82dd865ddfca2f7b19d05",
    "luindex": "1837d3a38304274e745623852ca45de653198cc6b3754ed3e5886a939e97a0a7",
    "lusearch": "13952a51ce0709467ed89a652303f0e7335675450ba1aa58e17912f7f0818093",
    "pmd": "55892e1fa967fe04a14b6a3315f9155080ea2144fb4f5d4da26109aa7a018d09",
    "sunflow": "d4d13dfcbb4633c663cc6cd532afad1e5080d0e3858d740c0c3e94ed60bba5c6",
    "tomcat": "0edd18652c10ff3a899f8f1c53a23dcee26eb6eb009d0c782afa373649581d76",
    "xalan": "4763da31429c90678fdcfd36f046261610bacfb08c0e98a6c9661d8bdd7c97ac",
}


def _batches(name):
    build = load_benchmark(name)
    app_locals = [Query(v) for v in build.pag.app_locals()]
    return build, (spec_of(name).workload(), app_locals)


def schedule_digest(name):
    build, batches = _batches(name)
    h = hashlib.sha256()
    for queries in batches:
        for g in schedule_queries(build.pag, queries, build.program.types):
            units = [(q.var, q.ctx) for q in g.queries]
            h.update(repr((units, g.dd, g.component)).encode())
        h.update(b"|")
    return h.hexdigest()


@pytest.mark.parametrize("name", suite_names())
def test_schedule_digest(name):
    assert schedule_digest(name) == GOLDEN[name]


@pytest.mark.parametrize("name", ["_200_check", "fop", "tomcat"])
def test_runner_schedules_with_the_program_types(name):
    # A DQ runner built on a BuildResult issues exactly these units: it
    # reads the type table (the DD metric) from the program.
    build, batches = _batches(name)
    runner = ParallelCFL(build, runtime=RuntimeConfig(mode="DQ"))
    for queries in batches:
        want = schedule_queries(build.pag, queries, build.program.types)
        assert runner.work_units(queries) == [g.queries for g in want]
