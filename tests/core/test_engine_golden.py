"""The engine's answers and per-query costs, pinned byte for byte.

Every identity test elsewhere compares one engine path against another
engine path; these digests pin the engine itself.  Per suite of the
tier-1 sample, the whole standard workload runs in order on one
:class:`CFLEngine` over a shared :class:`JumpMap` at the suite budget,
and every result's ``(var, ctx, exhausted, sorted points_to, costs)``
is folded into one sha256.  A change to the traversal order, the
budget accounting, the jump-map protocol or any answer moves the
digest.

Three configurations are pinned: the suite's own, the Steensgaard
must-not-alias prefilter, and field-based ``match`` heap matching.  An
intended change re-records the table from :func:`engine_digest`.
"""

import dataclasses
import hashlib

import pytest

from repro.andersen.steensgaard import SteensgaardSolver
from repro.benchgen.suites import load_benchmark, spec_of
from repro.core.engine import CFLEngine
from repro.core.jumpmap import JumpMap

SAMPLE = ["_200_check", "_209_db", "batik", "luindex"]
VARIANTS = ["suite", "prefilter", "match"]

GOLDEN = {
    ("_200_check", "suite"): "64084c0e3550ac26c2f8a2d7f397f7d0dd65b0534b6113fe6fa22b908d16adbb",
    ("_200_check", "prefilter"): "d6914a80a852971010ae157244b27a5348edef8c35a8bb812d33f7958b4afd9b",
    ("_200_check", "match"): "c53f4a5c831e1ba386aa743742c7fbbd378114576c7ad9ecf4c18a4a2c3a02aa",
    ("_209_db", "suite"): "840d2e3c0415af26038c4a04b1c990628cd907ef3cf98d9a8657ec4b498ada04",
    ("_209_db", "prefilter"): "d569bd1c5631b51544880c9ba9378c305c457008952b9855733d04e09aad34eb",
    ("_209_db", "match"): "a1713930a51446d05bb8dfb30b1c913c520cfb870b51a4e7e52227766d7b10d3",
    ("batik", "suite"): "b5e6ef6667f194b746fe1799ea94d87a290907fa9004cda27b0c922d8d0311bb",
    ("batik", "prefilter"): "b5e6ef6667f194b746fe1799ea94d87a290907fa9004cda27b0c922d8d0311bb",
    ("batik", "match"): "ab193a3b6c423eaf10be04fbfbb127d36a42600b36690b9663865d0a6a841223",
    ("luindex", "suite"): "3347a611b08c2b307edcd30a0b51ffb82aed1b0299c1e01999c0e85c60584794",
    ("luindex", "prefilter"): "3347a611b08c2b307edcd30a0b51ffb82aed1b0299c1e01999c0e85c60584794",
    ("luindex", "match"): "4740865cade16c669e43e4ad1453a2a7af09931f8c0e560dd2f9a692936e6a47",
}


def engine_digest(name, variant):
    spec = spec_of(name)
    pag = load_benchmark(name).pag
    config = spec.engine_config()
    prefilter = None
    if variant == "prefilter":
        prefilter = SteensgaardSolver(pag).solve()
    elif variant == "match":
        config = config.with_(field_mode="match")
    engine = CFLEngine(pag, config, jumps=JumpMap(), prefilter=prefilter)
    h = hashlib.sha256()
    for query in spec.workload():
        r = engine.points_to(query.var, query.ctx)
        row = (
            r.query.var,
            r.query.ctx,
            r.exhausted,
            sorted(r.points_to),
            dataclasses.astuple(r.costs),
        )
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", SAMPLE)
def test_engine_matches_golden(name, variant):
    assert engine_digest(name, variant) == GOLDEN[(name, variant)]
