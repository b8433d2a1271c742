"""The engine's answers and per-query costs, pinned byte for byte.

Every identity test elsewhere compares one engine path against another
engine path; these digests pin the engine itself.  Per suite of the
tier-1 sample, the whole standard workload runs in order on one
:class:`CFLEngine` over a shared :class:`JumpMap` at the suite budget,
and every result's ``(var, ctx, exhausted, sorted points_to, costs)``
is folded into one sha256.  A change to the traversal order, the
budget accounting, the jump-map protocol or any answer moves the
digest.

Five configurations are pinned: the suite's own, field-based
``match`` heap matching, and the three runs that change which legs the sweep compiles: context-
insensitive (``ci``: call edges keep the call string), field-
insensitive (``none``: no alias round) and both (``ci+none``).  An
intended change re-records the table from :func:`engine_digest`.
"""

import dataclasses
import hashlib

import pytest

from repro.benchgen.suites import load_benchmark, spec_of
from repro.core.engine import CFLEngine
from repro.core.jumpmap import JumpMap

SAMPLE = ["_200_check", "_209_db", "batik", "luindex"]
VARIANTS = ["suite", "match", "ci", "none", "ci+none"]

GOLDEN = {
    ("_200_check", "suite"): "64084c0e3550ac26c2f8a2d7f397f7d0dd65b0534b6113fe6fa22b908d16adbb",
    ("_200_check", "match"): "c53f4a5c831e1ba386aa743742c7fbbd378114576c7ad9ecf4c18a4a2c3a02aa",
    ("_200_check", "ci"): "eb0db22de1e8d141c308cc3446b1613623e5a9c732ae89c6363d4dcf68720497",
    ("_200_check", "none"): "24efeac504d160080787fab7c517f766926d4cdd7c20860db536428468272e63",
    ("_200_check", "ci+none"): "d4b6eff929ad8e6d1d039976ef4c347d31684f985a1a418312b67c4e208cef9f",
    ("_209_db", "suite"): "840d2e3c0415af26038c4a04b1c990628cd907ef3cf98d9a8657ec4b498ada04",
    ("_209_db", "match"): "a1713930a51446d05bb8dfb30b1c913c520cfb870b51a4e7e52227766d7b10d3",
    ("_209_db", "ci"): "f046f1f8e69a1061c602223eac4c64b7b9ab05f5e54cbd97bb504db6d69c6085",
    ("_209_db", "none"): "7f0013acdf3b69fdf6510c6d6b7b916ee735410a9057b2a2c5c7097378ce7c88",
    ("_209_db", "ci+none"): "86462fb8e5c0ae5e0ba8e79c0136534d5057cc81447f6ffe8e35139453cd1ffa",
    ("batik", "suite"): "b5e6ef6667f194b746fe1799ea94d87a290907fa9004cda27b0c922d8d0311bb",
    ("batik", "match"): "ab193a3b6c423eaf10be04fbfbb127d36a42600b36690b9663865d0a6a841223",
    ("batik", "ci"): "89e385c58c8cc052266da8025f9deea0d10e3f3a1adb7208b46870003cb8c1e4",
    ("batik", "none"): "2751117cbb091e01b8abb3b2ffea9931a14c5c7686acdd845587008a1e7d183d",
    ("batik", "ci+none"): "2fd9b40f282c00bff898cda83d3576dd8a2f2ae231bd5fa7d6f33c2fb3f6b9b3",
    ("luindex", "suite"): "3347a611b08c2b307edcd30a0b51ffb82aed1b0299c1e01999c0e85c60584794",
    ("luindex", "match"): "4740865cade16c669e43e4ad1453a2a7af09931f8c0e560dd2f9a692936e6a47",
    ("luindex", "ci"): "3b28cb7e7064e65ad7608745c90ac0f49e23685f3618481049f9fa96d485890f",
    ("luindex", "none"): "0fad03bbd7cba6db2a99594b370baef6675f0e8a72c38651ac2f5db45f22d9f0",
    ("luindex", "ci+none"): "5a260b391ca67a88ac05a7a6dc960bada5202e1661ee809553d552e09239d954",
}


def engine_digest(name, variant):
    spec = spec_of(name)
    pag = load_benchmark(name).pag
    config = spec.engine_config()
    if variant == "match":
        config = config.with_(field_mode="match")
    if variant in ("ci", "ci+none"):
        config = config.with_(context_sensitive=False)
    if variant in ("none", "ci+none"):
        config = config.with_(field_mode="none")
    engine = CFLEngine(pag, config, jumps=JumpMap())
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
