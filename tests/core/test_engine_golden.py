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

``JUMP_LOG`` pins what ``GOLDEN`` does not: the shared map's entries in
the order the rounds published them, with each finished entry's
targets in the order its round found them.  That order sets the
sweep's worklist order after a shortcut, where a finite budget cuts
off, and the rounds :class:`~repro.core.tracing.TracingEngine`
replays.  Per sample suite (its own configuration), the digest is the
sha256 of ``repr(jumps.export_log())`` after the standard workload.
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
    ("_209_db", "ci"): "f7b135ecc76cf76c1fcf3dd68268173b5beed63c91af3b368480cb7271b31c7f",
    ("_209_db", "none"): "7f0013acdf3b69fdf6510c6d6b7b916ee735410a9057b2a2c5c7097378ce7c88",
    ("_209_db", "ci+none"): "86462fb8e5c0ae5e0ba8e79c0136534d5057cc81447f6ffe8e35139453cd1ffa",
    ("batik", "suite"): "59b031b55822e06ecfea03ac67578d76a16009366aa8529ab0c8df8fc48fe319",
    ("batik", "match"): "ab193a3b6c423eaf10be04fbfbb127d36a42600b36690b9663865d0a6a841223",
    ("batik", "ci"): "89e385c58c8cc052266da8025f9deea0d10e3f3a1adb7208b46870003cb8c1e4",
    ("batik", "none"): "2751117cbb091e01b8abb3b2ffea9931a14c5c7686acdd845587008a1e7d183d",
    ("batik", "ci+none"): "2fd9b40f282c00bff898cda83d3576dd8a2f2ae231bd5fa7d6f33c2fb3f6b9b3",
    ("luindex", "suite"): "7c7c29664a8ec028607aa04a84be8c6679d865ffe3c5d904cedf2282c2617e86",
    ("luindex", "match"): "4740865cade16c669e43e4ad1453a2a7af09931f8c0e560dd2f9a692936e6a47",
    ("luindex", "ci"): "9053929a9e6f677c439de7d946886ff42f7862d6be602cc913e537321805bb1b",
    ("luindex", "none"): "0fad03bbd7cba6db2a99594b370baef6675f0e8a72c38651ac2f5db45f22d9f0",
    ("luindex", "ci+none"): "5a260b391ca67a88ac05a7a6dc960bada5202e1661ee809553d552e09239d954",
}

JUMP_LOG = {
    "_200_check": "7f5632bee28cf2c4ae6fe9d87da6f23ac0965d20b02da803c2d42e965a2029b1",
    "_209_db": "226383a41d48bef64ac8abae970b146554b854fc42537bdd3fca23a289d7817d",
    "batik": "e482606107bf054da1aecd7af100094a9636a34bca95098b7041aece6d286615",
    "luindex": "503959c84106d80495a3677bac30dbfba15e524419bd522b5338e96fc777732e",
}


def run_workload(name, variant):
    """The standard workload of ``name`` on one engine over a shared
    :class:`JumpMap`, in ``variant``: the engine and its results."""
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
    return engine, [engine.points_to(q.var, q.ctx) for q in spec.workload()]


def engine_digest(name, variant):
    _engine, results = run_workload(name, variant)
    h = hashlib.sha256()
    for r in results:
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


def jump_log_digest(name):
    engine, _results = run_workload(name, "suite")
    return hashlib.sha256(repr(engine.jumps.export_log()).encode()).hexdigest()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", SAMPLE)
def test_engine_matches_golden(name, variant):
    assert engine_digest(name, variant) == GOLDEN[(name, variant)]


@pytest.mark.parametrize("name", SAMPLE)
def test_jump_log_matches_golden(name):
    assert jump_log_digest(name) == JUMP_LOG[name]
