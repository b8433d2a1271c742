"""The lowered PAG of every suite and example program, pinned byte for
byte.

``tests/pag/test_build.py`` checks what the lowering means; this table
pins exactly what :func:`~repro.pag.build.build_pag` produces, so a
rewrite of the graph's insertion or collapse code cannot drift unseen.

``GOLDEN`` holds, per suite of Table I and per example program, the
sha256 of its PAG after lowering the parse of its printed text: the
node kinds, representatives and names, ``n_edges``, and every
``*_in``/``*_out`` adjacency dict and both ``*_by_field`` dicts with
their keys and entries in insertion order.  The traversal sweeps read
those orders (FLOWSTO reads the ``*_out`` dicts), which
:func:`~repro.core.snapshot.pag_fingerprint` leaves out.  An intended
change re-records the table from :func:`pag_digest`.
"""

import hashlib
from pathlib import Path

import pytest

from repro.benchgen import synthesize_program
from repro.benchgen.suites import spec_of, suite_names
from repro.ir import parse_program
from repro.ir.printer import program_to_source
from repro.pag import build_pag
from repro.pag.edges import EdgeKind

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: Every adjacency dict, inbound then outbound per kind, then the two
#: global field indexes.
DICTS = tuple(
    f"{kind.name.lower()}_{side}" for kind in EdgeKind for side in ("in", "out")
) + ("stores_by_field", "loads_by_field")

GOLDEN = {
    "_200_check": "444019fbd4c7f5354eb76e99b8ef45125dab5017b55c11b22895f089837a8475",
    "_201_compress": "b9cfc35b09d55d5234d9b39a2bc62d7b18fec4b42a7f1d31d028db5fa62b54f6",
    "_202_jess": "6502cd6ed49e2515a648e392b7b7b74c38e5f07020779d6a802b063be47fb147",
    "_205_raytrace": "f6ef35df620b015b5d4974395f4e522c179a7851cb13149b5dd32d99310cd05b",
    "_209_db": "e97fa7114ae10aabd1774ec0725c54b9163ed1cae561be119a95e35f660d25e7",
    "_213_javac": "042c83cca80b815676119293c19c2a8d70a29ff7b2abaa572c17dd95f8d8b4b3",
    "_222_mpegaudio": "3cb4bdf6c547af386ea5079e118c5796e079ca452bde89bb0a4cd2ef6487ce6d",
    "_227_mtrt": "2533c3ae8e03d4759b872d3da701e11567dcec2f2401a7d33f57b1a4ae23dcbe",
    "_228_jack": "5380035446bb82a9e27f51cb44c3df4629709f0e399624213ed8a3ef3c01639d",
    "_999_checkit": "9775c95792baffa6f66ea54e2645fe55c96a8b60c949c8c3e70e8c62ed9bb890",
    "avrora": "8d163e455fa5f2b38a529c05e79e6eb17a679f9f856a7006781ebf88251c132d",
    "batik": "de9f8c2095de89f1a5e31577e4b7d75f29a5d4e860e49a6bceb1d890784a7c71",
    "fop": "9345f436c42f5694f2fd78c15ff891540ad4764115ad81a173d49de4bfdafca9",
    "h2": "b8eacc9314587f6b6e2f00c9ae77fcf4e9b6827fec73f90e9f4eb735a5eb0265",
    "luindex": "d1f2f86434c1a87ba8759e6408f868ea3ddffb7f0b60898be3c5f852256f2bcd",
    "lusearch": "86a606a2aa3d72648bbb3f2fd92e72ffeabe325cb99ef78cfa8e9c8bf6f713dc",
    "pmd": "58d0520aa3e397a6cb1b57e0091be2bb54971c86af9aa0dc3caa09d170dd7946",
    "sunflow": "98b2411bb5865c2128db5a04e8bdd81b60f356748522bfd675eb14b4bf5c5f44",
    "tomcat": "55a0d14220f12719f6a6ecc63b1692ad1127d865fb63aa230cec6815b75dcb1d",
    "xalan": "72cb83a08a6993be74fc5525197fabdac963bc9737ad2f8719bfaf7e0ac50857",
    "account_race.mj": "becd487f0abfce9098ddfc8249effb92978f16225254e4c992015057ca7a9c07",
    "box_clean.mj": "916b77ba513936975ae2c8dce35072127b19b8a62ba02439157d2e9c88cd0547",
    "escape_pool.mj": "fb5615edb26c4aa32065285875baa11cbd78cf999c6365f0809022d85ffcbbdb",
    "taint_leak.mj": "3bc87b6946932687afa5c7db24740f4d484226e1216f7135f2c2fab2ef1513d5",
}


def pag_digest(pag):
    """sha256 of the graph's nodes, edge count and ordered adjacency."""
    digest = hashlib.sha256()

    def add(item):
        digest.update(repr(item).encode())
        digest.update(b"\n")

    nodes = range(len(pag))
    add(bytes(pag.kinds))
    add([pag.rep(n) for n in nodes])
    add([pag.name(n) for n in nodes])
    add(pag.n_edges)
    for name in DICTS:
        add((name, list(getattr(pag, name).items())))
    return digest.hexdigest()


def source_of(name):
    if name.endswith(".mj"):
        return (EXAMPLES / name).read_text()
    return program_to_source(synthesize_program(spec_of(name).params))


def test_golden_covers_every_suite_and_example():
    names = suite_names() + sorted(p.name for p in EXAMPLES.glob("*.mj"))
    assert sorted(GOLDEN) == sorted(names)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pag_digest(name):
    assert pag_digest(build_pag(parse_program(source_of(name))).pag) == GOLDEN[name]
