"""Tests for warm-start snapshots (repro.core.snapshot).

Round-trip byte-identity, header validation order (everything rejected
before the pickle payload is touched), fingerprint determinism, format
v1 compatibility (``tests/data/taint_leak.v1.snap``, written by the v1
writer from ``examples/taint_leak.mj``), and footprint persistence (a
warmed session keeps *selective* invalidation).
"""

import json
import pickle
import shutil
from pathlib import Path

import pytest

from repro.api import Session
from repro.benchgen import load_benchmark
from repro.core import CFLEngine, EngineConfig
from repro.core.incremental import IncrementalAnalysis
from repro.core.jumpmap import JumpMap
from repro.core.snapshot import (
    FORMAT_VERSION,
    MAGIC,
    load_snapshot,
    pag_fingerprint,
    save_snapshot,
)
from repro.errors import InputError, SnapshotError
from repro.obs import MetricsRecorder
from repro.pag import PAG


REPO = Path(__file__).resolve().parents[2]
TAINT_LEAK = REPO / "examples" / "taint_leak.mj"
V1_FIXTURE = REPO / "tests" / "data" / "taint_leak.v1.snap"

#: Fingerprints as the format-v1 writer computed them.  A saved
#: snapshot is only usable while its program fingerprints the same, so
#: these must never move.
PINNED_FINGERPRINTS = {
    "taint_leak": "228d405a82b992bf3c3576e4f3e96c5ed6d30548047e32b7e1cfe5d5d61bab65",
    "_200_check": "ce89e9445d77c41a73248278f2ea3bddd425cf63348357acc5ff573cb616a122",
    "tomcat": "d6e68b6d17d140a2002a16100e539c8cb0a37c309920a83c915fe9a1b3e38792",
    "xalan": "ec358889560e97afaa288159e69b881ecaa726d276017ba6e9ece305b159be18",
}


def warm_session(b, **cfg):
    """A session with every completed round published (tau 0)."""
    session = Session.from_pag(
        b.pag, engine=EngineConfig(tau_f=0, tau_u=0, **cfg)
    )
    for var in b.pag.app_locals():
        session.points_to(var)
    return session


def fresh_session(pag, **cfg):
    return Session.from_pag(pag, engine=EngineConfig(**cfg))


class TestRoundTrip:
    def test_byte_identical_answers_after_reload(self, fig2, tmp_path):
        b, _n = fig2
        inc = warm_session(b)
        assert inc.seq.jumps.n_finished_edges > 0
        path = tmp_path / "fig2.snap"
        header = inc.snapshot(path)
        assert header.format_version == FORMAT_VERSION
        assert header.n_entries > 0

        fresh = fresh_session(b.pag, tau_f=0, tau_u=0)
        loaded = fresh.warm_from_snapshot(path)
        assert loaded == header.n_entries
        scratch = CFLEngine(b.pag, EngineConfig())
        for var in b.pag.app_locals():
            got = fresh.points_to(var)
            want = scratch.points_to(var)
            assert got.points_to == want.points_to, b.pag.name(var)

    def test_warm_run_takes_shortcuts(self, fig2, tmp_path):
        b, n = fig2
        inc = warm_session(b)
        path = tmp_path / "fig2.snap"
        inc.snapshot(path)
        fresh = fresh_session(b.pag, tau_f=0, tau_u=0)
        fresh.warm_from_snapshot(path)
        result = fresh.points_to(n["s1"])
        assert result.costs.jmp_taken > 0  # reused, not recomputed

    def test_counters_roundtrip(self, fig2, tmp_path):
        b, _n = fig2
        rec = MetricsRecorder()
        inc = Session.from_pag(
            b.pag, engine=EngineConfig(tau_f=0, tau_u=0), recorder=rec
        )
        for var in b.pag.app_locals():
            inc.points_to(var)
        path = tmp_path / "fig2.snap"
        inc.snapshot(path)
        fresh = Session.from_pag(
            b.pag, engine=EngineConfig(tau_f=0, tau_u=0), recorder=rec
        )
        fresh.warm_from_snapshot(path)
        counts = rec.snapshot()
        assert counts["snapshot.bytes"] >= 2 * path.stat().st_size
        assert counts["snapshot.entries_saved"] > 0
        assert counts["snapshot.entries_loaded"] == counts["snapshot.entries_saved"]
        assert counts["inc.entries_warmed"] == counts["snapshot.entries_loaded"]

    def test_unfinished_markers_roundtrip(self, fig2, tmp_path):
        b, n = fig2
        inc = fresh_session(b.pag, budget=10, tau_f=0, tau_u=0)
        inc.points_to(n["s1"])  # exhausts, plants markers
        assert inc.seq.jumps.n_unfinished_edges > 0
        path = tmp_path / "markers.snap"
        inc.snapshot(path)
        fresh = fresh_session(b.pag, budget=10)
        fresh.warm_from_snapshot(path)
        assert (
            fresh.seq.jumps.n_unfinished_edges
            == inc.seq.jumps.n_unfinished_edges
        )

    def test_any_lifecycle_map_can_warm(self, fig2, tmp_path):
        # The artifact is not tied to IncrementalAnalysis: a plain
        # JumpMap (and through the same interface, the threaded and mp
        # stores) replays the same log.
        b, _n = fig2
        inc = warm_session(b)
        path = tmp_path / "fig2.snap"
        header = inc.snapshot(path)
        snap = load_snapshot(path, expect_pag=b.pag)
        plain = JumpMap()
        assert plain.warm_from(snap.log) == header.n_entries
        assert plain.n_finished_edges == inc.seq.jumps.n_finished_edges


class TestValidation:
    def make_snap(self, fig2, tmp_path, name="a.snap"):
        b, _n = fig2
        inc = warm_session(b)
        path = tmp_path / name
        inc.snapshot(path)
        return b, path

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"NOTASNAP\n{}\n")
        with pytest.raises(SnapshotError, match="bad magic"):
            load_snapshot(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(tmp_path / "absent.snap")

    def _tamper_header(self, path, **patch):
        data = path.read_bytes()
        body = data[len(MAGIC):]
        nl = body.find(b"\n")
        header = json.loads(body[:nl])
        header.update(patch)
        path.write_bytes(
            MAGIC + json.dumps(header).encode() + b"\n" + body[nl + 1:]
        )

    def test_future_format_version_rejected(self, fig2, tmp_path):
        _b, path = self.make_snap(fig2, tmp_path)
        self._tamper_header(path, format_version=FORMAT_VERSION + 1)
        with pytest.raises(SnapshotError, match="newer than this reader"):
            load_snapshot(path)

    @pytest.mark.parametrize("label", ["flowsto", "taint"])
    def test_legacy_grammar_key_ignored(self, fig2, tmp_path, label):
        # Earlier writers of format v1 put a grammar id in the header;
        # their summaries come from the same traversal, so they load.
        b, path = self.make_snap(fig2, tmp_path)
        want = load_snapshot(path, expect_pag=b.pag).log
        self._tamper_header(path, grammar=label)
        assert load_snapshot(path, expect_pag=b.pag).log == want
        fresh = fresh_session(b.pag, tau_f=0, tau_u=0)
        assert fresh.warm_from_snapshot(path) == len(want)

    @pytest.mark.parametrize("entry", [
        ("zzz", (0, (), False), 3),   # unknown tag
        42,                           # not a tuple
        ("fin", (0, (), False)),      # not a 3-tuple
        ("fin", "notakey", "x"),      # key not a jump key
        ("fin", (0, [], False), ()),  # ctx not a tuple
        ("unf", (0, (), 1), 5),       # direction not a bool
        ("unf", ("0", (), True), 5),  # node not an int
        ("fin", (0, (), False), 3),   # fin payload not a tuple
        ("fin", (0, (), False), (1,)),  # fin edge not a FinishedJump
        ("unf", (0, (), False), ()),  # unf payload not an int
    ])
    def test_malformed_log_entry_rejected(self, fig2, tmp_path, entry):
        b, _n = fig2
        path = tmp_path / "bad.snap"
        save_snapshot(path, b.pag, [entry])
        with pytest.raises(SnapshotError, match="corrupt snapshot log entry 0"):
            load_snapshot(path, expect_pag=b.pag)
        fresh = fresh_session(b.pag)
        with pytest.raises(SnapshotError):
            fresh.warm_from_snapshot(path)
        assert len(fresh.seq.jumps) == 0  # nothing seeded

    @pytest.mark.parametrize("key, record", [
        (None, 5),                          # not a tuple
        (None, ("a",)),                     # not a 3-tuple
        (None, ((1,), ("f",))),             # a 2-tuple
        (None, ([1], ("f",), ())),          # nodes not a tuple
        (None, (("1",), ("f",), ())),       # node not an int
        (None, ((1,), (2,), ())),           # field not a str
        (None, ((1,), ("f",), ("k",))),     # consumed not a jump key
        ("notakey", ((1,), ("f",), ())),    # key not a jump key
    ], ids=["int", "1-tuple", "2-tuple", "nodes-list", "node-str",
            "field-int", "consumed-str", "key-str"])
    def test_malformed_footprint_rejected(self, fig2, tmp_path, key, record):
        b, _n = fig2
        inc = warm_session(b)
        footprints = inc.seq.footprints()
        assert footprints
        first = next(iter(footprints))
        if key is None:
            footprints[first] = record
        else:
            footprints[key] = record
        path = tmp_path / "bad.snap"
        save_snapshot(path, b.pag, inc.seq.jumps.export_log(),
                      footprints=footprints)
        with pytest.raises(SnapshotError, match="corrupt snapshot footprint"):
            load_snapshot(path, expect_pag=b.pag)
        fresh = fresh_session(b.pag)
        with pytest.raises(SnapshotError):
            fresh.warm_from_snapshot(path)
        assert len(fresh.seq.jumps) == 0  # nothing seeded

    def test_stale_fingerprint_rejected(self, fig2, tmp_path):
        b, path = self.make_snap(fig2, tmp_path)
        v = b.pag.add_local("late@Main.main")
        o = b.pag.add_obj("o_late")
        b.pag.add_new_edge(v, o)  # the program changed since the save
        with pytest.raises(SnapshotError, match="stale snapshot"):
            load_snapshot(path, expect_pag=b.pag)

    def test_truncated_payload_rejected(self, fig2, tmp_path):
        # Cuts inside the magic, inside the header line, right after
        # its newline, across the payload and one byte short of the
        # end, in a v1 file and a fresh v2 one.
        b, v2_path = self.make_snap(fig2, tmp_path)
        taint = Session.open(TAINT_LEAK).pag
        for pag, full in ((taint, V1_FIXTURE), (b.pag, v2_path)):
            data = full.read_bytes()
            header_end = len(MAGIC) + data[len(MAGIC):].index(b"\n")
            payload_start = header_end + 1
            cuts = {0, 1, len(MAGIC) - 1, len(MAGIC), len(MAGIC) + 1,
                    (len(MAGIC) + header_end) // 2, header_end,
                    payload_start, payload_start + 1, len(data) - 1}
            step = max(1, (len(data) - payload_start) // 8)
            cuts.update(range(payload_start, len(data), step))
            path = tmp_path / "cut.snap"
            for cut in sorted(cuts):
                path.write_bytes(data[:cut])
                with pytest.raises(SnapshotError):
                    load_snapshot(path)
                fresh = fresh_session(pag)
                with pytest.raises(SnapshotError):
                    fresh.warm_from_snapshot(path)
                assert len(fresh.seq.jumps) == 0, (full.name, cut)

    def test_entry_count_mismatch_rejected(self, fig2, tmp_path):
        _b, path = self.make_snap(fig2, tmp_path)
        self._tamper_header(path, n_entries=999)
        with pytest.raises(SnapshotError, match="header promises"):
            load_snapshot(path)

    def test_payload_fingerprint_must_match_header(self, fig2, tmp_path):
        # A header transplanted onto a different payload is caught even
        # when the caller passes no expect_pag.
        b, path = self.make_snap(fig2, tmp_path)
        other = PAG()
        other.add_local("x")
        blob = pickle.dumps(
            {"fingerprint": pag_fingerprint(other), "log": [],
             "footprints": None},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._tamper_header(path, n_entries=0)
        data = path.read_bytes()
        body = data[len(MAGIC):]
        nl = body.find(b"\n")
        path.write_bytes(MAGIC + body[: nl + 1] + blob)
        with pytest.raises(SnapshotError, match="does not match its header"):
            load_snapshot(path)

    def test_v1_payload_fingerprint_must_match_header(self, fig2, tmp_path):
        # fig2's header on the v1 fixture's payload passes the
        # expect_pag check and is refused by the payload's graph.
        b, _n = fig2
        path = tmp_path / "transplant.snap"
        shutil.copy(V1_FIXTURE, path)
        self._tamper_header(path, pag_fingerprint=pag_fingerprint(b.pag))
        for expect in (None, b.pag):
            with pytest.raises(SnapshotError,
                               match="does not match its header"):
                load_snapshot(path, expect_pag=expect)

    def test_snapshot_error_is_input_error(self):
        # CLI contract: validation failures exit 2 like unreadable input.
        assert issubclass(SnapshotError, InputError)


class TestFingerprint:
    def test_v1_fixture_loads_and_fingerprints_are_pinned(self):
        got = {"taint_leak": pag_fingerprint(Session.open(TAINT_LEAK).pag)}
        for name in ("_200_check", "tomcat", "xalan"):
            got[name] = pag_fingerprint(load_benchmark(name).pag)
        assert got == PINNED_FINGERPRINTS

        cold = Session.open(TAINT_LEAK)
        snap = load_snapshot(V1_FIXTURE, expect_pag=cold.pag)
        assert snap.header.format_version == 1
        assert snap.header.pag_fingerprint == PINNED_FINGERPRINTS["taint_leak"]
        assert len(snap.log) == 3 and snap.footprints
        warm = Session.open(TAINT_LEAK, engine=EngineConfig(tau_f=0, tau_u=0))
        assert warm.warm_from_snapshot(V1_FIXTURE) == 3
        scratch = CFLEngine(cold.pag, EngineConfig())
        hits = 0
        for var in warm.app_locals():
            result = warm.points_to(var)
            hits += result.costs.jmp_taken
            assert result.points_to == scratch.points_to(var).points_to
        assert hits > 0

    def test_sensitive_to_edges(self, fig2):
        b, n = fig2
        before = pag_fingerprint(b.pag)
        b.pag.add_assign_edge(n["s2"], n["s1"])
        assert pag_fingerprint(b.pag) != before

    def test_distinct_programs_differ(self, fig2):
        b, _n = fig2
        other = PAG()
        v = other.add_local("a")
        o = other.add_obj("o")
        other.add_new_edge(v, o)
        assert pag_fingerprint(other) != pag_fingerprint(b.pag)


class TestFootprintPersistence:
    def test_warmed_session_stays_selective(self, tmp_path):
        # Two disjoint islands, each with heap traffic so finished
        # entries are published.  After a snapshot round-trip the warmed
        # session must invalidate only the edited island.
        pag = PAG()
        nodes = {}
        for tag in ("a", "b"):
            p = pag.add_local(f"p_{tag}@M.m")
            v = pag.add_local(f"v_{tag}@M.m")
            x = pag.add_local(f"x_{tag}@M.m")
            op = pag.add_obj(f"o_base_{tag}")
            ov = pag.add_obj(f"o_val_{tag}")
            pag.add_new_edge(p, op)
            pag.add_new_edge(v, ov)
            pag.add_store_edge(p, f"f_{tag}", v)
            pag.add_load_edge(x, p, f"f_{tag}")
            nodes[tag] = (p, v, x, ov)
        inc = fresh_session(pag, tau_f=0, tau_u=0)
        for tag in ("a", "b"):
            inc.points_to(nodes[tag][2])
        path = tmp_path / "islands.snap"
        inc.snapshot(path)

        warm = fresh_session(pag, tau_f=0, tau_u=0)
        warm.warm_from_snapshot(path)
        fresh = warm.seq
        fin_before = fresh.jumps.n_finished_edges
        assert fin_before > 0
        # edit island b only: island a's warmed entries must survive
        extra = fresh.add_local("extra@M.m")
        o_new = fresh.add_obj("o_extra")
        fresh.add_new_edge(extra, o_new)
        fresh.add_store_edge(nodes["b"][0], "f_b", extra)
        assert fresh.last_edit_survived > 0
        assert fresh.jumps.n_finished_edges < fin_before
        # and both islands still answer exactly
        scratch = CFLEngine(pag, EngineConfig())
        for tag in ("a", "b"):
            x = nodes[tag][2]
            assert fresh.points_to(x).points_to == \
                scratch.points_to(x).points_to

    def test_warm_without_footprints_is_conservative(self, tmp_path):
        # A log saved without footprints (e.g. exported by a parallel
        # coordinator) still warms, but the first edge edit drops the
        # unindexed entries — sound, just less selective.
        pag = PAG()
        p = pag.add_local("p@M.m")
        v = pag.add_local("v@M.m")
        x = pag.add_local("x@M.m")
        pag.add_new_edge(p, pag.add_obj("o_base"))
        pag.add_new_edge(v, pag.add_obj("o_val"))
        pag.add_store_edge(p, "f", v)
        pag.add_load_edge(x, p, "f")
        inc = IncrementalAnalysis(pag, EngineConfig(tau_f=0, tau_u=0))
        inc.points_to(x)
        path = tmp_path / "bare.snap"
        save_snapshot(
            path, pag, inc.jumps.export_log(), footprints=None,
        )
        warm = fresh_session(pag, tau_f=0, tau_u=0)
        warm.warm_from_snapshot(path)
        fresh = warm.seq
        assert fresh.jumps.n_finished_edges > 0
        island = fresh.add_local("iso@M.m")
        iso_obj = fresh.add_obj("o_iso")
        fresh.add_new_edge(island, iso_obj)  # touches nothing warmed
        assert fresh.jumps.n_finished_edges == 0  # conservative drop
