"""Versioned on-disk warm-start snapshots.

A production service sees the *same program, slightly edited* thousands
of times, yet every process start used to begin at epoch 0: empty jump
map, every alias-matching round recomputed.  This module persists the
expensive state — the authoritative jump-map commit log in the mp epoch
:data:`~repro.core.jumpmap.DeltaEntry` wire format, keyed by the
fingerprint of the graph it was computed on — so a restart or a new
batch replays a prior session's summaries instead of rediscovering
them.  The graph is not stored: the loading session builds it from
the program.  A :class:`repro.api.Session` warms its one store,
``Session.seq``, from the artifact, and every runner of the session
(``local``, ``sim``, ``threads``, ``mp`` or ``hybrid``) runs on that
store, so one snapshot format serves them all.

File layout (one file, three sections)::

    REPROSNAP\\n                         magic
    {"format_version": 2, ...}\\n        integrity header, one JSON line
    <pickle>                            payload: fingerprint + log (+ footprints)

The header is validated **before** the payload is unpickled: wrong
magic, a future ``format_version`` or a stale ``pag_fingerprint`` (the
program changed since the snapshot) all raise
:class:`~repro.errors.SnapshotError` without touching the pickle.  The
fingerprint is a SHA-256 over a canonical encoding of the graph's
structure — node kinds, union-find representatives, names and every
inbound adjacency list — not Python's randomised ``hash``.  The
payload repeats it (format v1 pickled the graph there instead, which
the reader fingerprints), so a transplanted header is refused too.
After unpickling, every log entry's and footprint record's shape is
checked in one pass, so a corrupt one is a
:class:`~repro.errors.SnapshotError` too, never a crash mid-replay.

The summaries are rounds of the engine's one traversal (flowsTo), so
the header names no grammar; a ``grammar`` key written by earlier
writers of format v1 is ignored.

The optional ``footprints`` section carries the reverse-index records
of :mod:`repro.core.incremental` so a warmed session keeps *selective*
invalidation; without them, warmed entries are conservatively dropped
on the first edit (sound, just less selective).
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
from dataclasses import asdict, dataclass
from itertools import repeat
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.jumpmap import DeltaEntry
from repro.errors import SnapshotError
from repro.pag.extended import FinishedJump, JumpKey
from repro.pag.graph import PAG

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "FootprintData",
    "Snapshot",
    "SnapshotHeader",
    "load_snapshot",
    "pag_fingerprint",
    "save_snapshot",
]

#: First bytes of every snapshot file.
MAGIC = b"REPROSNAP\n"

#: Current writer version.  Readers accept any version ``<= FORMAT_VERSION``
#: and refuse future versions.  v2 replaced v1's pickled graph with its
#: fingerprint.
FORMAT_VERSION = 2

#: Serialised reverse-index records: jump key -> (touched rep-node ids,
#: consulted fields, consumed jump keys).  Kept as plain tuples so the
#: pickle payload has no dependency on :mod:`repro.core.incremental`.
FootprintData = Dict[JumpKey, Tuple[Tuple[int, ...], Tuple[str, ...], Tuple[JumpKey, ...]]]

#: Adjacency maps folded into the fingerprint.  Inbound edges plus the
#: global field indexes determine the outbound maps, so this covers the
#: whole traversal surface.
_FINGERPRINT_ADJ = (
    "new_in",
    "assign_in",
    "gassign_in",
    "load_in",
    "store_in",
    "param_in",
    "ret_in",
    "stores_by_field",
    "loads_by_field",
)


@dataclass(frozen=True)
class SnapshotHeader:
    """The JSON integrity header (everything checked before unpickling)."""

    format_version: int
    pag_fingerprint: str
    n_entries: int
    n_nodes: int
    n_edges: int


@dataclass(frozen=True)
class Snapshot:
    """A loaded, validated snapshot."""

    header: SnapshotHeader
    log: List[DeltaEntry]
    footprints: Optional[FootprintData]


def _digest(kinds: bytes, reps: Tuple[int, ...], names: Tuple[str, ...],
            fields: Mapping[str, Any]) -> str:
    """The :func:`pag_fingerprint` encoding; ``fields`` holds the
    :data:`_FINGERPRINT_ADJ` dicts."""
    h = hashlib.sha256()
    h.update(kinds)
    h.update(repr(reps).encode("ascii"))
    h.update(repr(names).encode("utf-8"))
    for label in _FINGERPRINT_ADJ:
        adj: Mapping[Any, Sequence[Any]] = fields[label]
        h.update(label.encode("ascii"))
        rows = sorted((k, tuple(v)) for k, v in adj.items() if v)
        h.update(repr(rows).encode("utf-8"))
    return h.hexdigest()


def pag_fingerprint(pag: PAG) -> str:
    """SHA-256 over a canonical encoding of the graph's structure.

    Deterministic across processes (no reliance on ``PYTHONHASHSEED``)
    and sensitive to exactly what the engine traverses: node kinds,
    resolved representatives, node names, and every non-empty inbound
    adjacency list (sorted by key; value order is the PAG's
    deterministic insertion order).
    """
    nodes = range(len(pag))
    return _digest(bytes(pag.kinds), tuple(map(pag.rep, nodes)),
                   tuple(map(pag.name, nodes)), vars(pag))


class _V1Graph:
    """A format-v1 payload's pickled graph, reduced to its fingerprint
    as it unpickles."""

    def __setstate__(self, state: Tuple[None, Dict[str, Any]]) -> None:
        fields = state[1]
        self.fingerprint = _digest(
            fields["_kind"], fields["_rep"], fields["_names"], fields)


class _PayloadUnpickler(pickle.Unpickler):
    """Resolves v1's pickled graph class to :class:`_V1Graph`."""

    def find_class(self, module: str, name: str) -> Any:
        if (module, name) == ("repro.pag.graph", "FrozenPAG"):
            return _V1Graph
        return super().find_class(module, name)


def save_snapshot(
    path: Union[str, Path],
    pag: PAG,
    log: Sequence[DeltaEntry],
    *,
    footprints: Optional[FootprintData] = None,
    recorder: Optional[Any] = None,
) -> SnapshotHeader:
    """Write a snapshot of ``log``, computed on ``pag``, to ``path``.

    ``log`` is a jump-map commit log as produced by
    :meth:`~repro.core.jumpmap.JumpMap.export_log`.
    Returns the written header.
    """
    entries = list(log)
    header = SnapshotHeader(
        format_version=FORMAT_VERSION,
        pag_fingerprint=pag_fingerprint(pag),
        n_entries=len(entries),
        n_nodes=pag.n_nodes,
        n_edges=pag.n_edges,
    )
    payload = {
        "fingerprint": header.pag_fingerprint,
        "log": entries,
        "footprints": dict(footprints) if footprints is not None else None,
    }
    blob = (
        MAGIC
        + json.dumps(asdict(header), sort_keys=True).encode("ascii")
        + b"\n"
        + pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    )
    out = Path(path)
    out.write_bytes(blob)
    if recorder:
        recorder.count("snapshot.bytes", len(blob))
        recorder.count("snapshot.entries_saved", len(entries))
    return header


def _is_jump_key(key: object) -> bool:
    """A ``(node, ctx, direction)`` jump key."""
    return (isinstance(key, tuple) and len(key) == 3 and isinstance(key[0], int)
            and isinstance(key[1], tuple) and isinstance(key[2], bool))


def _well_formed(entry: object) -> bool:
    """A ``("fin", key, edges)`` or ``("unf", key, steps)`` entry whose
    key is a jump key and whose edges are a tuple of
    :class:`FinishedJump`."""
    if not (isinstance(entry, tuple) and len(entry) == 3):
        return False
    tag, key, payload = entry
    if tag == "fin":
        payload_ok = isinstance(payload, tuple) and all(
            isinstance(edge, FinishedJump) for edge in payload
        )
    elif tag == "unf":
        payload_ok = isinstance(payload, int)
    else:
        return False
    return payload_ok and _is_jump_key(key)


def _well_formed_footprint(key: object, record: object) -> bool:
    """A jump key mapped to ``(nodes, fields, consumed)``: a tuple of
    ints, a tuple of strs and a tuple of jump keys."""
    return (
        _is_jump_key(key) and isinstance(record, tuple) and len(record) == 3
        and all(isinstance(part, tuple) for part in record)
        and all(map(isinstance, record[0], repeat(int)))
        and all(map(isinstance, record[1], repeat(str)))
        and all(map(_is_jump_key, record[2]))
    )


def _parse_header(raw: bytes, path: Path) -> SnapshotHeader:
    try:
        obj = json.loads(raw.decode("ascii"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"{path}: corrupt snapshot header ({exc})") from exc
    if not isinstance(obj, dict):
        raise SnapshotError(f"{path}: corrupt snapshot header (not an object)")
    try:
        header = SnapshotHeader(
            format_version=int(obj["format_version"]),
            pag_fingerprint=str(obj["pag_fingerprint"]),
            n_entries=int(obj["n_entries"]),
            n_nodes=int(obj["n_nodes"]),
            n_edges=int(obj["n_edges"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"{path}: snapshot header missing fields ({exc})") from exc
    return header


def load_snapshot(
    path: Union[str, Path],
    *,
    expect_pag: Optional[PAG] = None,
    recorder: Optional[Any] = None,
) -> Snapshot:
    """Read and validate a snapshot.

    Validation order (each failure is a :class:`SnapshotError`, mapped
    to CLI exit 2): magic -> format version -> PAG fingerprint ->
    payload integrity -> log entry and footprint shapes.
    ``expect_pag`` guards against warming a session for a *different or
    edited* program; the check runs on the header alone, so a stale
    snapshot is rejected without unpickling its payload.
    """
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {p}: {exc}") from exc
    if not data.startswith(MAGIC):
        raise SnapshotError(f"{p}: not a repro snapshot (bad magic)")
    body = data[len(MAGIC):]
    nl = body.find(b"\n")
    if nl < 0:
        raise SnapshotError(f"{p}: truncated snapshot (missing header line)")
    header = _parse_header(body[:nl], p)
    if header.format_version > FORMAT_VERSION:
        raise SnapshotError(
            f"{p}: snapshot format v{header.format_version} is newer than "
            f"this reader (v{FORMAT_VERSION}); refusing to guess"
        )
    if header.format_version < 1:
        raise SnapshotError(
            f"{p}: invalid snapshot format version {header.format_version}"
        )
    if expect_pag is not None and pag_fingerprint(expect_pag) != header.pag_fingerprint:
        raise SnapshotError(
            f"{p}: stale snapshot — PAG fingerprint mismatch (the program "
            "changed since the snapshot was saved); re-run `repro snapshot save`"
        )
    try:
        payload = _PayloadUnpickler(io.BytesIO(body[nl + 1:])).load()
    except Exception as exc:  # pickle raises a zoo of exception types
        raise SnapshotError(f"{p}: corrupt snapshot payload ({exc})") from exc
    if not isinstance(payload, dict):
        raise SnapshotError(f"{p}: corrupt snapshot payload (not a dict)")
    fingerprint = (getattr(payload.get("pag"), "fingerprint", None)
                   if header.format_version == 1 else payload.get("fingerprint"))
    log = payload.get("log")
    footprints = payload.get("footprints")
    if not isinstance(fingerprint, str) or not isinstance(log, list):
        raise SnapshotError(f"{p}: corrupt snapshot payload (bad sections)")
    if footprints is not None and not isinstance(footprints, dict):
        raise SnapshotError(f"{p}: corrupt snapshot payload (bad footprints)")
    if fingerprint != header.pag_fingerprint:
        raise SnapshotError(
            f"{p}: snapshot payload does not match its header fingerprint"
        )
    if len(log) != header.n_entries:
        raise SnapshotError(
            f"{p}: snapshot payload holds {len(log)} log entries, "
            f"header promises {header.n_entries}"
        )
    for i, entry in enumerate(log):
        if not _well_formed(entry):
            raise SnapshotError(
                f"{p}: corrupt snapshot log entry {i}: {entry!r:.80}"
            )
    for key, record in (footprints or {}).items():
        if not _well_formed_footprint(key, record):
            raise SnapshotError(
                f"{p}: corrupt snapshot footprint for {key!r:.80}: "
                f"{record!r:.80}"
            )
    if recorder:
        recorder.count("snapshot.bytes", len(data))
        recorder.count("snapshot.entries_loaded", len(log))
    return Snapshot(header=header, log=log, footprints=footprints)
