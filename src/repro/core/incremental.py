"""Incremental (add-only) analysis sessions with selective invalidation.

Section V-A cites incremental CFL-reachability techniques [6], [16]
"tailored for scenarios where code changes are small", which "take
advantage of previously computed CFL-reachable paths to avoid
unnecessary reanalysis".  This module provides the add-only variant on
top of the data-sharing machinery.  Where the first cut dropped *every*
finished jump entry on *every* edit, invalidation is now selective:

* while a query runs, a :class:`FootprintCollector` attached to the
  engine (``CFLEngine.footprint``) records the **surface the traversal
  touched** — visited representative nodes, consulted heap fields, and
  consumed finished jump entries;
* the whole query's footprint is attributed to every entry the query
  publishes and to its own cached answer — a sound superset (memoised
  sweeps mean a per-round attribution would under-approximate);
* a :class:`_ReverseIndex` maps node -> entries, field -> entries and
  consumed-entry -> dependents, so an edit invalidates exactly the
  entries whose witness paths could touch the new edge, plus their
  transitive consumers (a shortcut hides the nodes behind it, so
  dependents cannot be found by node lookup alone);
* **unfinished markers survive** every edit: added edges only increase
  traversal costs, so an out-of-budget certificate stays valid;
* non-exhausted answers are cached per ``(direction, node, ctx)`` and
  requeued (dropped) only when affected — exhausted answers are never
  cached, since budget behaviour legitimately depends on jump state.

Soundness of the endpoint rule: a new edge can only change an answer
whose traversal would *traverse* it, and a sweep traverses an edge only
from a visited endpoint; ``load``/``store`` edges additionally join the
global per-field indexes, which every alias round on that field
consults — hence the extra field seeding.  Edit endpoints are resolved
through ``pag.rep()`` because sweeps visit representatives.  The
property tests compare every post-edit answer against a from-scratch
engine.

Only the store's own queries (``points_to``, ``flows_to``,
``may_alias``) record footprints.  Batches of every backend run on the
store's map and record none: the ``local`` backend's batches
(:meth:`IncrementalAnalysis.run_units`) on an engine of their own over
the map, the ``sim``, ``threads`` and ``mp`` backends' through
:class:`repro.runtime.executor.ParallelCFL`.  A batch leaves the answer
cache alone: it reports each query's own costs.

So an edge edit also drops every finished entry the reverse index holds
no record for (written by a batch, or warmed without a footprint), with
its transitive consumers: any edge may reach such an entry.  While
every finished entry has a record, as in a store that only single
queries wrote, an edit does not scan the map.  A session that is never
edited thus pays for footprints only on its single queries.

Warm starts (:mod:`repro.core.snapshot`): :meth:`IncrementalAnalysis.warm_from`
replays a commit log with its :meth:`~IncrementalAnalysis.footprints`,
so a restarted session keeps selective invalidation.

Removals are out of scope (as in [16]'s "preliminary experience", the
additive case — loading code — is the common one).
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    cast,
)

from repro.core.context import Context, EMPTY_CTX
from repro.core.engine import CFLEngine, EngineConfig, FLOWS_TO, POINTS_TO
from repro.core.jumpmap import DeltaEntry, JumpMap
from repro.core.query import Query, QueryResult
from repro.core.snapshot import FootprintData
from repro.pag.extended import JumpKey
from repro.pag.graph import PAG

if TYPE_CHECKING:
    from repro.runtime.config import RuntimeConfig
    from repro.runtime.results import BatchResult

__all__ = ["FootprintCollector", "FootprintRecord", "IncrementalAnalysis"]

#: Cache key of a session query: (direction, representative node, ctx).
_QueryKey = Tuple[bool, int, Context]

#: Reverse-index token: ``("jmp", JumpKey)`` for a published finished
#: entry, ``("qry", _QueryKey)`` for a cached answer.
_Token = Tuple[str, Any]


class FootprintRecord(NamedTuple):
    """The touched surface attributed to one entry/answer."""

    nodes: FrozenSet[int]          #: visited representative node ids
    fields: FrozenSet[str]         #: heap fields whose global indexes were read
    consumed: Tuple[JumpKey, ...]  #: finished entries taken as shortcuts


#: ``(node, ctx)`` -> node and ``(base, field)`` -> field, for the
#: footprint updates.
_node_of, _field_of = itemgetter(0), itemgetter(1)


class FootprintCollector:
    """Engine-side footprint sink (the ``CFLEngine.footprint`` hook).

    The engine calls :meth:`add_nodes` once per sweep (with the sweep's
    visited set), :meth:`add_fields` / :meth:`add_consumed` /
    :meth:`add_published` once per alias round — never inside the inner
    edge loops, mirroring the recorder's zero-cost-when-off contract.

    :meth:`add_nodes` keeps each visited set by reference, which the
    engine never writes again, and :meth:`record` reads the node ids
    out of them, so an exhausted query that publishes nothing never
    pays for them.  Reading the ids when each sweep ends instead, so
    the sets die early, was measured over 7 alternating
    ``edit_session`` pairs: ``ops_per_s`` rose by a median of 4.5%
    (6 of 7 pairs), but ``setup_s`` rose by a median of 2.7% (worse in
    5 of 7, up to +37%), a trade that was not taken.
    """

    __slots__ = ("fields", "consumed", "published", "sweeps")

    def __init__(self) -> None:
        self.fields: Set[str] = set()
        self.consumed: Set[JumpKey] = set()
        self.published: Set[JumpKey] = set()
        #: The visited sets of the query's sweeps.
        self.sweeps: List[Iterable[Tuple[int, Context]]] = []

    def add_nodes(self, items: Iterable[Tuple[int, Context]]) -> None:
        self.sweeps.append(items)

    def add_fields(self, heap_edges: Iterable[Tuple[int, str]]) -> None:
        self.fields.update(map(_field_of, heap_edges))

    def add_consumed(self, key: JumpKey) -> None:
        self.consumed.add(key)

    def add_published(self, key: JumpKey) -> None:
        self.published.add(key)

    def reset(self) -> None:
        self.fields.clear()
        self.consumed.clear()
        self.published.clear()
        self.sweeps.clear()

    def record(self) -> FootprintRecord:
        nodes: Set[int] = set()
        for items in self.sweeps:
            nodes.update(map(_node_of, items))
        return FootprintRecord(
            frozenset(nodes), frozenset(self.fields), tuple(self.consumed)
        )


class _ReverseIndex:
    """PAG surface -> jump entries / cached answers whose witness paths
    touch it, plus the consumed-entry dependency graph."""

    def __init__(self) -> None:
        self._by_node: Dict[int, Set[_Token]] = {}
        self._by_field: Dict[str, Set[_Token]] = {}
        #: consumed finished entry -> tokens that took it as a shortcut
        self._deps: Dict[JumpKey, Set[_Token]] = {}
        self._records: Dict[_Token, FootprintRecord] = {}
        #: Jump entries among the records.  Each is in the store's map:
        #: only accepted inserts are registered, and an edit drops an
        #: entry and its record together.
        self.n_entries = 0

    def __len__(self) -> int:
        return len(self._records)

    def register(self, token: _Token, record: FootprintRecord) -> None:
        if token in self._records:
            self.discard((token,))
        self._records[token] = record
        if token[0] == "jmp":
            self.n_entries += 1
        for n in record.nodes:
            self._by_node.setdefault(n, set()).add(token)
        for f in record.fields:
            self._by_field.setdefault(f, set()).add(token)
        for k in record.consumed:
            self._deps.setdefault(k, set()).add(token)

    def unrecorded(self, keys: Iterable[JumpKey]) -> List[_Token]:
        """The tokens of ``keys`` that hold no record."""
        records = self._records
        return [t for t in (("jmp", k) for k in keys) if t not in records]

    def affected(
        self,
        nodes: Iterable[int],
        fields: Iterable[str],
        unrecorded: Iterable[_Token] = (),
    ) -> Set[_Token]:
        """Tokens an edit on ``nodes``/``fields`` may have changed:
        direct node/field hits, the ``unrecorded`` entries, and the
        transitive closure through consumed-entry dependencies."""
        seed: Set[_Token] = set(unrecorded)
        for n in nodes:
            seed |= self._by_node.get(n, set())
        for f in fields:
            seed |= self._by_field.get(f, set())
        out: Set[_Token] = set()
        stack = list(seed)
        while stack:
            token = stack.pop()
            if token in out:
                continue
            out.add(token)
            if token[0] == "jmp":
                for dep in self._deps.get(token[1], ()):
                    if dep not in out:
                        stack.append(dep)
        return out

    def discard(self, tokens: Iterable[_Token]) -> None:
        for token in tokens:
            record = self._records.pop(token, None)
            if record is None:
                continue
            if token[0] == "jmp":
                self.n_entries -= 1
            for n in record.nodes:
                bucket = self._by_node.get(n)
                if bucket is not None:
                    bucket.discard(token)
                    if not bucket:
                        del self._by_node[n]
            for f in record.fields:
                bucket = self._by_field.get(f)
                if bucket is not None:
                    bucket.discard(token)
                    if not bucket:
                        del self._by_field[f]
            for k in record.consumed:
                bucket = self._deps.get(k)
                if bucket is not None:
                    bucket.discard(token)
                    if not bucket:
                        del self._deps[k]

    def export_footprints(self) -> FootprintData:
        """The jump-entry records in snapshot form (queries are
        session-local and never persisted)."""
        out: FootprintData = {}
        for (kind, key), record in self._records.items():
            if kind == "jmp":
                out[cast(JumpKey, key)] = (
                    tuple(sorted(record.nodes)),
                    tuple(sorted(record.fields)),
                    record.consumed,
                )
        return out


class IncrementalAnalysis:
    """A long-lived analysis session over an evolving (growing) PAG,
    owning its jump map."""

    def __init__(
        self,
        pag: PAG,
        config: Optional[EngineConfig] = None,
        *,
        recorder: Optional[Any] = None,
    ) -> None:
        self.pag = pag
        self.cfg = config or EngineConfig()
        self.jumps = JumpMap()
        self._engine = CFLEngine(
            pag, self.cfg, jumps=self.jumps, recorder=recorder
        )
        self._collector = FootprintCollector()
        self._engine.footprint = self._collector
        self._index = _ReverseIndex()
        self._cache: Dict[_QueryKey, QueryResult] = {}
        #: Optional :class:`repro.obs.Recorder` (inc.* / snapshot.* counters).
        self.recorder = recorder
        #: finished entries (summed jmp edges) dropped across all edits
        self.n_invalidated = 0
        #: entries dropped / surviving on the most recent edit
        self.last_edit_invalidated = 0
        self.last_edit_survived = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def points_to(self, var: int, ctx: Context = EMPTY_CTX) -> QueryResult:
        return self._run(POINTS_TO, var, ctx, self._engine.points_to)

    def flows_to(self, obj: int, ctx: Context = EMPTY_CTX) -> QueryResult:
        return self._run(FLOWS_TO, obj, ctx, self._engine.flows_to)

    def may_alias(self, a: int, b: int, ctx: Context = EMPTY_CTX) -> bool:
        """Points-to overlap of two variables under one context.

        Runs both sides through the session (so answers are cached and
        footprint-indexed like any other query) and intersects the
        object sets, mirroring :meth:`CFLEngine.may_alias` — an
        exhausted side conservatively answers True."""
        pa = self._run(POINTS_TO, a, ctx, self._engine.points_to)
        pb = self._run(POINTS_TO, b, ctx, self._engine.points_to)
        if pa.exhausted or pb.exhausted:
            return True
        return bool(pa.objects & pb.objects)

    def _run(
        self,
        direction: bool,
        node: int,
        ctx: Context,
        runner: Callable[[int, Context], QueryResult],
    ) -> QueryResult:
        rep = self.pag.rep(node)
        if self.pag.is_global(rep):
            ctx = EMPTY_CTX  # mirrors the engine's cache-key normalisation
        qkey: _QueryKey = (direction, rep, ctx)
        cached = self._cache.get(qkey)
        if cached is not None:
            rec = self.recorder
            if rec:
                rec.count("inc.queries_reused")
            return cached
        collector = self._collector
        collector.reset()
        result = runner(node, ctx)
        if result.exhausted and not collector.published:
            return result
        record = collector.record()
        for key in collector.published:
            self._index.register(("jmp", key), record)
        if not result.exhausted:
            # Exhausted answers are never cached: they are budget
            # artefacts, and the budget story legitimately shifts as
            # the jump map warms.
            self._cache[qkey] = result
            self._index.register(("qry", qkey), record)
        return result

    # ------------------------------------------------------------------
    # batches — the ``local`` backend
    # ------------------------------------------------------------------
    def run_units(
        self,
        units: Sequence[Sequence[Query]],
        runtime: Optional["RuntimeConfig"] = None,
    ) -> "BatchResult":
        """Run every unit's queries in order on the calling thread;
        times are real, relative to the batch start.

        In a sharing mode (``runtime=None`` reads as mode ``D``) the
        queries run on an engine over this store's map and record no
        footprint, so the next edge edit drops what they published.
        The answer cache is neither read nor written.  A share-nothing
        mode runs a map-less engine and leaves the store as it was."""
        # Imported here: repro.runtime imports this module.
        from repro.runtime.results import BatchResult, QueryExecution

        share = runtime is None or runtime.sharing
        rec = self.recorder
        engine = CFLEngine(
            self.pag, self.cfg, jumps=self.jumps if share else None,
            recorder=rec,
        )
        perf = time.perf_counter
        executions: List[QueryExecution] = []
        t0 = perf()
        for unit in units:
            for query in unit:
                start = perf() - t0
                result = engine.run_query(query)
                finish = perf() - t0
                executions.append(QueryExecution(result, 0, start, finish))
                if rec:
                    rec.span_abs(
                        f"query node{query.var}", t0 + start, t0 + finish,
                        cat="query",
                        args={"var": query.var, "steps": result.costs.steps},
                    )
                    rec.event("done", worker=0, queries=1, query=query.var)
        batch = BatchResult(
            mode=runtime.mode if runtime is not None else "D",
            n_threads=1,
            executions=executions,
            makespan=perf() - t0,
            worker_busy=[sum(e.duration for e in executions)],
        )
        batch.count_jumps(self.jumps if share else None)
        return batch

    # ------------------------------------------------------------------
    # edits — mirror the PAG construction API, with invalidation
    # ------------------------------------------------------------------
    def _edited(self, nodes: Sequence[int], fields: Sequence[str] = ()) -> None:
        reps = {self.pag.rep(n) for n in nodes}
        index, jumps = self._index, self.jumps
        unrecorded: List[_Token] = []
        if len(jumps) - jumps.n_unfinished_edges > index.n_entries:
            # Some finished entry has no footprint, so any edge may
            # reach it: look the unrecorded ones up and drop them all.
            unrecorded = index.unrecorded(k for k, _ in jumps.finished_items())
        tokens = index.affected(reps, fields, unrecorded)
        jump_keys: List[JumpKey] = [
            cast(JumpKey, payload) for kind, payload in tokens if kind == "jmp"
        ]
        dropped = jumps.invalidate_keys(jump_keys)
        requeued = 0
        for kind, payload in tokens:
            if kind == "qry" and self._cache.pop(payload, None) is not None:
                requeued += 1
        index.discard(tokens)
        survived = jumps.n_finished_edges
        self.n_invalidated += dropped
        self.last_edit_invalidated = dropped
        self.last_edit_survived = survived
        rec = self.recorder
        if rec:
            rec.count_many({
                "inc.edits": 1,
                "inc.entries_invalidated": dropped,
                "inc.entries_survived": survived,
                "inc.queries_invalidated": requeued,
            })

    def add_local(self, name: str, **kw: Any) -> int:
        # A fresh node is unconnected, so no existing answer can change
        # until an edge uses it: nothing to invalidate or count.
        return self.pag.add_local(name, **kw)

    def add_global(self, name: str, **kw: Any) -> int:
        return self.pag.add_global(name, **kw)

    def add_obj(self, label: str, type_name: Optional[str] = None) -> int:
        return self.pag.add_obj(label, type_name)

    def add_new_edge(self, var: int, obj: int) -> None:
        self.pag.add_new_edge(var, obj)
        self._edited((var, obj))

    def add_assign_edge(self, dst: int, src: int) -> None:
        self.pag.add_assign_edge(dst, src)
        self._edited((dst, src))

    def add_gassign_edge(self, dst: int, src: int) -> None:
        self.pag.add_gassign_edge(dst, src)
        self._edited((dst, src))

    def add_load_edge(self, target: int, base: int, field: str) -> None:
        self.pag.add_load_edge(target, base, field)
        # the edge also joins loads_by_field[field], which every
        # FLOWSTO-side alias round on the field consults
        self._edited((target, base), (field,))

    def add_store_edge(self, base: int, field: str, value: int) -> None:
        self.pag.add_store_edge(base, field, value)
        self._edited((base, value), (field,))

    def add_param_edge(self, formal: int, actual: int, site: int) -> None:
        self.pag.add_param_edge(formal, actual, site)
        self._edited((formal, actual))

    def add_ret_edge(self, result: int, retvar: int, site: int) -> None:
        self.pag.add_ret_edge(result, retvar, site)
        self._edited((result, retvar))

    # ------------------------------------------------------------------
    # warm starts (repro.core.snapshot)
    # ------------------------------------------------------------------
    def warm_from(
        self,
        log: Iterable[DeltaEntry],
        footprints: Optional[FootprintData] = None,
    ) -> int:
        """Replay an exported commit log into the session's map.

        Entries arriving with a footprint are indexed for selective
        invalidation; entries without one stay unrecorded — sound, but
        the first edge edit drops them.  Returns the number of accepted
        insertions."""
        fps: FootprintData = footprints or {}
        accepted = self.jumps.replay(log)
        for tag, key, _payload in accepted:
            fp = fps.get(key) if tag == "fin" else None
            if fp is not None:
                nodes, fields, consumed = fp
                self._index.register(
                    ("jmp", key),
                    FootprintRecord(
                        frozenset(nodes), frozenset(fields), tuple(consumed)
                    ),
                )
        rec = self.recorder
        if rec and accepted:
            rec.count("inc.entries_warmed", len(accepted))
        return len(accepted)

    def footprints(self) -> FootprintData:
        """The published entries' footprints in snapshot form."""
        return self._index.export_footprints()

    # ------------------------------------------------------------------
    @property
    def n_reusable_markers(self) -> int:
        """Unfinished markers carried across the last edit."""
        return self.jumps.n_unfinished_edges

    @property
    def n_cached_queries(self) -> int:
        """Answers reusable without re-running the engine."""
        return len(self._cache)

    @property
    def n_tracked_entries(self) -> int:
        """Tokens (entries + cached answers) in the reverse index."""
        return len(self._index)
