"""The Pointer Assignment Graph data structure.

Design notes
------------

* Nodes are dense integer ids; per-node attributes are parallel lists.
  The traversal loops of the CFL engine run millions of node visits, so
  every adjacency lookup is a single dict-of-list indexing with no
  object allocation.
* Adjacency is kept **per edge kind and per direction**, because
  ``POINTSTO`` consumes incoming edges while its inverse ``FLOWSTO``
  consumes outgoing edges, and each branch of Algorithm 1 touches
  exactly one kind.
* The **leg index** (:meth:`PAG.rows`) maps a node to its non-empty
  adjacency rows in one direction, in :class:`EdgeKind` order, so a
  traversal step reads every row of its node with one lookup.  Its
  entries are the same list objects the per-kind dicts hold.  It is
  built on first use; after that every ``add_*_edge`` refreshes the
  rows of its two endpoints, and SCC collapse drops it.  A pickled
  PAG carries the index, and pickle's memo keeps each row on the list
  its adjacency dict holds.
* ``stores_by_field``/``loads_by_field`` are the global indexes used by
  ``REACHABLENODES`` to match a load ``x = p.f`` against *every* store
  ``q.f = y`` in the program (Algorithm 1, lines 18-19).
* The **field index** (:meth:`PAG.field_bases`) maps, for each of those
  two, a field to ``{base: positions of its pairs in the field's
  list}``, so an alias round visits only the pairs whose base aliases
  its own, still in list order.  It has the leg index's lifecycle:
  built on first use, extended by every later ``add_load_edge``/
  ``add_store_edge``, dropped by SCC collapse, and carried by a
  pickled PAG.
* *Points-to cycle elimination* (Section IV-A, following Sridharan &
  Bodík): strongly connected components of context-free ``assign``
  edges are collapsed onto a representative node via a union-find; all
  queries resolve node ids through :meth:`rep`.
* Every backend traverses this one object.  mp workers inherit it
  under ``fork`` and receive it pickled once under ``spawn``;
  snapshots store its fingerprint, not a copy.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import PAGError
from repro.pag.edges import Edge, EdgeKind
from repro.pag.nodes import NodeInfo, NodeKind

__all__ = ["PAG"]

#: ``(int(kind), adjacency attribute)`` per :class:`EdgeKind` in enum
#: order, per direction (``False``: inbound ``*_in``, ``True``: outbound
#: ``*_out``).
_ADJACENCIES = tuple(
    tuple((int(kind), f"{kind.name.lower()}_{side}") for kind in EdgeKind)
    for side in ("in", "out")
)

#: One node's leg-index row: ``(int(edge kind), entries)`` per non-empty
#: adjacency row, in :class:`EdgeKind` order.  Plain ints, not enum
#: members, so the sweep's op-table index takes the interpreter's fast
#: path.
Row = Tuple[Tuple[int, List[Any]], ...]

#: One field's entry in the field index: base -> the ascending positions
#: of its ``(base, other)`` pairs in the field's list.
FieldBases = Dict[int, List[int]]

#: The global field indexes the field index covers.
_BY_FIELD = ("stores_by_field", "loads_by_field")


def _leg_index(graph: PAG) -> Tuple[Dict[int, Row], Dict[int, Row]]:
    """Build the leg index of ``graph``, inbound then outbound."""
    index = []
    for adjacencies in _ADJACENCIES:
        rows: Dict[int, List[Tuple[int, List[Any]]]] = {}
        for kind, name in adjacencies:
            for node, entries in getattr(graph, name).items():
                if entries:
                    rows.setdefault(node, []).append((kind, entries))
        index.append({node: tuple(row) for node, row in rows.items()})
    return index[0], index[1]


def _field_index(graph: PAG) -> Dict[str, Dict[str, FieldBases]]:
    """Build the field index of ``graph``: per global field index name,
    field -> :data:`FieldBases`."""
    index: Dict[str, Dict[str, FieldBases]] = {}
    for name in _BY_FIELD:
        fields: Dict[str, FieldBases] = {}
        index[name] = fields
        for field, pairs in getattr(graph, name).items():
            bases: FieldBases = {}
            fields[field] = bases
            for pos, (base, _other) in enumerate(pairs):
                bases.setdefault(base, []).append(pos)
    return index


class PAG:
    """A mutable pointer assignment graph.

    Typically produced by :func:`repro.pag.build.build_pag`; can also be
    assembled directly (the unit tests and the paper's Fig. 5 example do
    this) via :meth:`add_local`, :meth:`add_global`, :meth:`add_obj` and
    the ``add_*_edge`` methods.
    """

    def __init__(self) -> None:
        # --- node tables -------------------------------------------------
        self._kind: List[int] = []
        self._name: List[str] = []
        self._type: List[Optional[str]] = []
        self._method: List[Optional[str]] = []
        self._is_app: List[bool] = []
        self._id_by_name: Dict[str, int] = {}

        # --- union-find for points-to cycle elimination -------------------
        self._parent: List[int] = []

        # --- per-kind adjacency -------------------------------------------
        # new: var <- obj
        self.new_in: Dict[int, List[int]] = {}
        self.new_out: Dict[int, List[int]] = {}
        # assign (local): dst <- src
        self.assign_in: Dict[int, List[int]] = {}
        self.assign_out: Dict[int, List[int]] = {}
        # assign (global): dst <- src
        self.gassign_in: Dict[int, List[int]] = {}
        self.gassign_out: Dict[int, List[int]] = {}
        # load x = p.f:  x <- (p, f)
        self.load_in: Dict[int, List[Tuple[int, str]]] = {}
        self.load_out: Dict[int, List[Tuple[int, str]]] = {}
        # store q.f = y: q <- (y, f)
        self.store_in: Dict[int, List[Tuple[int, str]]] = {}
        self.store_out: Dict[int, List[Tuple[int, str]]] = {}
        # global field indexes: f -> [(base, value)] / [(base, target)]
        self.stores_by_field: Dict[str, List[Tuple[int, int]]] = {}
        self.loads_by_field: Dict[str, List[Tuple[int, int]]] = {}
        # param: formal <- (actual, site)
        self.param_in: Dict[int, List[Tuple[int, int]]] = {}
        self.param_out: Dict[int, List[Tuple[int, int]]] = {}
        # ret: result <- (retvar, site)
        self.ret_in: Dict[int, List[Tuple[int, int]]] = {}
        self.ret_out: Dict[int, List[Tuple[int, int]]] = {}

        #: The leg index per direction (see :meth:`rows`); None until
        #: first use.
        self._rows: Optional[Tuple[Dict[int, Row], Dict[int, Row]]] = None
        #: The field index per global field index name (see
        #: :meth:`field_bases`); None until first use.
        self._field_bases: Optional[Dict[str, Dict[str, FieldBases]]] = None

        self._n_edges = 0
        self._edge_set: Set[Tuple[int, int, int, Optional[Union[str, int]]]] = set()

        #: The single unfinished node ``O`` (Fig. 4), created eagerly.
        self.unfinished_node = self._add_node(
            NodeKind.UNFINISHED, "O", None, None, False, register_name=False
        )

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------
    def _add_node(
        self,
        kind: NodeKind,
        name: str,
        type_name: Optional[str],
        method: Optional[str],
        is_app: bool,
        register_name: bool = True,
    ) -> int:
        if register_name and name in self._id_by_name:
            raise PAGError(f"duplicate node name {name!r}")
        nid = len(self._kind)
        self._kind.append(int(kind))
        self._name.append(name)
        self._type.append(type_name)
        self._method.append(method)
        self._is_app.append(is_app)
        self._parent.append(nid)
        if register_name:
            self._id_by_name[name] = nid
        return nid

    def add_local(
        self,
        name: str,
        type_name: Optional[str] = None,
        method: Optional[str] = None,
        is_app: bool = True,
    ) -> int:
        """Add a local-variable node; ``name`` must be globally unique."""
        return self._add_node(NodeKind.LOCAL, name, type_name, method, is_app)

    def add_global(
        self, name: str, type_name: Optional[str] = None, is_app: bool = True
    ) -> int:
        """Add a global-variable node."""
        return self._add_node(NodeKind.GLOBAL, name, type_name, None, is_app)

    def add_obj(self, site_label: str, type_name: Optional[str] = None) -> int:
        """Add an abstract-object node for an allocation site."""
        return self._add_node(NodeKind.OBJECT, site_label, type_name, None, False)

    # ------------------------------------------------------------------
    # node queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._kind)

    @property
    def n_nodes(self) -> int:
        """Node count excluding the synthetic ``O`` node (Table I col. 4)."""
        return len(self._kind) - 1

    @property
    def n_edges(self) -> int:
        """Edge count (Table I col. 5)."""
        return self._n_edges

    def kind(self, nid: int) -> NodeKind:
        return NodeKind(self._kind[nid])

    def name(self, nid: int) -> str:
        return self._name[nid]

    def type_name(self, nid: int) -> Optional[str]:
        return self._type[nid]

    def method_of(self, nid: int) -> Optional[str]:
        return self._method[nid]

    def is_app(self, nid: int) -> bool:
        return self._is_app[nid]

    def is_variable(self, nid: int) -> bool:
        return self._kind[nid] in (NodeKind.LOCAL, NodeKind.GLOBAL)

    def is_object(self, nid: int) -> bool:
        return self._kind[nid] == NodeKind.OBJECT

    def is_global(self, nid: int) -> bool:
        return self._kind[nid] == NodeKind.GLOBAL

    @property
    def kinds(self) -> Sequence[int]:
        """The node-kind array: ``int(NodeKind)`` per node id.  The live
        table, grown by every node add; read it, never write it."""
        return self._kind

    def rows(self, outgoing: bool) -> Dict[int, Row]:
        """The leg index in one direction: node -> ``((int(edge kind),
        entries), ...)`` for each of its non-empty inbound
        (``outgoing=False``, the ``*_in`` dicts) or outbound (``*_out``)
        adjacency rows, in :class:`EdgeKind` order.  ``entries`` is the
        very list the per-kind dict holds.  Built on first use and kept
        current by every later edge add; read it, never write it."""
        rows = self._rows
        if rows is None:
            rows = self._rows = _leg_index(self)
        return rows[outgoing]

    def field_bases(self, by_field: str) -> Dict[str, FieldBases]:
        """The field index of the global field index named ``by_field``
        (``"stores_by_field"`` or ``"loads_by_field"``): field ->
        {base: ascending positions of its pairs in that field's list}.
        Built on first use and kept current by every later edge add;
        read it, never write it."""
        index = self._field_bases
        if index is None:
            index = self._field_bases = _field_index(self)
        return index[by_field]

    def info(self, nid: int) -> NodeInfo:
        return NodeInfo(
            nid,
            self.kind(nid),
            self._name[nid],
            self._type[nid],
            self._method[nid],
            self._is_app[nid],
        )

    def node_id(self, name: str) -> int:
        """Look a node up by its unique name."""
        nid = self._id_by_name.get(name)
        if nid is None:
            raise PAGError(f"no node named {name!r}")
        return nid

    def has_node(self, name: str) -> bool:
        return name in self._id_by_name

    def node_ids(self) -> Iterator[int]:
        """All real node ids (the synthetic ``O`` node excluded)."""
        for nid in range(len(self._kind)):
            if self._kind[nid] != NodeKind.UNFINISHED:
                yield nid

    def variables(self) -> Iterator[int]:
        for nid in self.node_ids():
            if self.is_variable(nid):
                yield nid

    def objects(self) -> Iterator[int]:
        for nid in self.node_ids():
            if self.is_object(nid):
                yield nid

    def app_locals(self) -> List[int]:
        """Application-code local variables — the paper's batch query
        workload ("queries ... issued for all the local variables in its
        application code", Section IV-C)."""
        return [
            nid
            for nid in self.node_ids()
            if self._kind[nid] == NodeKind.LOCAL and self._is_app[nid]
        ]

    # ------------------------------------------------------------------
    # edge construction
    # ------------------------------------------------------------------
    def _record(
        self, kind: EdgeKind, dst: int, src: int, label: Optional[Union[str, int]]
    ) -> bool:
        key = (int(kind), dst, src, label)
        if key in self._edge_set:
            return False
        self._edge_set.add(key)
        self._n_edges += 1
        return True

    def _check(self, nid: int, role: str, want_var: bool) -> None:
        if nid < 0 or nid >= len(self._kind):
            raise PAGError(f"{role}: unknown node id {nid}")
        if want_var and not self.is_variable(nid):
            raise PAGError(f"{role}: node {self._name[nid]!r} is not a variable")

    def _reindex(self, dst: int, src: int) -> None:
        """Refresh the leg-index rows a new edge touched: ``dst``'s
        inbound row and ``src``'s outbound row (no-op before the index
        is built)."""
        rows = self._rows
        if rows is None:
            return
        for outgoing, node in ((False, dst), (True, src)):
            rows[outgoing][node] = tuple(
                (kind, entries)
                for kind, name in _ADJACENCIES[outgoing]
                if (entries := getattr(self, name).get(node))
            )

    def _index_field(self, by_field: str, field: str, base: int) -> None:
        """Add the pair just appended to ``by_field[field]`` to the field
        index (no-op before the index is built)."""
        index = self._field_bases
        if index is None:
            return
        position = len(getattr(self, by_field)[field]) - 1
        index[by_field].setdefault(field, {}).setdefault(base, []).append(position)

    def add_new_edge(self, var: int, obj: int) -> None:
        """``var <-new- obj``."""
        self._check(var, "new dst", want_var=True)
        if not self.is_object(obj):
            raise PAGError("new src must be an object node")
        if self._record(EdgeKind.NEW, var, obj, None):
            self.new_in.setdefault(var, []).append(obj)
            self.new_out.setdefault(obj, []).append(var)
            self._reindex(var, obj)

    def add_assign_edge(self, dst: int, src: int) -> None:
        """``dst <-assign_l- src`` (both locals)."""
        self._check(dst, "assign dst", want_var=True)
        self._check(src, "assign src", want_var=True)
        if self._record(EdgeKind.ASSIGN, dst, src, None):
            self.assign_in.setdefault(dst, []).append(src)
            self.assign_out.setdefault(src, []).append(dst)
            self._reindex(dst, src)

    def add_gassign_edge(self, dst: int, src: int) -> None:
        """``dst <-assign_g- src`` (at least one side global)."""
        self._check(dst, "gassign dst", want_var=True)
        self._check(src, "gassign src", want_var=True)
        if not (self.is_global(dst) or self.is_global(src)):
            raise PAGError("global assign requires a global endpoint")
        if self._record(EdgeKind.GASSIGN, dst, src, None):
            self.gassign_in.setdefault(dst, []).append(src)
            self.gassign_out.setdefault(src, []).append(dst)
            self._reindex(dst, src)

    def add_load_edge(self, target: int, base: int, field: str) -> None:
        """``target <-ld(field)- base`` for ``target = base.field``."""
        self._check(target, "load dst", want_var=True)
        self._check(base, "load base", want_var=True)
        if self._record(EdgeKind.LOAD, target, base, field):
            self.load_in.setdefault(target, []).append((base, field))
            self.load_out.setdefault(base, []).append((target, field))
            self.loads_by_field.setdefault(field, []).append((base, target))
            self._index_field("loads_by_field", field, base)
            self._reindex(target, base)

    def add_store_edge(self, base: int, field: str, value: int) -> None:
        """``base <-st(field)- value`` for ``base.field = value``."""
        self._check(base, "store base", want_var=True)
        self._check(value, "store src", want_var=True)
        if self._record(EdgeKind.STORE, base, value, field):
            self.store_in.setdefault(base, []).append((value, field))
            self.store_out.setdefault(value, []).append((base, field))
            self.stores_by_field.setdefault(field, []).append((base, value))
            self._index_field("stores_by_field", field, base)
            self._reindex(base, value)

    def add_param_edge(self, formal: int, actual: int, site: int) -> None:
        """``formal <-param_site- actual``."""
        self._check(formal, "param dst", want_var=True)
        self._check(actual, "param src", want_var=True)
        if self._record(EdgeKind.PARAM, formal, actual, site):
            self.param_in.setdefault(formal, []).append((actual, site))
            self.param_out.setdefault(actual, []).append((formal, site))
            self._reindex(formal, actual)

    def add_ret_edge(self, result: int, retvar: int, site: int) -> None:
        """``result <-ret_site- retvar``."""
        self._check(result, "ret dst", want_var=True)
        self._check(retvar, "ret src", want_var=True)
        if self._record(EdgeKind.RET, result, retvar, site):
            self.ret_in.setdefault(result, []).append((retvar, site))
            self.ret_out.setdefault(retvar, []).append((result, site))
            self._reindex(result, retvar)

    # ------------------------------------------------------------------
    # iteration / export
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[Edge]:
        """All edges as display records (dst <-kind- src)."""
        for dst, objs in self.new_in.items():
            for obj in objs:
                yield Edge(EdgeKind.NEW, dst, obj)
        for dst, srcs in self.assign_in.items():
            for src in srcs:
                yield Edge(EdgeKind.ASSIGN, dst, src)
        for dst, srcs in self.gassign_in.items():
            for src in srcs:
                yield Edge(EdgeKind.GASSIGN, dst, src)
        for dst, pairs in self.load_in.items():
            for base, field in pairs:
                yield Edge(EdgeKind.LOAD, dst, base, field)
        for dst, pairs in self.store_in.items():
            for value, field in pairs:
                yield Edge(EdgeKind.STORE, dst, value, field)
        for dst, pairs in self.param_in.items():
            for src, site in pairs:
                yield Edge(EdgeKind.PARAM, dst, src, site)
        for dst, pairs in self.ret_in.items():
            for src, site in pairs:
                yield Edge(EdgeKind.RET, dst, src, site)

    # ------------------------------------------------------------------
    # points-to cycle elimination (union-find over assign cycles)
    # ------------------------------------------------------------------
    def rep(self, nid: int) -> int:
        """Representative of ``nid`` after cycle collapsing (path halving)."""
        parent = self._parent
        while parent[nid] != nid:
            parent[nid] = parent[parent[nid]]
            nid = parent[nid]
        return nid

    def collapse_assign_sccs(self) -> int:
        """Collapse strongly connected components of local-``assign``
        edges onto representatives (points-to cycle elimination,
        Section IV-A).  Returns the number of nodes merged away.

        Variables in such a cycle provably share a points-to set, so the
        traversal may treat them as one node.  Edge indexes are rewritten
        in terms of representatives; self-loop assigns are dropped.
        """
        nodes = [n for n in self.node_ids() if self.is_variable(n)]
        from repro.ir.types import _tarjan_scc

        _comp_of, comps = _tarjan_scc(nodes, self.assign_out)
        merged = 0
        for comp in comps:
            if len(comp) < 2:
                continue
            members = sorted(comp)
            root = members[0]
            for m in members[1:]:
                self._parent[m] = root
                merged += 1
        if merged:
            self._rewrite_edges()
        return merged

    def _rewrite_edges(self) -> None:
        """Re-index all adjacency through representatives, dropping
        duplicate and self-loop assign edges (and the leg and field
        indexes, which describe the old lists)."""
        rep = self.rep
        self._rows = None
        self._field_bases = None

        def remap_pairs_int(index: Dict[int, List[int]], drop_self: bool) -> Dict[int, List[int]]:
            out: Dict[int, List[int]] = {}
            seen: Set[Tuple[int, int]] = set()
            for dst, srcs in index.items():
                rd = rep(dst)
                for src in srcs:
                    rs = rep(src)
                    if drop_self and rd == rs:
                        continue
                    if (rd, rs) in seen:
                        continue
                    seen.add((rd, rs))
                    out.setdefault(rd, []).append(rs)
            return out

        def remap_labeled(
            index: Dict[int, List[Tuple[int, object]]]
        ) -> Dict[int, List[Tuple[int, object]]]:
            out: Dict[int, List[Tuple[int, object]]] = {}
            seen: Set[Tuple[int, int, object]] = set()
            for dst, pairs in index.items():
                rd = rep(dst)
                for other, label in pairs:
                    ro = rep(other)
                    if (rd, ro, label) in seen:
                        continue
                    seen.add((rd, ro, label))
                    out.setdefault(rd, []).append((ro, label))
            return out

        self.new_in = remap_pairs_int(self.new_in, drop_self=False)
        self.new_out = remap_pairs_int(self.new_out, drop_self=False)
        self.assign_in = remap_pairs_int(self.assign_in, drop_self=True)
        self.assign_out = remap_pairs_int(self.assign_out, drop_self=True)
        self.gassign_in = remap_pairs_int(self.gassign_in, drop_self=True)
        self.gassign_out = remap_pairs_int(self.gassign_out, drop_self=True)
        self.load_in = remap_labeled(self.load_in)   # type: ignore[assignment]
        self.load_out = remap_labeled(self.load_out)  # type: ignore[assignment]
        self.store_in = remap_labeled(self.store_in)  # type: ignore[assignment]
        self.store_out = remap_labeled(self.store_out)  # type: ignore[assignment]
        self.param_in = remap_labeled(self.param_in)  # type: ignore[assignment]
        self.param_out = remap_labeled(self.param_out)  # type: ignore[assignment]
        self.ret_in = remap_labeled(self.ret_in)  # type: ignore[assignment]
        self.ret_out = remap_labeled(self.ret_out)  # type: ignore[assignment]

        def remap_field_index(
            index: Dict[str, List[Tuple[int, int]]]
        ) -> Dict[str, List[Tuple[int, int]]]:
            out: Dict[str, List[Tuple[int, int]]] = {}
            for field, pairs in index.items():
                seen: Set[Tuple[int, int]] = set()
                lst: List[Tuple[int, int]] = []
                for a, b in pairs:
                    p = (rep(a), rep(b))
                    if p not in seen:
                        seen.add(p)
                        lst.append(p)
                out[field] = lst
            return out

        self.stores_by_field = remap_field_index(self.stores_by_field)
        self.loads_by_field = remap_field_index(self.loads_by_field)

    def __repr__(self) -> str:
        return f"PAG({self.n_nodes} nodes, {self._n_edges} edges)"

