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
  built on first use; after that every edge insertion refreshes the
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
  built on first use, extended by every later load or store
  insertion, dropped by SCC collapse, and carried by a pickled PAG.
* *Points-to cycle elimination* (Section IV-A, following Sridharan &
  Bodík): strongly connected components of context-free ``assign``
  edges are collapsed onto a representative node via a union-find; all
  queries resolve node ids through :meth:`rep`.
* **One insertion path.**  Every edge enters through the ``add_*_edge``
  methods' shared insertion routine, at lowering, at collapse and at
  edit time.  It resolves both endpoints through :meth:`rep`, drops an
  ``assign``/``gassign`` self-loop, and records the edge once, keyed
  ``(kind, dst, src, label)`` in representative terms, in insertion
  order; :attr:`PAG.n_edges` is the size of that record.  A collapse
  that merges nodes empties the adjacency and field dicts and the
  record, then enters every recorded edge again in its original
  order, so an edit that names a merged-away node lands on its
  representative like any other.
* Every backend traverses this one object.  mp workers inherit it
  under ``fork`` and receive it pickled once under ``spawn``;
  snapshots store its fingerprint, not a copy.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import PAGError
from repro.pag.edges import Edge, EdgeKind
from repro.pag.nodes import NodeInfo, NodeKind

__all__ = ["PAG"]

#: ``(*_in, *_out)`` adjacency attribute names, indexed by ``int(kind)``.
_SIDES = tuple(
    (f"{kind.name.lower()}_in", f"{kind.name.lower()}_out") for kind in EdgeKind
)

#: ``(int(kind), adjacency attribute)`` per :class:`EdgeKind` in enum
#: order, per direction (``False``: inbound ``*_in``, ``True``: outbound
#: ``*_out``).
_ADJACENCIES = tuple(
    tuple((kind, sides[outgoing]) for kind, sides in enumerate(_SIDES))
    for outgoing in (False, True)
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

#: Every dict an edge is entered into.
_DICTS = tuple(name for pair in _SIDES for name in pair) + _BY_FIELD

_NEW, _ASSIGN, _GASSIGN, _LOAD, _STORE, _PARAM, _RET = map(int, EdgeKind)

#: The copy kinds, whose self-loops carry nothing and are not entered.
_COPIES = (_ASSIGN, _GASSIGN)

#: An edge label: the field of a load or store, the call site of a
#: param or ret edge, ``None`` otherwise.
Label = Optional[Union[str, int]]

#: An edge's key in :attr:`PAG._edges`.
EdgeKey = Tuple[int, int, int, Label]


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

        #: Every edge once, as ``(int(kind), dst, src, label)`` in
        #: representative terms, in insertion order.
        self._edges: Dict[EdgeKey, None] = {}

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
        """Edge count (Table I col. 5): distinct edges in representative
        terms, copy self-loops excluded."""
        return len(self._edges)

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
    def _check(self, nid: int, role: str, want_var: bool) -> None:
        if nid < 0 or nid >= len(self._kind):
            raise PAGError(f"{role}: unknown node id {nid}")
        if want_var and not self.is_variable(nid):
            raise PAGError(f"{role}: node {self._name[nid]!r} is not a variable")

    def _insert(self, kind: int, dst: int, src: int, label: Label) -> None:
        """Enter ``dst <-kind[label]- src`` in representative terms: the
        one place an edge enters the graph, at lowering, at collapse and
        at edit time.  A copy self-loop or a recorded edge is dropped."""
        parent = self._parent
        if parent[dst] != dst:
            dst = self.rep(dst)
        if parent[src] != src:
            src = self.rep(src)
        if dst == src and kind in _COPIES:
            return
        key = (kind, dst, src, label)
        if key in self._edges:
            return
        self._edges[key] = None
        inbound, outbound = _SIDES[kind]
        if label is None:
            getattr(self, inbound).setdefault(dst, []).append(src)
            getattr(self, outbound).setdefault(src, []).append(dst)
        else:
            getattr(self, inbound).setdefault(dst, []).append((src, label))
            getattr(self, outbound).setdefault(src, []).append((dst, label))
            if kind == _LOAD:
                self._index_field("loads_by_field", label, src, dst)
            elif kind == _STORE:
                self._index_field("stores_by_field", label, dst, src)
        self._reindex(dst, src)

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

    def _index_field(self, by_field: str, field: Any, base: int, other: int) -> None:
        """Append ``(base, other)`` to ``by_field[field]`` and to the
        field index (the latter a no-op before the index is built)."""
        pairs = getattr(self, by_field).setdefault(field, [])
        pairs.append((base, other))
        index = self._field_bases
        if index is not None:
            index[by_field].setdefault(field, {}).setdefault(base, []).append(
                len(pairs) - 1
            )

    def add_new_edge(self, var: int, obj: int) -> None:
        """``var <-new- obj``."""
        self._check(var, "new dst", want_var=True)
        if not self.is_object(obj):
            raise PAGError("new src must be an object node")
        self._insert(_NEW, var, obj, None)

    def add_assign_edge(self, dst: int, src: int) -> None:
        """``dst <-assign_l- src`` (both locals)."""
        self._check(dst, "assign dst", want_var=True)
        self._check(src, "assign src", want_var=True)
        self._insert(_ASSIGN, dst, src, None)

    def add_gassign_edge(self, dst: int, src: int) -> None:
        """``dst <-assign_g- src`` (at least one side global)."""
        self._check(dst, "gassign dst", want_var=True)
        self._check(src, "gassign src", want_var=True)
        if not (self.is_global(dst) or self.is_global(src)):
            raise PAGError("global assign requires a global endpoint")
        self._insert(_GASSIGN, dst, src, None)

    def add_load_edge(self, target: int, base: int, field: str) -> None:
        """``target <-ld(field)- base`` for ``target = base.field``."""
        self._check(target, "load dst", want_var=True)
        self._check(base, "load base", want_var=True)
        self._insert(_LOAD, target, base, field)

    def add_store_edge(self, base: int, field: str, value: int) -> None:
        """``base <-st(field)- value`` for ``base.field = value``."""
        self._check(base, "store base", want_var=True)
        self._check(value, "store src", want_var=True)
        self._insert(_STORE, base, value, field)

    def add_param_edge(self, formal: int, actual: int, site: int) -> None:
        """``formal <-param_site- actual``."""
        self._check(formal, "param dst", want_var=True)
        self._check(actual, "param src", want_var=True)
        self._insert(_PARAM, formal, actual, site)

    def add_ret_edge(self, result: int, retvar: int, site: int) -> None:
        """``result <-ret_site- retvar``."""
        self._check(result, "ret dst", want_var=True)
        self._check(retvar, "ret src", want_var=True)
        self._insert(_RET, result, retvar, site)

    # ------------------------------------------------------------------
    # iteration / export
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[Edge]:
        """All edges as display records (dst <-kind- src), in insertion
        order."""
        for kind, dst, src, label in self._edges:
            yield Edge(EdgeKind(kind), dst, src, label)

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
        traversal may treat them as one node.  After a merge every
        recorded edge is entered again, in its original order, through
        :meth:`_insert` into emptied adjacency and field dicts; that
        puts it in representative terms and drops the duplicates and
        copy self-loops the merge made.  The leg and field indexes,
        which describe the old lists, are dropped.
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
            edges, self._edges = self._edges, {}
            self._rows = self._field_bases = None
            for name in _DICTS:
                getattr(self, name).clear()
            for key in edges:
                self._insert(*key)
        return merged

    def __repr__(self) -> str:
        return f"PAG({self.n_nodes} nodes, {self.n_edges} edges)"

