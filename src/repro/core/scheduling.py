"""Query scheduling (Section III-C).

Batch-mode queries are *grouped* and *ordered* so that variables likely
to plant useful ``jmp`` edges run before the variables that can take
them, maximising early terminations:

1. **Grouping** — variables connected through the ``direct`` relation
   (grammar (5): ``assign_l | assign_g | param_i | ret_i``, no heap
   edges) share a group; a group is the unit fetched from the shared
   work list, amortising synchronisation.
2. **Ordering within a group** — by increasing *connection distance*
   (CD): the length of the longest ``direct`` path through the
   variable, computed modulo recursion on the SCC condensation.
3. **Ordering across groups** — by increasing *dependence depth* (DD):
   ``DD(v) = 1 / L(t(v))`` with ``L`` the type-level metric of
   :meth:`repro.ir.types.TypeTable.level`; ``DD(group) = min`` over its
   variables.  Groups holding deep container types (small DD) are
   issued first, because answering a load ``x = p.f`` depends on the
   points-to set of the deeper-typed base ``p``.
4. **Load balancing** — groups larger than the mean size ``M`` are
   split and smaller ones merged with their neighbours, so every work
   unit has roughly ``M`` queries.

Steps 1-3 are :func:`group_queries` and step 4 is
:func:`balance_groups`; :func:`schedule_queries` runs both.

The ``direct`` relation is taken on the application side only, and
without ``assign_g``.  The literal grammar (5) lets shared library
methods' ``param``/``ret`` edges and the program-wide global hubs weld
almost every query into one mega-component (group sizes nothing like
Table I's S_g ≈ 10); the restricted relation recovers the paper's
many-small-groups structure.

CD, the component of every variable and each component's DD are
whole-program facts that no query in a batch changes.  They live in a
:class:`SchedulePlan`, built once per ``(pag, types)`` and rebuilt only
when the add-only PAG grows; :func:`schedule_queries` then costs
O(|batch| log |batch|) per batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.query import Query
from repro.errors import SchedulingError
from repro.ir.types import TypeTable, _tarjan_scc
from repro.pag.graph import PAG

__all__ = [
    "SchedulePlan",
    "QueryGroup",
    "MERGED_COMPONENT",
    "DEFAULT_BULK_CROSSOVER",
    "schedule_queries",
    "group_queries",
    "balance_groups",
    "connection_distances",
    "dedupe_queries",
    "prefer_bulk",
]

#: Sentinel component id for a work unit merged across components.
MERGED_COMPONENT = -1

#: Batch size at which the ``hybrid`` backend hands a batch to the bulk
#: matrix kernel instead of the demand engine.  Measured, not guessed:
#: ``repro bench --backend matrix --compare`` against the demand
#: baseline (DESIGN.md §4.15) shows the bulk kernel losing on every
#: suite whose standard workload stays in the low hundreds of queries
#: and winning from roughly the _213_javac scale (~1,000 queries, ~2x
#: on tomcat's 1,940) — interactive/sparse batches stay on the demand
#: engine well clear of the crossover.
DEFAULT_BULK_CROSSOVER = 1000


def prefer_bulk(n_queries: int) -> bool:
    """Hybrid routing policy: should a batch of ``n_queries`` go to the
    bulk matrix kernel (True) or the demand engine (False)?"""
    return n_queries >= DEFAULT_BULK_CROSSOVER


def dedupe_queries(pag: PAG, queries: Sequence[Query]) -> List[Query]:
    """Canonicalise a demanded-query list for batch entry.

    Multiple clients demanding the same variable (the checker framework
    does this constantly: the null-dereference and race checkers both
    query every dereferenced base) must share one traversal, so queries
    are rewritten onto their cycle-collapsed representative node and
    deduplicated on ``(rep(var), ctx)``, preserving first-demand order.
    """
    seen: Set[Tuple[int, Tuple[int, ...]]] = set()
    out: List[Query] = []
    for q in queries:
        key = (pag.rep(q.var), q.ctx)
        if key in seen:
            continue
        seen.add(key)
        out.append(Query(key[0], q.ctx))
    return out


@dataclass
class QueryGroup:
    """One schedulable work unit: CD-ordered queries sharing a DD.

    ``component`` is the weakly-connected component of the ``direct``
    graph the queries came from, or ``MERGED_COMPONENT`` (-1) for a
    unit the load balancer merged across distinct components.
    """

    queries: List[Query]
    dd: float
    component: int

    def __len__(self) -> int:
        return len(self.queries)


def _direct_successors(pag: PAG) -> Dict[int, List[int]]:
    """Forward adjacency of the ``direct`` relation: grammar (5)'s
    ``assign_l | param_i | ret_i`` edges whose both endpoints are
    application-code nodes (see the module docstring)."""
    succ: Dict[int, List[int]] = {v: [] for v in pag.variables()}

    def keep(a: int, b: int) -> bool:
        return pag.is_app(a) and pag.is_app(b)

    for src, dsts in pag.assign_out.items():
        succ.setdefault(src, []).extend(d for d in dsts if keep(src, d))
    for src, pairs in pag.param_out.items():
        succ.setdefault(src, []).extend(d for d, _site in pairs if keep(src, d))
    for src, pairs in pag.ret_out.items():
        succ.setdefault(src, []).extend(d for d, _site in pairs if keep(src, d))
    return succ


def connection_distances(pag: PAG) -> Tuple[Dict[int, int], Dict[int, int]]:
    """(CD, component id) per variable.

    CD(v) is the node count of the longest ``direct`` path through
    ``v``, modulo recursion: computed on the SCC condensation as
    ``longest-in + longest-out + 1``.  The component id identifies
    ``v``'s weakly connected component of the ``direct`` graph — the
    paper's query group.
    """
    succ = _direct_successors(pag)
    nodes = list(succ.keys())
    comp_of, comps = _tarjan_scc(nodes, succ)

    n_comps = len(comps)
    comp_succ: List[Set[int]] = [set() for _ in range(n_comps)]
    comp_pred: List[Set[int]] = [set() for _ in range(n_comps)]
    for n, ms in succ.items():
        cn = comp_of[n]
        for m in ms:
            cm = comp_of[m]
            if cn != cm:
                comp_succ[cn].add(cm)
                comp_pred[cm].add(cn)

    # Tarjan emits components in reverse topological order: every
    # successor component of c has a smaller id than c.
    longest_out = [0] * n_comps
    for c in range(n_comps):
        longest_out[c] = max(
            (longest_out[s] + 1 for s in comp_succ[c]), default=0
        )
    longest_in = [0] * n_comps
    for c in range(n_comps - 1, -1, -1):
        longest_in[c] = max((longest_in[p] + 1 for p in comp_pred[c]), default=0)

    # Weakly connected components via union-find over direct edges.
    parent: Dict[int, int] = {n: n for n in nodes}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for n, ms in succ.items():
        for m in ms:
            union(n, m)

    cd: Dict[int, int] = {}
    group: Dict[int, int] = {}
    for n in nodes:
        c = comp_of[n]
        cd[n] = longest_in[c] + longest_out[c] + 1
        group[n] = find(n)
    return cd, group


#: A PAG's mutation state.  The PAG is add-only, so every node or edge
#: add moves it.
Stamp = Tuple[int, int]


def _stamp(pag: PAG) -> Stamp:
    return (len(pag), pag.n_edges)


class SchedulePlan:
    """The query-independent half of scheduling: CD and the ``direct``
    component of every variable, and the min-DD of every component.

    A plan is bound to one ``(pag, types)`` pair.  It starts empty and
    :meth:`refresh` computes it whenever its stamp no longer matches
    the PAG's ``(len(pag), pag.n_edges)`` — so a resident runner pays
    the whole-program pass once, and again only after the PAG grew.
    """

    def __init__(self, pag: PAG, types: Optional[TypeTable] = None) -> None:
        self.pag = pag
        self.types = types
        #: PAG state the tables below were computed at (None: never).
        self.stamp: Optional[Stamp] = None
        self.cd: Dict[int, int] = {}
        self.component_of: Dict[int, int] = {}
        self.comp_dd: Dict[int, float] = {}

    @property
    def fresh(self) -> bool:
        """Do the tables describe the PAG as it is now?"""
        return self.stamp == _stamp(self.pag)

    def covers(self, pag: PAG, types: Optional[TypeTable]) -> bool:
        """Was this plan made for ``pag`` and ``types``?"""
        return pag is self.pag and types is self.types

    def refresh(self, recorder=None) -> "SchedulePlan":
        """(Re)compute the tables if the PAG moved since the last
        build; counts ``sched.plan_builds`` on ``recorder`` when it
        does."""
        if self.fresh:
            return self
        pag, types = self.pag, self.types
        stamp = _stamp(pag)
        cd, component_of = connection_distances(pag)

        def dd_of(var: int) -> float:
            if types is None:
                return 1.0
            t = pag.type_name(var)
            if t is None or t not in types:
                return 1.0
            level = types.level(t)
            return 1.0 if level <= 0 else 1.0 / level

        # Component -> DD over *all* its variables (the paper takes the
        # min over the group, not just the queried members).
        comp_dd: Dict[int, float] = {}
        for var, comp in component_of.items():
            d = dd_of(var)
            if d < comp_dd.get(comp, float("inf")):
                comp_dd[comp] = d

        self.cd, self.component_of, self.comp_dd = cd, component_of, comp_dd
        self.stamp = stamp
        if recorder:
            recorder.count("sched.plan_builds")
        return self


def group_queries(
    plan: SchedulePlan, queries: Sequence[Query], recorder=None
) -> List[QueryGroup]:
    """Steps 1-3: one group per ``direct`` component among ``queries``,
    its members CD-ascending, the groups DD-ascending (ties by
    component id).  ``plan`` is refreshed first, counting
    ``sched.plan_builds`` on ``recorder`` if it rebuilds."""
    plan.refresh(recorder)
    pag = plan.pag
    cd, component_of, comp_dd = plan.cd, plan.component_of, plan.comp_dd

    by_comp: Dict[int, List[Query]] = {}
    for q in queries:
        by_comp.setdefault(component_of[pag.rep(q.var)], []).append(q)

    groups: List[QueryGroup] = []
    for comp, qs in by_comp.items():
        qs_sorted = sorted(qs, key=lambda q: (cd[pag.rep(q.var)], q.var, q.ctx))
        groups.append(QueryGroup(qs_sorted, comp_dd.get(comp, 1.0), comp))
    groups.sort(key=lambda g: (g.dd, g.component))
    return groups


def balance_groups(
    groups: Sequence[QueryGroup],
    target: Optional[int] = None,
    recorder=None,
) -> List[QueryGroup]:
    """Step 4: split the groups larger than ``target`` and merge each
    unit smaller than it with the next, keeping the issue order.
    ``target`` defaults to the paper's mean group size ``M``.  Counts
    ``sched.splits`` and ``sched.merges`` on ``recorder``."""
    if not groups:
        return []
    if target is None:
        # The paper's M is "the average size of these groups".  Most
        # components are singleton locals, which would drag a plain mean
        # to 1 and dissolve every real group; averaging over the
        # multi-member groups keeps the structure (and lands in the
        # S_g ≈ 4-19 range Table I reports).
        multi = [len(g) for g in groups if len(g) > 1]
        pool = multi if multi else [len(g) for g in groups]
        target = max(2, round(sum(pool) / len(pool)))

    n_splits = 0
    split: List[QueryGroup] = []
    for g in groups:
        if len(g) > target:
            n_splits += 1
            for i in range(0, len(g), target):
                split.append(
                    QueryGroup(g.queries[i : i + target], g.dd, g.component)
                )
        else:
            split.append(g)

    n_merges = 0
    merged: List[QueryGroup] = []
    for g in split:
        if merged and len(merged[-1]) < target:
            n_merges += 1
            prev = merged[-1]
            prev.queries.extend(g.queries)
            prev.dd = min(prev.dd, g.dd)
            # A unit absorbing queries from a different component no
            # longer *is* its first component; keeping the stale id
            # would misattribute the absorbed queries.
            if prev.component != g.component:
                prev.component = MERGED_COMPONENT
        else:
            merged.append(QueryGroup(list(g.queries), g.dd, g.component))

    if recorder:
        recorder.count_many({"sched.splits": n_splits, "sched.merges": n_merges})
    return merged


def schedule_queries(
    pag: PAG,
    queries: Sequence[Query],
    types: Optional[TypeTable] = None,
    *,
    target_group_size: Optional[int] = None,
    recorder=None,
    plan: Optional[SchedulePlan] = None,
) -> List[QueryGroup]:
    """Group, order and balance ``queries`` per Section III-C: the work
    units of a ``DQ`` batch, issued in order, each CD-ascending.

    ``types`` supplies the ``L(t)`` metric; without it every variable
    gets DD 1 (grouping and CD ordering still apply).
    ``target_group_size`` is the queries per work unit, by default the
    mean group size ``M``.  ``plan`` is a :class:`SchedulePlan` for the
    same ``pag`` and ``types``, refreshed here if the PAG moved since
    it was built; without one a throwaway plan is built.
    ``recorder`` (a :class:`repro.obs.Recorder`) gets the ``sched.*``
    counters: queries/components seen, groups emitted, splits, merges,
    and plan builds.
    """
    if not queries:
        return []
    for q in queries:
        if not pag.is_variable(pag.rep(q.var)):
            raise SchedulingError(f"query target {q.var} is not a variable")

    if plan is None:
        plan = SchedulePlan(pag, types)
    elif not plan.covers(pag, types):
        raise SchedulingError(
            "schedule plan was built for a different PAG or type table"
        )
    groups = group_queries(plan, queries, recorder)
    units = balance_groups(groups, target_group_size, recorder)
    if recorder:
        recorder.count_many(
            {
                "sched.runs": 1,
                "sched.queries": len(queries),
                "sched.components": len(groups),
                "sched.groups": len(units),
            }
        )
    return units
