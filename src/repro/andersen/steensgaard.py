"""Steensgaard-style unification pre-analysis.

Section V-A cites Xu et al. [25]: a cheap pre-analysis computing
*must-not-alias* facts can cut unnecessary alias computations in the
demand-driven analysis (they report ~3× sequentially).  The classic
almost-linear-time candidate is Steensgaard's analysis: variables are
unified into equivalence classes such that any two possibly-aliased
variables end up in the same class; two variables in *different*
classes therefore **cannot** alias.

The solver runs union-find over the PAG:

* ``x <-assign- y`` (and global/param/ret variants) unifies the
  *pointees* of ``x`` and ``y`` — here, bidirectionally unifying the
  variables' classes (Steensgaard's inclusion-free approximation);
* ``x <-new- o`` binds object ``o`` into ``x``'s pointee class;
* ``x <-ld(f)- p`` / ``q <-st(f)- y`` unify through a per-class field
  slot: ``class(x) ~ fieldslot(class(p), f)`` and
  ``fieldslot(class(q), f) ~ class(y)``.

:class:`MustNotAlias` wraps the result for the engine's pre-filter:
``may_alias(p, q)`` is False only when provably separate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.pag.graph import PAG

__all__ = ["SteensgaardSolver", "MustNotAlias"]


class _UnionFind:
    __slots__ = ("parent", "rank")

    def __init__(self) -> None:
        self.parent: Dict[object, object] = {}
        self.rank: Dict[object, int] = {}

    def find(self, a):
        parent = self.parent
        if a not in parent:
            parent[a] = a
            self.rank[a] = 0
            return a
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return ra


class MustNotAlias:
    """Queryable must-not-alias relation from a unification solve."""

    def __init__(self, class_of: Dict[int, object], n_classes: int) -> None:
        self._class_of = class_of
        self.n_classes = n_classes

    def same_class(self, a: int, b: int) -> bool:
        ca = self._class_of.get(a)
        cb = self._class_of.get(b)
        if ca is None or cb is None:
            return True  # unknown nodes: be conservative
        return ca == cb

    def may_alias(self, a: int, b: int) -> bool:
        """False only when ``a`` and ``b`` provably never alias."""
        return self.same_class(a, b)

    def class_id(self, node: int) -> Optional[object]:
        return self._class_of.get(node)


class SteensgaardSolver:
    """One-pass unification over a PAG."""

    def __init__(self, pag: PAG) -> None:
        self.pag = pag

    def solve(self) -> MustNotAlias:
        pag = self.pag
        uf = _UnionFind()

        def var_key(v: int):
            return ("v", pag.rep(v))

        # assign-like edges unify the two variables' classes
        for index in (pag.assign_in, pag.gassign_in):
            for dst, srcs in index.items():
                for src in srcs:
                    uf.union(var_key(dst), var_key(src))
        for index in (pag.param_in, pag.ret_in):
            for dst, pairs in index.items():
                for src, _site in pairs:
                    uf.union(var_key(dst), var_key(src))

        # new edges bind objects into the variable's class
        for var, objs in pag.new_in.items():
            for obj in objs:
                uf.union(var_key(var), ("o", obj))

        # field accesses unify through per-class field slots.  Slots are
        # named by the *current* root, so iterate to a fixpoint: merging
        # two classes merges their slots on the next pass.
        loads: List[Tuple[int, int, str]] = []   # (target, base, field)
        stores: List[Tuple[int, int, str]] = []  # (base, value, field)
        for dst, pairs in pag.load_in.items():
            for base, f in pairs:
                loads.append((dst, base, f))
        for base, pairs in pag.store_in.items():
            for value, f in pairs:
                stores.append((value, base, f))

        def merging_union(a, b) -> bool:
            known = a in uf.parent and b in uf.parent
            ra, rb = uf.find(a), uf.find(b)
            if ra == rb:
                return False
            uf.union(ra, rb)
            return known  # fresh slot keys joining a class are free

        passes = 0
        while passes < 256:
            passes += 1
            merged = False
            for dst, base, f in loads:
                slot = ("f", uf.find(var_key(base)), f)
                merged |= merging_union(slot, var_key(dst))
            for value, base, f in stores:
                slot = ("f", uf.find(var_key(base)), f)
                merged |= merging_union(slot, var_key(value))
            # merging classes renames their field slots on the next
            # pass; once no pre-existing keys merge, slots are stable
            if not merged:
                break

        class_of: Dict[int, object] = {}
        for node in pag.node_ids():
            if pag.is_variable(node):
                class_of[node] = uf.find(var_key(node))
            else:
                class_of[node] = uf.find(("o", node))
        n_classes = len({uf.find(k) for k in list(uf.parent)})
        return MustNotAlias(class_of, n_classes)
