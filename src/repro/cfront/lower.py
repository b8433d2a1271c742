"""Lowering mini-C onto the PAG.

The pointee field of every storage cell is the single field ``*``.
Address-taken variables get the classic treatment:

* an abstract **storage object** ``cell:x`` and a synthetic pointer
  variable ``&x`` with ``&x <-new- cell:x``;
* every *direct* read/write of an address-taken ``x`` is rewritten to a
  load/store through ``&x`` — so ``*p = v`` (with ``p`` aliasing
  ``&x``) and ``r = x`` observe the same storage, as in C.

Variables never address-taken keep plain ``assign`` lowering (cheap and
precise).  Heap allocations (``p = alloc()``) become ordinary object
nodes.  Direct calls lower to ``param``/``ret`` edges; recursion cycles
are collapsed exactly like the Java front-end (via the same Tarjan SCC
over the — trivial, name-resolved — call graph).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.cfront.ast import (
    AddrOf, Alloc, CallStmt, CFunc, Copy, CProgram, LoadDeref, Ret, StoreDeref,
)
from repro.errors import PAGError
from repro.ir.types import _tarjan_scc
from repro.pag.graph import PAG

__all__ = ["CBuildResult", "lower_c", "DEREF_FIELD"]

#: The single pointee field of every storage cell.
DEREF_FIELD = "*"

RET = "$ret"


@dataclass
class CBuildResult:
    """A lowered C program: PAG plus name lookup tables."""

    pag: PAG
    program: CProgram
    var_ids: Dict[str, int] = field(default_factory=dict)
    obj_ids: Dict[str, int] = field(default_factory=dict)
    address_taken: FrozenSet[str] = frozenset()
    n_collapsed_recursive_sites: int = 0

    def var(self, name: str, func: Optional[str] = None) -> int:
        key = f"{name}@{func}" if func else name
        nid = self.var_ids.get(key)
        if nid is None:
            raise PAGError(f"no variable node {key!r}")
        return self.pag.rep(nid)

    def value_node(self, name: str, func: Optional[str] = None) -> int:
        """The node to *query* for ``name``'s current value.

        For address-taken variables the plain variable node is
        vestigial (every access is rewritten through the storage cell);
        this returns the synthetic shadow-read local ``name$val`` that
        loads the cell's pointee — the node whose points-to set answers
        "what may ``name`` hold?".  For other variables it is the
        variable node itself."""
        key = f"{name}@{func}" if func else name
        if key in self.address_taken:
            return self.var(f"{name}$val", func)
        return self.var(name, func)

    def addr(self, name: str, func: Optional[str] = None) -> int:
        """The synthetic ``&x`` pointer node."""
        return self.var(f"&{name}", func)

    def obj(self, label: str) -> int:
        nid = self.obj_ids.get(label)
        if nid is None:
            raise PAGError(f"no object node {label!r}")
        return nid


def _address_taken(program: CProgram) -> Set[Tuple[Optional[str], str]]:
    """(function | None for globals, var) pairs whose address is taken."""
    out: Set[Tuple[Optional[str], str]] = set()
    for func in program.functions.values():
        scope = set(func.all_vars())
        for stmt in func.body:
            if isinstance(stmt, AddrOf):
                owner = func.name if stmt.var in scope else None
                out.add((owner, stmt.var))
    return out


def _recursive_sites(program: CProgram) -> FrozenSet[int]:
    """Call sites inside call-graph SCCs (same collapsing as Java)."""
    succ: Dict[str, List[str]] = {f: [] for f in program.functions}
    site_edges: List[Tuple[str, str, int]] = []
    for func in program.functions.values():
        for stmt in func.body:
            if isinstance(stmt, CallStmt) and stmt.callee in program.functions:
                succ[func.name].append(stmt.callee)
                assert stmt.site_id is not None
                site_edges.append((func.name, stmt.callee, stmt.site_id))
    comp_of, _comps = _tarjan_scc(list(succ), succ)
    return frozenset(
        site for caller, callee, site in site_edges
        if caller == callee or comp_of[caller] == comp_of[callee]
    )


def lower_c(program: CProgram) -> CBuildResult:
    """Lower a sealed mini-C program to its PAG."""
    if not getattr(program, "_sealed", False):
        raise PAGError("program must be sealed before lowering")
    pag = PAG()
    result = CBuildResult(pag, program)
    taken = _address_taken(program)
    recursive = _recursive_sites(program)
    result.n_collapsed_recursive_sites = len(recursive)
    result.address_taken = frozenset(
        name if owner is None else f"{name}@{owner}" for owner, name in taken
    )

    # ---- nodes ---------------------------------------------------------
    def add_cell(owner: Optional[str], name: str) -> None:
        qual = name if owner is None else f"{name}@{owner}"
        label = f"cell:{qual}"
        obj = pag.add_obj(label)
        result.obj_ids[label] = obj
        addr_name = f"&{qual}" if owner is None else f"&{name}@{owner}"
        if owner is None:
            addr = pag.add_global(addr_name, is_app=False)
        else:
            addr = pag.add_local(addr_name, method=owner, is_app=False)
        result.var_ids[addr_name] = addr
        pag.add_new_edge(addr, obj)

    for g in program.globals:
        result.var_ids[g] = pag.add_global(g)
    for func in program.functions.values():
        for v in func.all_vars():
            qual = f"{v}@{func.name}"
            result.var_ids[qual] = pag.add_local(qual, method=func.name)
        result.var_ids[f"{RET}@{func.name}"] = pag.add_local(
            f"{RET}@{func.name}", method=func.name, is_app=False
        )
    for owner, name in sorted(taken, key=lambda p: (p[0] or "", p[1])):
        add_cell(owner, name)
        # queryable shadow read: name$val <- ld(*) <- &name
        qual = name if owner is None else f"{name}@{owner}"
        shadow_name = f"{name}$val" if owner is None else f"{name}$val@{owner}"
        shadow = pag.add_local(shadow_name, method=owner, is_app=False)
        result.var_ids[shadow_name] = shadow
        addr_name = f"&{qual}" if owner is None else f"&{name}@{owner}"
        pag.add_load_edge(shadow, result.var_ids[addr_name], DEREF_FIELD)

    # ---- statement lowering ---------------------------------------------
    lowering = _FuncLowering(program, result, taken, recursive)
    for func in program.functions.values():
        lowering.lower(func)
    return result


class _FuncLowering:
    def __init__(self, program, result, taken, recursive) -> None:
        self.program = program
        self.result = result
        self.taken = taken
        self.recursive = recursive
        self._temp = 0

    # -- name resolution ----------------------------------------------------
    def _node(self, func: CFunc, name: str) -> int:
        local = f"{name}@{func.name}"
        nid = self.result.var_ids.get(local)
        if nid is not None:
            return nid
        return self.result.var_ids[name]

    def _is_taken(self, func: CFunc, name: str) -> bool:
        if name in func.all_vars():
            return (func.name, name) in self.taken
        return (None, name) in self.taken

    def _addr_node(self, func: CFunc, name: str) -> int:
        if name in func.all_vars():
            return self.result.var_ids[f"&{name}@{func.name}"]
        return self.result.var_ids[f"&{name}"]

    def _fresh(self, func: CFunc) -> int:
        self._temp += 1
        name = f"$t{self._temp}@{func.name}"
        nid = self.result.pag.add_local(name, method=func.name, is_app=False)
        self.result.var_ids[name] = nid
        return nid

    # -- read/write through storage rewriting --------------------------------
    def _read(self, func: CFunc, name: str) -> int:
        """A node carrying ``name``'s current value."""
        node = self._node(func, name)
        if not self._is_taken(func, name):
            return node
        # address-taken: value lives in the cell; load it out
        temp = self._fresh(func)
        self.result.pag.add_load_edge(temp, self._addr_node(func, name), DEREF_FIELD)
        return temp

    def _write(self, func: CFunc, name: str) -> Tuple[int, Optional[int]]:
        """(node to receive the value, or a temp whose value must then be
        stored into the cell)."""
        node = self._node(func, name)
        if not self._is_taken(func, name):
            return node, None
        temp = self._fresh(func)
        return temp, self._addr_node(func, name)

    def _finish_write(self, addr: Optional[int], temp: int) -> None:
        if addr is not None:
            self.result.pag.add_store_edge(addr, DEREF_FIELD, temp)

    # -- main ---------------------------------------------------------------
    def lower(self, func: CFunc) -> None:
        pag = self.result.pag
        alloc_idx = 0
        for stmt in func.body:
            if isinstance(stmt, Copy):
                src = self._read(func, stmt.source)
                dst, cell = self._write(func, stmt.target)
                self._assign(dst, src)
                self._finish_write(cell, dst)
            elif isinstance(stmt, AddrOf):
                dst, cell = self._write(func, stmt.target)
                self._assign(dst, self._addr_node(func, stmt.var))
                self._finish_write(cell, dst)
            elif isinstance(stmt, Alloc):
                label = f"heap:{func.name}:{alloc_idx}"
                alloc_idx += 1
                obj = pag.add_obj(label)
                self.result.obj_ids[label] = obj
                dst, cell = self._write(func, stmt.target)
                pag.add_new_edge(dst, obj)
                self._finish_write(cell, dst)
            elif isinstance(stmt, LoadDeref):
                ptr = self._read(func, stmt.pointer)
                dst, cell = self._write(func, stmt.target)
                pag.add_load_edge(dst, ptr, DEREF_FIELD)
                self._finish_write(cell, dst)
            elif isinstance(stmt, StoreDeref):
                ptr = self._read(func, stmt.pointer)
                src = self._read(func, stmt.source)
                pag.add_store_edge(ptr, DEREF_FIELD, src)
            elif isinstance(stmt, Ret):
                src = self._read(func, stmt.value)
                self._assign(self.result.var_ids[f"{RET}@{func.name}"], src)
            elif isinstance(stmt, CallStmt):
                self._lower_call(func, stmt)

    def _assign(self, dst: int, src: int) -> None:
        pag = self.result.pag
        if pag.is_global(dst) or pag.is_global(src):
            pag.add_gassign_edge(dst, src)
        else:
            pag.add_assign_edge(dst, src)

    def _lower_call(self, func: CFunc, stmt: CallStmt) -> None:
        pag = self.result.pag
        callee = self.program.functions[stmt.callee]
        assert stmt.site_id is not None
        collapse = stmt.site_id in self.recursive
        for formal_name, arg in zip(callee.params, stmt.args):
            formal = self.result.var_ids[f"{formal_name}@{callee.name}"]
            actual = self._read(func, arg)
            # formals may themselves be address-taken in the callee:
            # route through the cell like any other write
            if (callee.name, formal_name) in self.taken:
                temp = formal  # value arrives at the formal node...
                # ...and is mirrored into its cell
                pag.add_store_edge(
                    self.result.var_ids[f"&{formal_name}@{callee.name}"],
                    DEREF_FIELD,
                    formal,
                )
            if collapse:
                self._assign(formal, actual)
            else:
                pag.add_param_edge(formal, actual, stmt.site_id)
        if stmt.result is not None:
            retvar = self.result.var_ids[f"{RET}@{callee.name}"]
            dst, cell = self._write(func, stmt.result)
            if collapse:
                self._assign(dst, retvar)
            else:
                pag.add_ret_edge(dst, retvar, stmt.site_id)
            self._finish_write(cell, dst)
