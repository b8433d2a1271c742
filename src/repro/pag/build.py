"""Lowering mini-Java programs onto the PAG (Fig. 1).

The lowering implements the paper's conventions:

* only reference-typed variables become nodes (a pointer analysis never
  sees primitives);
* array accesses use the collapsed :data:`~repro.ir.types.ARRAY_FIELD`
  (handled naturally — arrays are classes with that one field);
* an assignment with a global on either side becomes ``assign_g``; any
  other statement role occupied by a global is normalised through a
  synthetic local connected by ``assign_g`` edges, so that ``ld``,
  ``st``, ``param`` and ``ret`` edges connect locals only, exactly as
  Fig. 1 requires;
* per Section IV-A, call sites inside a call-graph recursion cycle are
  lowered as plain ``assign`` edges (recursion collapsing), and
  strongly connected ``assign`` components are merged (points-to cycle
  elimination); both always run.

Every edge enters the graph through the ``add_*_edge`` methods of
:class:`~repro.pag.graph.PAG`, which resolve its endpoints through
``rep()`` and record it once.  The merge re-inserts every edge through
the same code, so afterwards ``pag.n_edges`` counts the distinct edges
in representative terms, without ``assign``/``gassign`` self-loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.callgraph import CallGraph, build_call_graph
from repro.errors import PAGError
from repro.ir.program import Method, Program, Variable
from repro.ir.statements import Alloc, Assign, Call, Cast, Load, Return, Store
from repro.pag.graph import PAG

__all__ = ["build_pag", "BuildResult"]


@dataclass
class BuildResult:
    """A built PAG plus the lowering's side tables."""

    pag: PAG
    program: Program
    call_graph: CallGraph
    #: qualified variable name -> node id (globals under their bare name)
    var_ids: Dict[str, int] = field(default_factory=dict)
    #: allocation-site label -> object node id
    obj_ids: Dict[str, int] = field(default_factory=dict)
    n_collapsed_recursive_sites: int = 0
    n_merged_assign_nodes: int = 0

    def var(self, name: str, method: Optional[str] = None) -> int:
        """Node id of local ``name`` in ``method`` (``Class.m``), after
        cycle collapsing; or of global ``name`` when no method given."""
        key = f"{name}@{method}" if method else name
        nid = self.var_ids.get(key)
        if nid is None:
            raise PAGError(f"no variable node {key!r}")
        return self.pag.rep(nid)

    def obj(self, label: str) -> int:
        nid = self.obj_ids.get(label)
        if nid is None:
            raise PAGError(f"no object node {label!r}")
        return nid


def build_pag(program: Program) -> BuildResult:
    """Lower a sealed program to its PAG.

    ``param``/``ret`` edges of recursive call sites are demoted to
    ``assign``, then ``assign`` SCCs are merged, as the paper
    configures it.
    """
    if not program.is_sealed:
        raise PAGError("program must be sealed before lowering")
    cg = build_call_graph(program)
    recursive_sites = cg.recursive_sites()
    lowering = _Lowering(program, cg, recursive_sites)
    lowering.run()
    result = lowering.result
    result.n_collapsed_recursive_sites = len(recursive_sites)
    result.n_merged_assign_nodes = result.pag.collapse_assign_sccs()
    return result


class _Lowering:
    """Single-use lowering context."""

    def __init__(
        self, program: Program, cg: CallGraph, recursive_sites: frozenset
    ) -> None:
        self.program = program
        self.cg = cg
        self.recursive_sites = recursive_sites
        self.pag = PAG()
        self.result = BuildResult(self.pag, program, cg)
        #: (method, global name, 'r'|'w') -> synthetic local node id
        self._gtemps: Dict[Tuple[str, str, str], int] = {}

    # ------------------------------------------------------------------
    def run(self) -> None:
        self._make_nodes()
        for method in self.program.methods():
            alloc_idx = 0
            for stmt in method.body:
                if isinstance(stmt, Alloc):
                    self._lower_alloc(method, stmt, alloc_idx)
                    alloc_idx += 1
                elif isinstance(stmt, (Assign, Cast)):
                    # Casts do not change value flow: same assign edge.
                    self._lower_assign(method, stmt)
                elif isinstance(stmt, Load):
                    self._lower_load(method, stmt)
                elif isinstance(stmt, Store):
                    self._lower_store(method, stmt)
                elif isinstance(stmt, Call):
                    self._lower_call(method, stmt)
                elif isinstance(stmt, Return):
                    self._lower_return(method, stmt)

    # ------------------------------------------------------------------
    def _is_ref(self, var: Variable) -> bool:
        return self.program.types.resolve(var.type_name).is_reference

    def _make_nodes(self) -> None:
        for g in self.program.globals.values():
            if self._is_ref(g):
                self.result.var_ids[g.name] = self.pag.add_global(
                    g.name, g.type_name, is_app=True
                )
        for method in self.program.methods():
            for local in method.locals.values():
                if self._is_ref(local):
                    self.result.var_ids[local.qualified_name] = self.pag.add_local(
                        local.qualified_name,
                        local.type_name,
                        method.qualified_name,
                        is_app=method.is_app,
                    )

    def _node_of(self, method: Method, name: str) -> Optional[int]:
        """Node id for a variable reference in ``method``; None if the
        variable is primitive-typed (no PAG node)."""
        local = method.locals.get(name)
        if local is not None:
            return self.result.var_ids.get(local.qualified_name)
        g = self.program.globals.get(name)
        if g is not None:
            return self.result.var_ids.get(g.name)
        return None

    def _is_global_ref(self, method: Method, name: str) -> bool:
        return name not in method.locals and name in self.program.globals

    # -- global normalisation -------------------------------------------
    def _local_for_read(self, method: Method, name: str) -> Optional[int]:
        """A local node carrying ``name``'s value: the local itself, or a
        synthetic temp fed from the global by ``assign_g``."""
        nid = self._node_of(method, name)
        if nid is None:
            return None
        if not self._is_global_ref(method, name):
            return nid
        key = (method.qualified_name, name, "r")
        temp = self._gtemps.get(key)
        if temp is None:
            temp = self.pag.add_local(
                f"$g_{name}_r@{method.qualified_name}",
                self.program.globals[name].type_name,
                method.qualified_name,
                is_app=False,
            )
            self.pag.add_gassign_edge(temp, nid)
            self._gtemps[key] = temp
        return temp

    def _local_for_write(self, method: Method, name: str) -> Optional[int]:
        """A local node whose value flows into ``name``: the local
        itself, or a synthetic temp draining into the global."""
        nid = self._node_of(method, name)
        if nid is None:
            return None
        if not self._is_global_ref(method, name):
            return nid
        key = (method.qualified_name, name, "w")
        temp = self._gtemps.get(key)
        if temp is None:
            temp = self.pag.add_local(
                f"$g_{name}_w@{method.qualified_name}",
                self.program.globals[name].type_name,
                method.qualified_name,
                is_app=False,
            )
            self.pag.add_gassign_edge(nid, temp)
            self._gtemps[key] = temp
        return temp

    # -- statement lowering ----------------------------------------------
    def _lower_alloc(self, method: Method, stmt: Alloc, idx: int) -> None:
        target = self._local_for_write(method, stmt.target)
        if target is None:
            return
        label = f"o:{method.qualified_name}:{idx}"
        obj = self.pag.add_obj(label, stmt.type_name)
        self.result.obj_ids[label] = obj
        self.pag.add_new_edge(target, obj)

    def _lower_assign(self, method: Method, stmt: Assign) -> None:
        dst = self._node_of(method, stmt.target)
        src = self._node_of(method, stmt.source)
        if dst is None or src is None:
            return
        if self._is_global_ref(method, stmt.target) or self._is_global_ref(
            method, stmt.source
        ):
            self.pag.add_gassign_edge(dst, src)
        else:
            self.pag.add_assign_edge(dst, src)

    def _lower_load(self, method: Method, stmt: Load) -> None:
        target = self._local_for_write(method, stmt.target)
        base = self._local_for_read(method, stmt.base)
        if target is None or base is None:
            return
        # Loads of primitive-typed fields carry no pointer values.
        base_var = method.locals.get(stmt.base) or self.program.globals[stmt.base]
        f_type = self.program.types.field_type(base_var.type_name, stmt.field)
        if not f_type.is_reference:
            return
        self.pag.add_load_edge(target, base, stmt.field)

    def _lower_store(self, method: Method, stmt: Store) -> None:
        base = self._local_for_read(method, stmt.base)
        value = self._local_for_read(method, stmt.source)
        if base is None or value is None:
            return
        base_var = method.locals.get(stmt.base) or self.program.globals[stmt.base]
        f_type = self.program.types.field_type(base_var.type_name, stmt.field)
        if not f_type.is_reference:
            return
        self.pag.add_store_edge(base, stmt.field, value)

    def _lower_call(self, method: Method, stmt: Call) -> None:
        assert stmt.site_id is not None
        collapse = stmt.site_id in self.recursive_sites
        result_node = (
            self._local_for_write(method, stmt.result) if stmt.result else None
        )
        recv_node = (
            self._local_for_read(method, stmt.receiver) if stmt.receiver else None
        )
        arg_nodes = [self._local_for_read(method, a) for a in stmt.args]

        for edge in self.cg.callees_at_site(stmt.site_id):
            callee = self.program.method(edge.callee)
            self._wire_call(
                stmt.site_id, collapse, callee, recv_node, arg_nodes, result_node
            )

    def _wire_call(
        self,
        site: int,
        collapse: bool,
        callee: Method,
        recv_node: Optional[int],
        arg_nodes: list,
        result_node: Optional[int],
    ) -> None:
        def connect_param(formal_var: Variable, actual: Optional[int]) -> None:
            if actual is None:
                return
            formal = self.result.var_ids.get(formal_var.qualified_name)
            if formal is None:
                return
            if collapse:
                self.pag.add_assign_edge(formal, actual)
            else:
                self.pag.add_param_edge(formal, actual, site)

        if callee.this_var is not None:
            connect_param(callee.this_var, recv_node)
        for formal_var, actual in zip(callee.params, arg_nodes):
            if self._is_ref(formal_var):
                connect_param(formal_var, actual)
        if result_node is not None and callee.ret_var is not None:
            retvar = self.result.var_ids.get(callee.ret_var.qualified_name)
            if retvar is not None:
                if collapse:
                    self.pag.add_assign_edge(result_node, retvar)
                else:
                    self.pag.add_ret_edge(result_node, retvar, site)

    def _lower_return(self, method: Method, stmt: Return) -> None:
        ret_var = method.ret_var
        if ret_var is None or not self._is_ref(ret_var):
            return
        retnode = self.result.var_ids.get(ret_var.qualified_name)
        value = self._local_for_read(method, stmt.value)
        if retnode is None or value is None:
            return
        self.pag.add_assign_edge(retnode, value)
