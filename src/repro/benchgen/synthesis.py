"""Seeded synthetic mini-Java program generator.

The generator emits four layers, mirroring what makes the paper's
benchmarks interesting to a demand-driven CFL analysis:

1. **Data types** — leaf classes plus a containment hierarchy
   (``Rec`` classes whose fields hold lower-level types), giving the
   type-level spread that query scheduling's dependence depths need.
2. **Library containers** — ``Box`` (single field with set/get) and
   ``Vec`` (collapsed-array element field with add/get, the paper's
   Fig. 2 pattern), optionally with subclass overrides for CHA
   fan-out.  Container accessors are the shared alias-matching rounds
   that data sharing shortcuts.
3. **Library utils** — static wrapper chains ``w0..w_k`` creating long
   ``param``/``ret`` paths (context-matching depth, large connection
   distances).
4. **Application classes** — static driver methods mixing allocations,
   container traffic (including a few *hub* containers written by many
   methods — the budget-exhausting, early-termination-prone queries),
   wrapper calls, global traffic and local copies.

Everything is driven by one ``random.Random(seed)``: identical params
⇒ identical program, PAG and workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.ir.builder import MethodBuilder, ProgramBuilder
from repro.ir.program import Program

__all__ = ["SynthesisParams", "synthesize_program"]


@dataclass(frozen=True)
class SynthesisParams:
    """Recipe for one synthetic benchmark program."""

    seed: int = 0
    # -- type layer ----------------------------------------------------
    n_data_classes: int = 3
    containment_depth: int = 3
    # -- library layer ---------------------------------------------------
    n_boxes: int = 2              #: Box-style containers
    n_vecs: int = 1               #: Vector-style containers (array field)
    n_box_subclasses: int = 1     #: overrides per Box (CHA fan-out)
    n_util_chains: int = 1        #: Util classes
    wrapper_chain_len: int = 4    #: static wrapper depth per Util
    # -- application layer -------------------------------------------------
    n_app_classes: int = 4
    methods_per_app_class: int = 3
    actions_per_method: int = 8
    n_globals: int = 2
    n_hub_containers: int = 1     #: heavily-written shared containers
    hub_writers: int = 6          #: stores into each hub
    # -- misc ----------------------------------------------------------
    p_reuse_container: float = 0.5  #: chance an action reuses a container
    #: copies emitted after each heap-read result (0..n).  Copies are
    #: the queries that *repeat* their origin's traversal — the
    #: redundancy data sharing eliminates — and the assign edges that
    #: form the scheduler's query groups.
    read_fanout: int = 2

    def validate(self) -> None:
        if self.containment_depth < 1:
            raise ReproError("containment_depth must be >= 1")
        if self.n_data_classes < 1:
            raise ReproError("n_data_classes must be >= 1")
        if self.n_boxes + self.n_vecs < 1:
            raise ReproError("need at least one container class")
        if self.n_app_classes < 1 or self.methods_per_app_class < 1:
            raise ReproError("need at least one application method")


class _Synth:
    """Single-use generator state."""

    def __init__(self, params: SynthesisParams) -> None:
        params.validate()
        self.p = params
        self.rng = random.Random(params.seed)
        self.b = ProgramBuilder()
        self.data_types: List[str] = []
        #: Rec class -> type of its f0 field (one containment level down).
        self.rec_f0: Dict[str, str] = {}
        #: top-level Rec classes (deepest containment level)
        self.top_recs: List[str] = []
        #: container class -> (field/elem type, kind 'box'|'vec', subclasses)
        self.containers: Dict[str, Tuple[str, str, List[str]]] = {}
        self.utils: List[str] = []       # Util class names
        self.globals: List[str] = []     # (typed Object)
        self.hubs: List[Tuple[str, str]] = []  # (global name, container class)
        self.rec_hubs: List[Tuple[str, str]] = []  # (global name, top Rec class)
        #: static app helpers other app methods call: (class, method)
        self.app_helpers: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------
    def build(self) -> Program:
        self._make_data_types()
        self._make_containers()
        self._make_utils()
        self._make_globals_and_hubs()
        self._make_app_classes()
        return self.b.build()

    # ------------------------------------------------------------------
    # layer 1: data types
    # ------------------------------------------------------------------
    def _make_data_types(self) -> None:
        p, rng = self.p, self.rng
        level_types: List[List[str]] = []
        leaves = []
        for i in range(p.n_data_classes):
            name = f"Data{i}"
            self.b.clazz(name, is_app=False)
            leaves.append(name)
        level_types.append(leaves)
        for depth in range(1, p.containment_depth):
            layer = []
            for i in range(max(1, p.n_data_classes // 2)):
                name = f"Rec{depth}_{i}"
                cb = self.b.clazz(name, is_app=False)
                # f0 always descends exactly one containment level, so
                # field chains walk the hierarchy deterministically.
                f0_type = rng.choice(level_types[depth - 1])
                cb.field("f0", f0_type)
                self.rec_f0[name] = f0_type
                if rng.random() < 0.5:
                    cb.field("f1", rng.choice(level_types[depth - 1]))
                layer.append(name)
            level_types.append(layer)
        self.top_recs = level_types[-1] if p.containment_depth > 1 else []
        self.data_types = [t for layer in level_types for t in layer]

    def _rand_data_type(self) -> str:
        return self.rng.choice(self.data_types)

    # ------------------------------------------------------------------
    # layer 2: containers
    # ------------------------------------------------------------------
    def _make_containers(self) -> None:
        p = self.p
        for i in range(p.n_boxes):
            name = f"Box{i}"
            # Per-class field names keep unrelated boxes' store sets
            # disjoint: alias rounds stay cheap except where the heavy
            # shared structures (hubs, Rec chains) are involved, so a
            # doomed query dies inside ONE dominant round (Fig. 3b)
            # rather than across hundreds of trivial ones.
            fld = f"val{i}"
            cb = self.b.clazz(name, is_app=False)
            cb.field(fld, "Object")
            cb.method("set", params=[("v", "Object")]).store("this", fld, "v")
            (
                cb.method("get", returns="Object")
                .local("r", "Object")
                .load("r", "this", fld)
                .ret("r")
            )
            subs: List[str] = []
            for si in range(p.n_box_subclasses):
                sub_name = f"{name}Sub{si}"
                sub = self.b.clazz(sub_name, extends=name, is_app=False)
                # Override get with an equivalent body: same answers,
                # wider CHA callee sets.
                (
                    sub.method("get", returns="Object")
                    .local("r", "Object")
                    .load("r", "this", fld)
                    .ret("r")
                )
                subs.append(sub_name)
            self.containers[name] = ("Object", "box", subs)
        for i in range(p.n_vecs):
            name = f"Vec{i}"
            fld = f"elems{i}"
            cb = self.b.clazz(name, is_app=False)
            cb.field(fld, "Object[]")
            (
                cb.method("<init>")
                .local("t", "Object[]")
                .alloc("t", "Object[]")
                .store("this", fld, "t")
            )
            (
                cb.method("add", params=[("e", "Object")])
                .local("t", "Object[]")
                .load("t", "this", fld)
                .store("t", "arr", "e")
            )
            (
                cb.method("get", returns="Object")
                .local("t", "Object[]")
                .local("r", "Object")
                .load("t", "this", fld)
                .load("r", "t", "arr")
                .ret("r")
            )
            self.containers[name] = ("Object", "vec", [])

    def _rand_container(self) -> str:
        return self.rng.choice(sorted(self.containers))

    # ------------------------------------------------------------------
    # layer 3: wrapper chains
    # ------------------------------------------------------------------
    def _make_utils(self) -> None:
        p = self.p
        for u in range(p.n_util_chains):
            name = f"Util{u}"
            cb = self.b.clazz(name, is_app=False)
            cb.method("w0", params=[("x", "Object")], returns="Object", static=True).ret("x")
            for k in range(1, p.wrapper_chain_len):
                (
                    cb.method(
                        f"w{k}", params=[("x", "Object")], returns="Object", static=True
                    )
                    .local("y", "Object")
                    .call_static(name, f"w{k - 1}", ["x"], result="y")
                    .ret("y")
                )
            self.utils.append(name)

    # ------------------------------------------------------------------
    # layer 4: globals, hubs and application code
    # ------------------------------------------------------------------
    def _make_globals_and_hubs(self) -> None:
        p = self.p
        for g in range(p.n_globals):
            self.b.global_var(f"G{g}", "Object")
            self.globals.append(f"G{g}")
        for h in range(p.n_hub_containers):
            cont = self._rand_container()
            gname = f"HUB{h}"
            self.b.global_var(gname, cont)
            self.hubs.append((gname, cont))
        if self.top_recs:
            for h in range(max(2, p.n_hub_containers)):
                top = self.rng.choice(self.top_recs)
                gname = f"RHUB{h}"
                self.b.global_var(gname, top)
                self.rec_hubs.append((gname, top))
        if self.hubs or self.rec_hubs:
            setup = self.b.clazz("HubSetup", is_app=False).method("init", static=True)
            for i, (gname, cont) in enumerate(self.hubs):
                setup.local(f"h{i}", cont).alloc(f"h{i}", cont)
                if self.containers[cont][1] == "vec":
                    setup.call(f"h{i}", "<init>")
                setup.assign(gname, f"h{i}")
            for i, (gname, top) in enumerate(self.rec_hubs):
                # Allocate the hub record and one full nested chain.
                prev = f"r{i}_0"
                setup.local(prev, top).alloc(prev, top)
                setup.assign(gname, prev)
                cur_cls = top
                k = 1
                while cur_cls in self.rec_f0:
                    inner_cls = self.rec_f0[cur_cls]
                    cur = f"r{i}_{k}"
                    setup.local(cur, inner_cls).alloc(cur, inner_cls)
                    setup.store(prev, "f0", cur)
                    prev, cur_cls, k = cur, inner_cls, k + 1

    def _make_app_classes(self) -> None:
        p = self.p
        # Helpers first: app-to-app calls connect locals across methods
        # through param/ret edges (the scheduler's query groups) and add
        # call-chain depth.  Helpers of class c may call helpers of
        # classes < c, so chains nest without recursion.
        builders = [self.b.clazz(f"App{c}", is_app=True) for c in range(p.n_app_classes)]
        for c, cb in enumerate(builders):
            mb = cb.method(
                f"help{c}", params=[("a", "Object")], returns="Object", static=True
            )
            self._fill_method(mb, f"App{c}.help{c}", param_in="a", helper=True)
            self.app_helpers.append((f"App{c}", f"help{c}"))
        for c, cb in enumerate(builders):
            for m in range(p.methods_per_app_class):
                mb = cb.method(f"run{m}", static=True)
                self._fill_method(mb, f"App{c}.run{m}")

    def _fill_method(
        self,
        mb: MethodBuilder,
        qualified: str,
        param_in: Optional[str] = None,
        helper: bool = False,
    ) -> None:
        p, rng = self.p, self.rng
        counter = [0]
        # name -> type of usable locals, by category
        objs: List[str] = []          # Object-compatible payload locals
        conts: Dict[str, str] = {}    # container local -> class
        if param_in is not None:
            objs.append(param_in)

        def fresh(type_name: str) -> str:
            counter[0] += 1
            name = f"v{counter[0]}"
            mb.local(name, type_name)
            return name

        def fan_out(origin: str) -> None:
            """Emit a copy chain off a heap-read result: each copy's
            query re-traverses the origin's paths (the cross-query
            redundancy of Section III-B) and the assign edges connect
            the group for the scheduler."""
            prev = origin
            for _ in range(rng.randint(0, p.read_fanout)):
                nxt = fresh("Object")
                mb.assign(nxt, prev)
                objs.append(nxt)
                prev = nxt

        def ensure_payload() -> str:
            if objs and rng.random() < 0.6:
                return rng.choice(objs)
            v = fresh("Object")
            # allocate a data object (upcast into the Object-typed local)
            mb.alloc(v, self._rand_data_type())
            objs.append(v)
            return v

        def ensure_container() -> Tuple[str, str]:
            if conts and rng.random() < p.p_reuse_container:
                name = rng.choice(sorted(conts))
                return name, conts[name]
            cls = self._rand_container()
            v = fresh(cls)  # declared as the base class...
            subs = self.containers[cls][2]
            # ...but possibly holding a subclass instance (CHA fan-out).
            mb.alloc(v, rng.choice([cls] + subs))
            if self.containers[cls][1] == "vec":
                mb.call(v, "<init>")
            conts[v] = cls
            return v, cls

        def put_into(cont: str, cls: str, value: str) -> None:
            kind = self.containers[cls][1]
            mb.call(cont, "set" if kind == "box" else "add", [value])

        def hub_local_of(gname: str, cont_cls: str) -> str:
            hub_local = fresh(cont_cls)
            mb.assign(hub_local, gname)
            return hub_local

        hub_w = 2 if self.hubs else 0
        rhub_w = 6 if self.rec_hubs else 0
        call_w = 4 if self.app_helpers else 0
        actions = [
            "put", "get", "wrap", "copy", "gput", "gget",
            "hub_put", "hub_get", "nest_put", "nest_get", "rec_chain",
            "pipeline", "rec_hub_put", "app_call",
        ]
        weights = [4, 5, 2, 2, 1, 1, hub_w, hub_w, 3, 3, 2, rhub_w, rhub_w, call_w]
        for _ in range(p.actions_per_method):
            act = rng.choices(actions, weights=weights)[0]
            if act == "app_call" and self.app_helpers:
                cls_name, m_name = rng.choice(self.app_helpers)
                out = fresh("Object")
                mb.call_static(cls_name, m_name, [ensure_payload()], result=out)
                objs.append(out)
                fan_out(out)
                continue
            if act == "put":
                cont, cls = ensure_container()
                put_into(cont, cls, ensure_payload())
            elif act == "get":
                cont, cls = ensure_container()
                out = fresh("Object")
                mb.call(cont, "get", [], result=out)
                objs.append(out)
                fan_out(out)
            elif act == "wrap" and self.utils:
                util = rng.choice(self.utils)
                depth = rng.randint(1, p.wrapper_chain_len - 1) if p.wrapper_chain_len > 1 else 0
                # Wrap either a payload or a container: container flow
                # through deep call chains makes alias rounds expensive.
                if conts and rng.random() < 0.5:
                    src = rng.choice(sorted(conts))
                    cls = conts[src]
                    out = fresh(cls)
                    mb.call_static(util, f"w{depth}", [src], result=out)
                    conts[out] = cls
                else:
                    out = fresh("Object")
                    mb.call_static(util, f"w{depth}", [ensure_payload()], result=out)
                    objs.append(out)
            elif act == "copy" and objs:
                out = fresh("Object")
                mb.assign(out, rng.choice(objs))
                objs.append(out)
            elif act == "gput" and self.globals:
                mb.assign(rng.choice(self.globals), ensure_payload())
            elif act == "gget" and self.globals:
                out = fresh("Object")
                mb.assign(out, rng.choice(self.globals))
                objs.append(out)
            elif act == "hub_put" and self.hubs:
                gname, cont_cls = rng.choice(self.hubs)
                hub = hub_local_of(gname, cont_cls)
                # Hubs often hold containers, nesting the alias rounds.
                if conts and rng.random() < 0.5:
                    inner = rng.choice(sorted(conts))
                    put_into(hub, cont_cls, inner)
                else:
                    put_into(hub, cont_cls, ensure_payload())
            elif act == "hub_get" and self.hubs:
                gname, cont_cls = rng.choice(self.hubs)
                hub = hub_local_of(gname, cont_cls)
                if rng.random() < 0.5:
                    # Pull a nested container back out and read through it:
                    # a two-level alias round.
                    inner_cls = self._rand_container()
                    inner = fresh(inner_cls)
                    mb.call(hub, "get", [], result=inner)
                    conts[inner] = inner_cls
                    out = fresh("Object")
                    mb.call(inner, "get", [], result=out)
                    objs.append(out)
                    fan_out(out)
                else:
                    out = fresh("Object")
                    mb.call(hub, "get", [], result=out)
                    objs.append(out)
                    fan_out(out)
            elif act == "nest_put":
                outer, ocls = ensure_container()
                inner, _icls = ensure_container()
                if outer != inner:
                    put_into(outer, ocls, inner)
            elif act == "nest_get":
                outer, _ocls = ensure_container()
                inner_cls = self._rand_container()
                inner = fresh(inner_cls)
                mb.call(outer, "get", [], result=inner)
                conts[inner] = inner_cls
                out = fresh("Object")
                mb.call(inner, "get", [], result=out)
                objs.append(out)
                fan_out(out)
            elif act == "rec_chain":
                # A field chain through the Rec hierarchy: store down,
                # load back — heap rounds on the f0/f1 fields.
                recs = sorted(self.rec_f0)
                if not recs:
                    continue
                rec_cls = rng.choice(recs)
                holder = fresh(rec_cls)
                mb.alloc(holder, rec_cls)
                mb.store(holder, "f0", ensure_payload())
                out = fresh("Object")
                mb.load(out, holder, "f0")
                objs.append(out)
                fan_out(out)
            elif act == "pipeline" and self.rec_hubs:
                # Fig. 5's shape: a chain of loads down a shared record
                # hub.  Each intermediate local is one containment level
                # shallower; queries on deep locals plant jmp edges the
                # shallow ones take (or early-terminate on).
                gname, top = rng.choice(self.rec_hubs)
                prev = fresh(top)
                mb.assign(prev, gname)
                cur_cls = top
                while cur_cls in self.rec_f0:
                    inner_cls = self.rec_f0[cur_cls]
                    cur = fresh(inner_cls)
                    mb.load(cur, prev, "f0")
                    prev, cur_cls = cur, inner_cls
                objs.append(prev)
                fan_out(prev)
            elif act == "rec_hub_put" and self.rec_hubs:
                # Store a fresh sub-chain into a shared record hub,
                # fattening the alias fan-in of every pipeline load.
                gname, top = rng.choice(self.rec_hubs)
                hub = fresh(top)
                mb.assign(hub, gname)
                if top in self.rec_f0:
                    inner_cls = self.rec_f0[top]
                    inner = fresh(inner_cls)
                    mb.alloc(inner, inner_cls)
                    mb.store(hub, "f0", inner)
                    if inner_cls in self.rec_f0:
                        inner2 = fresh(self.rec_f0[inner_cls])
                        mb.alloc(inner2, self.rec_f0[inner_cls])
                        mb.store(inner, "f0", inner2)
        if helper:
            mb.ret(ensure_payload())


def synthesize_program(params: SynthesisParams) -> Program:
    """Generate a sealed, validated program from ``params``.

    Deterministic: the same params always yield the same program.
    """
    return _Synth(params).build()
