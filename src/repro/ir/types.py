"""Type system for the mini-Java IR.

Types matter to the analysis in three places:

* virtual-call resolution (class-hierarchy analysis) needs subtype
  queries;
* the *dependence depth* metric of the paper's query-scheduling scheme
  (Section III-C2) is defined from the type *level* ``L(t)`` — the
  height of a type's field-containment hierarchy, computed "modulo
  recursion";
* arrays are modelled, as in the paper, by collapsing all elements into
  the special field :data:`ARRAY_FIELD` (``arr``).
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    TypeVar,
)

from repro.errors import IRError, ValidationError

__all__ = [
    "ARRAY_FIELD",
    "OBJECT",
    "Type",
    "PrimitiveType",
    "ClassType",
    "TypeTable",
]

_N = TypeVar("_N", bound=Hashable)

#: Name of the collapsed array-element field ("Loads and stores to array
#: elements are modeled by collapsing all elements into a special field,
#: denoted arr" — Section II-A).
ARRAY_FIELD = "arr"

#: Name of the implicit root class.
OBJECT = "Object"


class Type:
    """Abstract base for IR types."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    @property
    def is_reference(self) -> bool:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Type) and type(other) is type(self) and other.name == self.name

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.name))


class PrimitiveType(Type):
    """A non-pointer type (``int``, ``boolean``, ...).

    Primitive-typed variables never appear in the PAG; they exist in the
    IR so that realistic programs (loop counters, sizes) can be written
    without polluting the graph.
    """

    __slots__ = ()

    @property
    def is_reference(self) -> bool:
        return False


class ClassType(Type):
    """A reference type: a user class, ``Object``, or an array type.

    Array types are classes named ``Elem[]`` with a single field
    :data:`ARRAY_FIELD` of type ``Elem``; :meth:`TypeTable.array_of`
    creates them on demand.
    """

    __slots__ = ("superclass", "fields", "_is_array")

    def __init__(
        self,
        name: str,
        superclass: Optional[str] = OBJECT,
        fields: Optional[Dict[str, str]] = None,
        is_array: bool = False,
    ) -> None:
        super().__init__(name)
        #: Name of the superclass (``None`` only for ``Object`` itself).
        self.superclass = superclass
        #: Mapping of instance-field name to the *name* of its type.
        self.fields: Dict[str, str] = dict(fields or {})
        self._is_array = is_array

    @property
    def is_reference(self) -> bool:
        return True

    @property
    def is_array(self) -> bool:
        return self._is_array

    @property
    def element_type_name(self) -> str:
        """Element-type name of an array type."""
        if not self._is_array:
            raise IRError(f"{self.name} is not an array type")
        return self.fields[ARRAY_FIELD]


class TypeTable:
    """Registry of all types in a program.

    Provides subtype queries, field lookup through the superclass chain
    and the ``L(t)`` type-level metric used by query scheduling.
    """

    _PRIMITIVES = ("int", "boolean", "long", "double", "float", "char", "byte", "short", "void")

    def __init__(self) -> None:
        self._types: Dict[str, Type] = {}
        self._subclasses: Dict[str, Set[str]] = {}
        self._level_cache: Dict[str, int] = {}
        for prim in self._PRIMITIVES:
            self._types[prim] = PrimitiveType(prim)
        self.declare_class(OBJECT, superclass=None)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def declare_class(
        self,
        name: str,
        superclass: Optional[str] = OBJECT,
        fields: Optional[Dict[str, str]] = None,
    ) -> ClassType:
        """Register class ``name``; idempotent field merge on re-declaration."""
        if name.endswith("[]"):
            raise IRError(f"array type {name!r} must be created via array_of()")
        existing = self._types.get(name)
        if existing is not None:
            if not isinstance(existing, ClassType):
                raise IRError(f"{name!r} already declared as a primitive type")
            if fields:
                existing.fields.update(fields)
            return existing
        cls = ClassType(name, superclass=superclass, fields=fields)
        self._types[name] = cls
        self._level_cache.clear()
        if superclass is not None:
            self._subclasses.setdefault(superclass, set()).add(name)
        return cls

    def array_of(self, element_name: str) -> ClassType:
        """Return (creating on demand) the array type ``element_name[]``."""
        name = element_name + "[]"
        existing = self._types.get(name)
        if existing is not None:
            assert isinstance(existing, ClassType)
            return existing
        arr = ClassType(name, superclass=OBJECT, fields={ARRAY_FIELD: element_name}, is_array=True)
        self._types[name] = arr
        self._subclasses.setdefault(OBJECT, set()).add(name)
        self._level_cache.clear()
        return arr

    def resolve(self, name: str) -> Type:
        """Look up a type by name, materialising array types on demand."""
        t = self._types.get(name)
        if t is not None:
            return t
        if name.endswith("[]"):
            inner = name[:-2]
            self.resolve(inner)  # ensure the element type exists
            return self.array_of(inner)
        raise ValidationError(f"unknown type {name!r}")

    def __contains__(self, name: str) -> bool:
        try:
            self.resolve(name)
        except ValidationError:
            return False
        return True

    def __iter__(self) -> Iterator[Type]:
        return iter(self._types.values())

    def classes(self) -> List[ClassType]:
        """All reference types, in declaration order."""
        return [t for t in self._types.values() if isinstance(t, ClassType)]

    # ------------------------------------------------------------------
    # hierarchy queries
    # ------------------------------------------------------------------
    def superclass_chain(self, name: str) -> Iterator[ClassType]:
        """Yield ``name`` and then its superclasses up to ``Object``."""
        cur: Optional[str] = name
        seen: Set[str] = set()
        while cur is not None:
            if cur in seen:
                raise ValidationError(f"cyclic superclass chain through {cur!r}")
            seen.add(cur)
            t = self.resolve(cur)
            if not isinstance(t, ClassType):
                raise ValidationError(f"{cur!r} is not a class type")
            yield t
            cur = t.superclass

    def is_subtype(self, sub: str, sup: str) -> bool:
        """True iff ``sub`` <: ``sup`` (reflexive)."""
        if sub == sup:
            return True
        return any(t.name == sup for t in self.superclass_chain(sub))

    def subtypes(self, name: str) -> Set[str]:
        """All transitive subtypes of ``name`` including itself."""
        out: Set[str] = {name}
        frontier = [name]
        while frontier:
            cur = frontier.pop()
            for child in self._subclasses.get(cur, ()):
                if child not in out:
                    out.add(child)
                    frontier.append(child)
        return out

    def field_type(self, class_name: str, field: str) -> Type:
        """Type of ``field`` looked up through the superclass chain."""
        for cls in self.superclass_chain(class_name):
            if field in cls.fields:
                return self.resolve(cls.fields[field])
        raise ValidationError(f"class {class_name!r} has no field {field!r}")

    def all_fields(self, class_name: str) -> Dict[str, str]:
        """Field name → type-name map including inherited fields."""
        out: Dict[str, str] = {}
        for cls in reversed(list(self.superclass_chain(class_name))):
            out.update(cls.fields)
        return out

    # ------------------------------------------------------------------
    # the L(t) level metric (Section III-C2)
    # ------------------------------------------------------------------
    def level(self, name: str) -> int:
        """The paper's ``L(t)``::

            L(t) = max_{ti in FT(t)} L(ti) + 1   if isRef(t)
                 = 0                             otherwise

        where ``FT(t)`` enumerates the types of all instance fields of
        ``t`` (inherited fields included), *modulo recursion*: types in
        a field-containment cycle share one level computed from the
        fields that leave the cycle.  A reference type with no reference
        fields has level 1.
        """
        cached = self._level_cache.get(name)
        if cached is not None:
            return cached
        t = self.resolve(name)
        if not t.is_reference:
            self._level_cache[name] = 0
            return 0
        self._compute_levels()
        return self._level_cache[name]

    def _compute_levels(self) -> None:
        """Tarjan-condense the field-containment graph and propagate levels."""
        ref_names = [t.name for t in self.classes()]
        succ: Dict[str, List[str]] = {}
        for n in ref_names:
            outs: List[str] = []
            for ft_name in self.all_fields(n).values():
                ft = self.resolve(ft_name)
                if ft.is_reference:
                    outs.append(ft.name)
            succ[n] = outs

        comp_of, comps = _tarjan_scc(ref_names, succ)
        # Condensation is a DAG; compute level per component bottom-up.
        comp_level: Dict[int, int] = {}

        def comp_lv(cid: int) -> int:
            got = comp_level.get(cid)
            if got is not None:
                return got
            comp_level[cid] = 1  # provisional (breaks residual self-loops)
            best = 0
            for member in comps[cid]:
                for s in succ[member]:
                    sid = comp_of[s]
                    if sid != cid:
                        best = max(best, comp_lv(sid))
            comp_level[cid] = best + 1
            return best + 1

        for n in ref_names:
            self._level_cache[n] = comp_lv(comp_of[n])

    def dependence_depth(self, name: str) -> float:
        """``DD(t) = 1 / L(t)``; primitives get ``inf`` (never scheduled)."""
        lv = self.level(name)
        return float("inf") if lv == 0 else 1.0 / lv


def _tarjan_scc(
    nodes: Iterable[_N], succ: Mapping[_N, Sequence[_N]]
) -> tuple[Dict[_N, int], List[List[_N]]]:
    """Iterative Tarjan SCC over an adjacency keyed by any hashable node
    (type names, call-graph method names, PAG node ids).

    Returns (node → component id, component id → members).  Component
    ids are assigned in reverse topological order of the condensation.
    """
    index: Dict[_N, int] = {}
    low: Dict[_N, int] = {}
    on_stack: Set[_N] = set()
    stack: List[_N] = []
    comp_of: Dict[_N, int] = {}
    comps: List[List[_N]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: List[tuple[_N, int]] = [(root, 0)]
        while work:
            node, ei = work[-1]
            if ei == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = succ.get(node, ())
            while ei < len(children):
                child = children[ei]
                ei += 1
                if child not in index:
                    work[-1] = (node, ei)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                members: List[_N] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    members.append(w)
                    comp_of[w] = len(comps)
                    if w == node:
                        break
                comps.append(members)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comp_of, comps
