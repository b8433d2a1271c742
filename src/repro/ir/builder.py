"""Fluent construction API for mini-Java programs.

Example — the essence of the paper's Fig. 2 ``Vector`` program::

    b = ProgramBuilder()
    vec = b.clazz("Vector")
    vec.field("elems", "Object[]")
    init = vec.method("<init>")
    init.local("t", "Object[]").alloc("t", "Object[]").store("this", "elems", "t")
    add = vec.method("add", params=[("e", "Object")])
    add.local("t", "Object[]").load("t", "this", "elems").store("t", "arr", "e")
    ...
    program = b.build()

All builder methods return the builder they were called on, so calls
chain.  :meth:`ProgramBuilder.build` validates and seals the program.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.ir.program import Clazz, Method, Program, THIS_VAR
from repro.ir.statements import Alloc, Assign, Call, Cast, Load, Return, Store
from repro.ir.types import OBJECT

__all__ = ["ProgramBuilder", "ClassBuilder", "MethodBuilder"]


class MethodBuilder:
    """Builds one method body; returned by :meth:`ClassBuilder.method`."""

    def __init__(self, program: Program, method: Method) -> None:
        self._program = program
        self._method = method

    @property
    def method(self) -> Method:
        return self._method

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------
    def local(
        self,
        name: str,
        type_name: str,
        annotations: Sequence[str] = (),
    ) -> "MethodBuilder":
        """Declare a local variable (type checked at build time).

        ``annotations`` are checker tags (``@source``/``@sink`` in the
        concrete syntax), stored without the ``@``.
        """
        self._method.declare_local(name, type_name, annotations=tuple(annotations))
        return self

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def alloc(
        self, target: str, type_name: str, loc: Optional[int] = None
    ) -> "MethodBuilder":
        """``target = new type_name``."""
        self._method.add_statement(Alloc(target, type_name, loc=loc))
        return self

    def assign(
        self, target: str, source: str, loc: Optional[int] = None
    ) -> "MethodBuilder":
        """``target = source``."""
        self._method.add_statement(Assign(target, source, loc=loc))
        return self

    def cast(
        self, target: str, type_name: str, source: str, loc: Optional[int] = None
    ) -> "MethodBuilder":
        """``target = (type_name) source`` — a checked downcast."""
        self._method.add_statement(Cast(target, type_name, source, loc=loc))
        return self

    def load(
        self, target: str, base: str, field: str, loc: Optional[int] = None
    ) -> "MethodBuilder":
        """``target = base.field``."""
        self._method.add_statement(Load(target, base, field, loc=loc))
        return self

    def store(
        self, base: str, field: str, source: str, loc: Optional[int] = None
    ) -> "MethodBuilder":
        """``base.field = source``."""
        self._method.add_statement(Store(base, field, source, loc=loc))
        return self

    def call(
        self,
        receiver: str,
        method_name: str,
        args: Sequence[str] = (),
        result: Optional[str] = None,
        loc: Optional[int] = None,
    ) -> "MethodBuilder":
        """Virtual call ``[result =] receiver.method_name(args)``."""
        self._method.add_statement(
            Call(result, receiver, method_name, tuple(args), loc=loc)
        )
        return self

    def call_static(
        self,
        class_name: Optional[str],
        method_name: str,
        args: Sequence[str] = (),
        result: Optional[str] = None,
        loc: Optional[int] = None,
    ) -> "MethodBuilder":
        """Static call ``[result =] Class.method_name(args)``."""
        self._method.add_statement(
            Call(result, None, method_name, tuple(args), class_name=class_name, loc=loc)
        )
        return self

    def ret(self, value: str, loc: Optional[int] = None) -> "MethodBuilder":
        """``return value``."""
        self._method.add_statement(Return(value, loc=loc))
        return self


class ClassBuilder:
    """Builds one class; returned by :meth:`ProgramBuilder.clazz`."""

    def __init__(self, program: Program, clazz: Clazz) -> None:
        self._program = program
        self._clazz = clazz

    @property
    def name(self) -> str:
        return self._clazz.name

    def field(self, name: str, type_name: str) -> "ClassBuilder":
        """Declare an instance field (type checked at build time)."""
        cls_type = self._program.types.resolve(self._clazz.name)
        cls_type.fields[name] = type_name  # type: ignore[union-attr]
        return self

    def method(
        self,
        name: str,
        params: Iterable[Sequence[str]] = (),
        returns: str = "void",
        static: bool = False,
        is_app: Optional[bool] = None,
    ) -> MethodBuilder:
        """Declare a method and return its body builder.

        ``params`` is a sequence of ``(name, type_name)`` pairs — or
        ``(name, type_name, annotations)`` triples for annotated
        formals.  Instance methods get an implicit ``this`` formal of
        the owning class's type.
        """
        app = self._clazz.is_app if is_app is None else is_app
        method = Method(
            name, self._clazz.name, is_static=static, return_type=returns, is_app=app
        )
        if not static:
            method.declare_local(THIS_VAR, self._clazz.name, is_param=True)
        for param in params:
            p_name, p_type = param[0], param[1]
            p_annos = tuple(param[2]) if len(param) > 2 else ()
            method.declare_local(p_name, p_type, is_param=True, annotations=p_annos)
        self._clazz.add_method(method)
        return MethodBuilder(self._program, method)


class ProgramBuilder:
    """Top-level fluent builder for :class:`~repro.ir.program.Program`."""

    def __init__(self) -> None:
        self._program = Program()
        self._class_builders: Dict[str, ClassBuilder] = {}

    def clazz(
        self, name: str, extends: str = OBJECT, is_app: bool = True
    ) -> ClassBuilder:
        """Declare a class (or return the existing builder for ``name``)."""
        existing = self._class_builders.get(name)
        if existing is not None:
            return existing
        clazz = Clazz(name, superclass=extends, is_app=is_app)
        self._program.add_class(clazz)
        self._program.types.declare_class(name, superclass=extends)
        cb = ClassBuilder(self._program, clazz)
        self._class_builders[name] = cb
        return cb

    def global_var(
        self,
        name: str,
        type_name: str,
        annotations: Sequence[str] = (),
    ) -> "ProgramBuilder":
        """Declare a top-level global (static) variable.  Forward type
        references are fine: types are checked at build time."""
        self._program.declare_global(name, type_name, annotations=tuple(annotations))
        return self

    def build(self, validate: bool = True) -> Program:
        """Seal (assign call-site ids) and optionally validate."""
        self._program.seal()
        if validate:
            from repro.ir.validator import validate_program

            validate_program(self._program)
        return self._program

    @property
    def program(self) -> Program:
        """The (possibly unsealed) program under construction."""
        return self._program
