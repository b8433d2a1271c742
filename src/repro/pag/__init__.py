"""Pointer Assignment Graph (PAG) — the paper's Fig. 1 and Fig. 4.

The PAG is the program representation the analysis traverses: nodes are
variables (local/global) and abstract objects (allocation sites); edges
are oriented in the direction of value flow and carry one of seven
kinds (``new``, ``assign_l``, ``assign_g``, ``ld(f)``, ``st(f)``,
``param_i``, ``ret_i``).  :mod:`repro.pag.build` lowers a mini-Java
:class:`~repro.ir.program.Program` onto it; :mod:`repro.pag.extended`
holds the Fig. 4 extension (``jmp`` shortcut edges and the special
unfinished node ``O``) used by the data-sharing scheme.
"""

from repro.pag.nodes import NodeKind
from repro.pag.edges import EdgeKind
from repro.pag.graph import PAG
from repro.pag.build import build_pag
from repro.pag.extended import FinishedJump, UnfinishedJump

__all__ = [
    "EdgeKind",
    "FinishedJump",
    "NodeKind",
    "PAG",
    "UnfinishedJump",
    "build_pag",
]
