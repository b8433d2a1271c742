"""Whole-program Andersen-style points-to analysis.

The related-work baseline of Table II (every prior parallel pointer
analysis the paper compares against is a variant of Andersen's
algorithm [2]) and this reproduction's *soundness oracle*: Andersen's
analysis is field-sensitive but context-insensitive, so for any
variable ``v`` the demand-driven CFL result (unlimited budget) must be
a subset of the Andersen result, with equality in context-insensitive
mode — the classic equivalence between the ``flowsTo`` CFL and
inclusion-based analysis.
"""

from repro.andersen.solver import AndersenResult, AndersenSolver

__all__ = ["AndersenResult", "AndersenSolver"]
