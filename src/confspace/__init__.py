"""Exact spectral-sequence workbench for configuration spaces of closed
manifolds: graded algebras, graph-indexed bicomplexes, a dual complex built
from tensor powers, spectral-sequence pages over Q or F_p, and Massey-product
obstruction detectors.  Everything is computed in exact arithmetic."""

from .exactlinalg import Field, QQ, rank, kernel_basis, solve, NO_SOLUTION
from .algebra import (
    Algebra, TruncatedFreeCDGA, AxiomViolation, DegeneratePairing, Overflow,
    poincare_data, indecomposables, cohomology, connected_sum_model,
    tensor_algebra,
)
from . import catalog

__all__ = [
    "Field", "QQ", "rank", "kernel_basis", "solve", "NO_SOLUTION",
    "Algebra", "TruncatedFreeCDGA", "AxiomViolation", "DegeneratePairing",
    "Overflow", "poincare_data", "indecomposables", "cohomology",
    "connected_sum_model", "tensor_algebra", "catalog",
]
