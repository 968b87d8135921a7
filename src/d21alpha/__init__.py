"""Exact F_p computations for D(2,1;alpha) and its baby Verma cohomology."""

from .algebra import SuperAlgebra, build_algebra
from .cohomology import DerivationMap, H1Result, full_derivation_dims, h1, psi
from .enveloping import VermaModule

__all__ = [
    "DerivationMap",
    "H1Result",
    "SuperAlgebra",
    "VermaModule",
    "build_algebra",
    "full_derivation_dims",
    "h1",
    "psi",
]
