"""Domination polynomials of zero-divisor graphs of Z_n.

Three independent computations of the same counting polynomials — subset
brute force, a divisor-class engine, and per-family closed forms — plus a
verifier that cross-checks them coefficient by coefficient.

The package namespace holds the calls shown in README's "Library use" and
the types they take, return or raise; everything else is importable from
its own module.
"""

from .closedform import closed_domination
from .domcount import DominationKind, class_engine_poly, gamma_from_poly
from .errors import CapacityError, UnsupportedFamilyError
from .numtheory import Factorization, FamilyTag, classify_family, factorize
from .polyring import Polynomial
from .verify import VerificationReport, run_verification
from .zdgraph import ClassGraph, build_class_graph

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "ClassGraph", "DominationKind", "Factorization",
    "FamilyTag", "Polynomial", "UnsupportedFamilyError", "VerificationReport",
    "build_class_graph", "class_engine_poly", "classify_family",
    "closed_domination", "factorize", "gamma_from_poly", "run_verification",
]
