"""Exact-arithmetic toolkit for axial algebras.

Subpackages:

* ``poly`` / ``linalg`` -- the exact kernel: Q[lam, mu] and rational matrices,
  held as integers over a common denominator.
* ``fusion`` -- fusion rules and the Virasoro tables V(p, q).
* ``algebra`` -- structure-constant algebras and the axis/form predicates.
* ``sakuma`` -- the universal two-generated algebra for the Ising fusion
  rules V(4, 3) and its classification into the nine Norton-Sakuma algebras.
"""

from .poly import MultiPoly, LAM, MU
from .fusion import FusionRules, Grading, virasoro_rules, central_charge
from .algebra import StructureAlgebra, AxisReport, check_axis

__all__ = [
    "MultiPoly",
    "LAM",
    "MU",
    "FusionRules",
    "Grading",
    "virasoro_rules",
    "central_charge",
    "StructureAlgebra",
    "AxisReport",
    "check_axis",
]
