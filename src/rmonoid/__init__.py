"""
Finite R-trivial monoids and their primitive orthogonal idempotents.

Build a monoid from transformations, a multiplication table, or one of the
built-in families; inspect its weak order; construct the semilattice of
idempotent-generated left ideals with content and descent maps; and
compute, with exact integer arithmetic, the complete system of primitive
orthogonal idempotents of its monoid algebra.
"""

from .algebra import (AlgebraElement, basis, from_coeffs, one,
                      power_until_stable, zero)
from .errors import (CapExceeded, ConsistencyError, NotRTrivial, RMonoidError,
                     SpecError, StabilizationError)
from .families import (MonoidSpec, build_free_lrb, build_hecke_a, load,
                       parse_spec)
from .lattice import (LatticeNode, Semilattice, build_semilattice,
                      verify_weak_order_axioms)
from .monoid import (DEFAULT_CAP, Monoid, Transformation, close, compose,
                     from_table)
from .norton import (IdempotentSystem, NortonData, e_system, node_data,
                     verify_system)
from .order import (OrderRelation, check_left_absorption, is_j_trivial,
                    weak_preorder)
from .verify import run_full_suite

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "basis", "from_coeffs", "one", "power_until_stable",
    "zero",
    "CapExceeded", "ConsistencyError", "NotRTrivial", "RMonoidError",
    "SpecError", "StabilizationError",
    "MonoidSpec", "build_free_lrb", "build_hecke_a", "load", "parse_spec",
    "LatticeNode", "Semilattice", "build_semilattice",
    "verify_weak_order_axioms",
    "DEFAULT_CAP", "Monoid", "Transformation", "close", "compose",
    "from_table",
    "IdempotentSystem", "NortonData", "e_system", "node_data",
    "verify_system",
    "OrderRelation", "check_left_absorption", "is_j_trivial", "weak_preorder",
    "run_full_suite",
]
