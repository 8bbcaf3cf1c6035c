"""Exact orders of finite reductive monoids with zero.

Everything is computed symbolically as integer-coefficient polynomials in q
and only then evaluated at concrete prime powers, so inexact divisions (which
would signal bugs or inconsistent lattice data) can never hide.
"""

from .crosssection import (
    CrossSectionLattice,
    LatticeEntry,
    fundamental_lattice,
    is_j_irreducible,
    j_irreducible_lattice,
    load_lattice,
)
from .errors import (
    EnumerationTooLarge,
    GroupTooLarge,
    IndexOutOfRange,
    InvalidSupport,
    InvariantViolation,
    LatticeTooLarge,
    MonoidOrdersError,
    NonExactDivision,
    NonPrimeModulus,
    NotJIrreducible,
    UnsupportedType,
)
from .oracle import enumerate_rank_histogram, subspace_counts
from .orders import (
    ROUTES,
    OrderReport,
    all_orders,
    gl_strata,
    h_polynomial,
    symplectic_order,
)
from .qpoly import (
    QPolynomial,
    QProduct,
    div_exact,
    eval_big,
    expand,
    expand_all,
    is_palindromic,
)
from .rootsystem import (
    CartanType,
    RootSystemData,
    build,
    degrees,
    parse_subset,
    poincare_product,
)
from .weyl import coset_length_poly

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
