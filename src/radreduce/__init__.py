"""radreduce: exact degree reduction and denesting of radicals (d + sqrt(R))^(1/p).

The radical y = (d + sqrt(R))^(1/p), of degree 2p over Q when its defining
polynomial is irreducible, is expressed through a p-th root z of the norm
D = d^2 - R, a zero u of an explicit monic degree-p polynomial, and sqrt(R).
All core arithmetic is exact (arbitrary-precision rationals); numeric
routines exist only to cross-validate with high-precision residuals.
"""

from .construct import (
    ClearedForm,
    InstanceParams,
    cofactor_poly,
    cofactor_symbolic,
    defining_polys,
    sqrt_part_poly,
    sqrt_part_symbolic,
    trace_poly,
    trace_poly_symbolic,
)
from .exactnum import (
    QuadExt,
    Rational,
    parse_rational,
    rational_is_square,
    rational_odd_root,
)
from .identity import (
    VerificationReport,
    verify_all,
    verify_expansion,
    verify_fundamental_identity,
    verify_recurrences,
)
from .poly import ParamPoly, Poly, rational_roots
from .reduction import (
    CaseReport,
    ReductionError,
    ReductionResult,
    classify,
    construct_example,
    euclid_biquadratic,
    euclid_denest,
    reduce_radical,
)

__all__ = [
    "CaseReport",
    "ClearedForm",
    "InstanceParams",
    "ParamPoly",
    "Poly",
    "QuadExt",
    "Rational",
    "ReductionError",
    "ReductionResult",
    "VerificationReport",
    "classify",
    "cofactor_poly",
    "cofactor_symbolic",
    "construct_example",
    "defining_polys",
    "euclid_biquadratic",
    "euclid_denest",
    "parse_rational",
    "rational_is_square",
    "rational_odd_root",
    "rational_roots",
    "reduce_radical",
    "sqrt_part_poly",
    "sqrt_part_symbolic",
    "trace_poly",
    "trace_poly_symbolic",
    "verify_all",
    "verify_expansion",
    "verify_fundamental_identity",
    "verify_recurrences",
]

__version__ = "0.1.0"
