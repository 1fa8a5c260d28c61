"""radreduce: exact degree reduction and denesting of radicals (d + sqrt(R))^(1/p).

The radical y = (d + sqrt(R))^(1/p), of degree 2p over Q when its defining
polynomial is irreducible, is expressed through a p-th root z of the norm
D = d^2 - R, a zero u of an explicit monic degree-p polynomial, and sqrt(R).
All core arithmetic is exact (arbitrary-precision rationals); numeric
routines exist only to cross-validate with high-precision residuals.
"""

import importlib

# Where each public name lives.  A name's module is imported on first access
# (PEP 562), so `import radreduce` alone loads no submodule, and a command that
# needs only the coefficient families never loads the rest.
_EXPORTS = {
    "ClearedForm": "construct",
    "InstanceParams": "construct",
    "cofactor_poly": "construct",
    "cofactor_symbolic": "construct",
    "defining_poly": "construct",
    "sqrt_part_poly": "construct",
    "sqrt_part_symbolic": "construct",
    "trace_poly": "construct",
    "trace_poly_symbolic": "construct",
    "QuadExt": "exactnum",
    "Rational": "exactnum",
    "parse_rational": "exactnum",
    "rational_is_square": "exactnum",
    "rational_odd_root": "exactnum",
    "VerificationReport": "identity",
    "verify_all": "identity",
    "verify_expansion": "identity",
    "verify_fundamental_identity": "identity",
    "verify_recurrences": "identity",
    "ParamPoly": "poly",
    "Poly": "poly",
    "rational_roots": "poly",
    "CaseReport": "reduction",
    "ReductionError": "reduction",
    "ReductionResult": "reduction",
    "classify": "reduction",
    "construct_example": "reduction",
    "euclid_biquadratic": "reduction",
    "euclid_denest": "reduction",
    "reduce_radical": "reduction",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
