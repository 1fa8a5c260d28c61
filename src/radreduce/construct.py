"""Builders for the named polynomials of a reduction instance.

An instance is (p, d, R) with p odd >= 3, d, R, D = d^2 - R all nonzero
rationals and sqrt(R) irrational; D is the norm of the radicand d + sqrt(R).
`InstanceParams.create` is the one place that decides validity, so every
builder and every caller may assume it.  The polynomials:

* defining polynomial   g  = (Z^p - d)^2 - R, degree 2p over Q;
* trace polynomial      f, monic of degree p, satisfied by the scaled
  conjugate sum u = z^((p-1)/2) (y + y');
* sqrt-part polynomial  A, degree p-1, giving the sqrt(R)-coefficient of the
  branch formula y_pm = z^((p+1)/2) (u/(2D) +- A(u) sqrt(R));
* cofactor polynomial   f', degree p-2, the partner of f in the fundamental
  identity 4 D^2 A^2 R = f*f' + Z^2 - 4D.

Each builder has a concrete mode (rational coefficients for given d, R) and a
symbolic mode (coefficients in Q[d, D]).  A and f' carry denominators in R
and D, so their symbolic form is a cleared numerator plus an explicit
denominator; this avoids rational-function arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeffs import coeff_a, coeff_c, coeff_cprime
from .exactnum import rational_is_square
from .poly import ParamPoly, Poly


class ReductionError(ValueError):
    """A standing assumption of the reduction is violated."""


@dataclass(frozen=True)
class InstanceParams:
    """Validated parameters (p, d, R) with the derived norm D = d^2 - R."""

    p: int
    d: Fraction
    R: Fraction
    D: Fraction

    @classmethod
    def create(cls, p: int, d, R) -> "InstanceParams":
        if not isinstance(p, int) or p < 3 or p % 2 == 0:
            raise ValueError(f"p must be an odd integer >= 3, got {p}")
        d = Fraction(d)
        R = Fraction(R)
        if d == 0:
            raise ValueError("d must be nonzero")
        if R == 0:
            raise ValueError("R must be nonzero")
        D = d * d - R
        if D == 0:
            raise ValueError("degenerate instance: d^2 - R = 0")
        if rational_is_square(R) is not None:
            raise ReductionError(
                f"R = {R} is a rational square; the reduction requires sqrt(R) irrational"
            )
        return cls(p, d, R, D)


@dataclass(frozen=True)
class ClearedForm:
    """A polynomial with denominators cleared: poly = numerator / denominator.

    The denominator is a single ParamPoly (symbolic mode); the numerator lives
    in Q[d, D][Z].
    """

    numerator: Poly
    denominator: ParamPoly


def trace_poly(params: InstanceParams) -> Poly:
    """Concrete trace polynomial f: monic, degree p, only odd-degree terms
    above the constant -2*d*D^((p-1)/2)."""
    p, d, D = params.p, params.d, params.D
    half = (p - 1) // 2
    coeffs = [Fraction(0)] * (p + 1)
    coeffs[0] = -2 * d * D**half
    for k in range(half + 1):
        coeffs[2 * k + 1] = coeff_c(p, k) * D ** (half - k)
    return Poly(coeffs)


def trace_poly_symbolic(p: int) -> Poly:
    """Trace polynomial with coefficients in Q[d, D]."""
    half = (p - 1) // 2
    coeffs = [ParamPoly()] * (p + 1)
    coeffs[0] = ParamPoly.monomial(-2, 1, half)
    for k in range(half + 1):
        coeffs[2 * k + 1] = ParamPoly.monomial(coeff_c(p, k), 0, half - k)
    return Poly(coeffs)


def sqrt_part_poly(params: InstanceParams) -> Poly:
    """Concrete sqrt-part polynomial A, degree p-1, rational coefficients."""
    p, d, R, D = params.p, params.d, params.R, params.D
    half = (p - 1) // 2
    coeffs = [Fraction(0)] * p
    for k in range(half + 1):
        coeffs[2 * k] = coeff_a(p, k) / (2 * R * D**k)
    sign = -1 if ((p + 1) // 2) % 2 else 1
    coeffs[1] = sign * d / (2 * R * D)
    return Poly(coeffs)


def sqrt_part_symbolic(p: int) -> ClearedForm:
    """Cleared numerator of A and its denominator 2*R*D^((p-1)/2), symbolic.

    A = numerator / denominator with R written as d^2 - D.
    """
    half = (p - 1) // 2
    coeffs = [ParamPoly()] * p
    for k in range(half + 1):
        coeffs[2 * k] = ParamPoly.monomial(coeff_a(p, k), 0, half - k)
    sign = -1 if ((p + 1) // 2) % 2 else 1
    coeffs[1] = ParamPoly.monomial(sign, 1, half - 1)
    den = ParamPoly({(2, half): 2, (0, half + 1): -2})  # 2 (d^2 - D) D^half
    return ClearedForm(Poly(coeffs), den)


def cofactor_poly(params: InstanceParams) -> Poly:
    """Concrete cofactor polynomial f', degree p-2, rational coefficients."""
    p, d, R, D = params.p, params.d, params.R, params.D
    half3 = (p - 3) // 2
    scale = Fraction(1) / (R * D**half3)
    coeffs = [Fraction(0)] * (p - 1)
    coeffs[0] = -2 * d * scale
    for j in range(half3 + 1):
        coeffs[2 * j + 1] = coeff_cprime(p, j) * scale / D**j
    return Poly(coeffs)


def cofactor_symbolic(p: int) -> ClearedForm:
    """Cleared numerator of f' and its denominator R*D^(p-3), symbolic."""
    half3 = (p - 3) // 2
    coeffs = [ParamPoly()] * (p - 1)
    coeffs[0] = ParamPoly.monomial(-2, 1, half3)
    for j in range(half3 + 1):
        coeffs[2 * j + 1] = ParamPoly.monomial(coeff_cprime(p, j), 0, half3 - j)
    den = ParamPoly({(2, p - 3): 1, (0, p - 2): -1})  # (d^2 - D) D^(p-3)
    return ClearedForm(Poly(coeffs), den)


def defining_poly(params: InstanceParams) -> Poly:
    """The degree-2p defining polynomial g = (Z^p - d)^2 - R of the radical
    over Q."""
    p, d = params.p, params.d
    coeffs = [Fraction(0)] * (2 * p + 1)
    coeffs[0] = params.D
    coeffs[p] = -2 * d
    coeffs[2 * p] = Fraction(1)
    return Poly(coeffs)
