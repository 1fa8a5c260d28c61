"""Builders for the named polynomials of a reduction instance.

An instance is (p, d, R) with p odd >= 3, d, R, D = d^2 - R all nonzero
rationals and sqrt(R) irrational; D is the norm of the radicand d + sqrt(R).
`InstanceParams.create` is the one place that decides validity, so every
builder and every caller may assume it.  With h = (p-1)/2 and D_n(Z, D) the
Dickson polynomial of `coeffs.dickson`, the polynomials are:

* defining polynomial   g  = (Z^p - d)^2 - R, degree 2p over Q;
* trace polynomial      f  = D_p - 2 d D^h, monic of degree p, satisfied by
  the scaled conjugate sum u = z^h (y + y');
* sqrt-part polynomial  A  = (-1)^h (D_{p-1} - d D^(h-1) Z) / (2 R D^h), the
  sqrt(R)-coefficient of the branches y_pm = z^(h+1) (u/(2D) +- A(u) sqrt(R));
* cofactor polynomial   f' = (D_{p-2} - 2 d D^(h-1)) / (R D^(p-3)), the
  partner of f in the fundamental identity 4 D^2 A^2 R = f*f' + Z^2 - 4D.

f, A and f' are each stated once, in `_statement`; the concrete builders
(rational coefficients for given d, R) and the symbolic ones (a numerator in
Q[d, D][Z] over a denominator, R written as d^2 - D) evaluate that statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeffs import dickson
from .exactnum import check_p, rational_is_square
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
        check_p(p)
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
    """poly = numerator / denominator: a numerator in Q[d, D][Z] over a single
    ParamPoly, the symbolic form of a polynomial with denominators in d and D."""

    numerator: Poly
    denominator: ParamPoly


def _statement(poly: str, p: int) -> tuple[int, list, tuple[int, int, int]]:
    """f, A or f' as sign * (D_n(Z, D) + c d D^((n-1-z)/2) Z^z) / (s R^r D^e),
    r in {0, 1}: n, the numerator terms (Z-degree, coefficient, d-degree,
    D-degree) and (s, r, e).  The d-term fills the slot Z^z that D_n leaves empty."""
    h = (p - 1) // 2
    n, sign, c, z, den = {
        "f": (p, 1, -2, 0, (1, 0, 0)),  # D_p - 2 d D^h
        "A": (p - 1, (-1) ** h, -1, 1, (2, 1, h)),  # (-1)^h (D_{p-1} - d D^(h-1) Z) / (2 R D^h)
        "f'": (p - 2, 1, -2, 0, (1, 1, p - 3)),  # (D_{p-2} - 2 d D^(h-1)) / (R D^(p-3))
    }[poly]
    terms = [(n - 2 * j, sign * dickson(n, j), 0, j) for j in range(n // 2 + 1)]
    return n, terms + [(z, sign * c, 1, (n - 1 - z) // 2)], den


def _symbolic(poly: str, p: int) -> ClearedForm:
    """The numerator in Q[d, D][Z] over the denominator s (d^2 - D)^r D^e."""
    n, terms, (s, r, e) = _statement(poly, p)
    coeffs = [ParamPoly()] * (n + 1)
    for z, c, i, j in terms:
        coeffs[z] = ParamPoly.monomial(c, i, j)
    return ClearedForm(Poly(coeffs), ParamPoly({(2 * r, e): s, (0, e + 1): -r * s}))


def _concrete(poly: str, params: InstanceParams) -> Poly:
    """Rational coefficients; each D^j / (s R^r D^e) is one product from the last."""
    n, terms, (s, r, e) = _statement(poly, params.p)
    steps = [1 / (s * params.R**r * params.D**e)]
    for _ in range(n // 2):
        steps.append(steps[-1] * params.D)
    coeffs = [Fraction(0)] * (n + 1)
    for z, c, i, j in terms:
        coeffs[z] = c * steps[j] * params.d if i else c * steps[j]
    return Poly(coeffs)


def trace_poly(params: InstanceParams) -> Poly:
    """Concrete trace polynomial f: monic, degree p, rational coefficients."""
    return _concrete("f", params)


def trace_poly_symbolic(p: int) -> Poly:
    """Trace polynomial with coefficients in Q[d, D]."""
    return _symbolic("f", p).numerator


def sqrt_part_poly(params: InstanceParams) -> Poly:
    """Concrete sqrt-part polynomial A, degree p-1, rational coefficients."""
    return _concrete("A", params)


def sqrt_part_symbolic(p: int) -> ClearedForm:
    """Cleared numerator of A over 2 (d^2 - D) D^((p-1)/2)."""
    return _symbolic("A", p)


def cofactor_poly(params: InstanceParams) -> Poly:
    """Concrete cofactor polynomial f', degree p-2, rational coefficients."""
    return _concrete("f'", params)


def cofactor_symbolic(p: int) -> ClearedForm:
    """Cleared numerator of f' over (d^2 - D) D^(p-3)."""
    return _symbolic("f'", p)


def defining_poly(params: InstanceParams) -> Poly:
    """The degree-2p defining polynomial g = (Z^p - d)^2 - R of the radical
    over Q."""
    p, d = params.p, params.d
    coeffs = [Fraction(0)] * (2 * p + 1)
    coeffs[0] = params.D
    coeffs[p] = -2 * d
    coeffs[2 * p] = Fraction(1)
    return Poly(coeffs)
