"""Degree reduction of y = (d + sqrt(R))^(1/p) and classical denesting.

For an instance (p, d, R) with p odd, sqrt(R) irrational and D = d^2 - R
nonzero, the radical y of degree 2p is expressed through three quantities of
degree <= p: a p-th root z of D, a zero u of the degree-p trace polynomial,
and sqrt(R), via the two branches

    y_pm = z^((p+1)/2) * ( u/(2D) +- A(u) * sqrt(R) ).

When u is rational this denests y into simple radicals; the branches are then
materialized as expression trees (and as exact QuadExt values when z is also
rational), together with the equivalent quadratic-equation form

    y_pm = (1 / (2 z^((p-1)/2))) * ( u +- sqrt(u^2 - 4D) ).

Also here: the classical square-root denestings sqrt(d + sqrt(R)) and
(d + sqrt(R))^(1/4) under the square / fourth-power criterion on d^2 - R,
instance construction from a prescribed (D, u), and the quadratic-field /
p-th-power classification of an instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exprtree as et
from .coeffs import dickson
from .construct import (
    InstanceParams,
    ReductionError,
    defining_poly,
    sqrt_part_poly,
    trace_poly,
)
from .exactnum import QuadExt, check_p, is_probable_prime, rational_is_square, rational_odd_root
from .poly import Poly, rational_roots


def _ordinal(n: int) -> str:
    if n % 100 in (11, 12, 13):
        return f"{n}th"
    suffix = {1: "st", 2: "nd", 3: "rd"}.get(n % 10, "th")
    return f"{n}{suffix}"


@dataclass(frozen=True)
class NecessaryConditions:
    """Necessary (not sufficient) conditions for y to have degree 2p.

    All three hold for every valid instance, by input validation in
    `InstanceParams.create`.  In particular g = (Z^p - d)^2 - R has no
    rational zero: a zero r would make R = (r^p - d)^2 a rational square.
    So `all_hold` reports that validation only, not the degree of y: it is
    true on the cubic golden instance (3, -7, 50), where y = sqrt(2) - 1 has
    degree 2.  Capelli's criterion would decide it (ROADMAP item 3).
    """

    sqrtR_irrational: bool
    D_nonzero: bool
    g_rational_roots: tuple[Fraction, ...]

    @property
    def all_hold(self) -> bool:
        return self.sqrtR_irrational and self.D_nonzero and not self.g_rational_roots

    def to_json(self) -> dict:
        return {
            "sqrtR_irrational": self.sqrtR_irrational,
            "D_nonzero": self.D_nonzero,
            "g_rational_roots": [str(r) for r in self.g_rational_roots],
            "all_hold": self.all_hold,
        }


@dataclass(frozen=True)
class QuadraticForm:
    """The quadratic-equation form of the branches, available when u is rational:
    y_pm = factor * (u +- sqrt(discriminant)) with factor = 1/(2 z^((p-1)/2))."""

    factor: et.Expr
    u: Fraction
    discriminant: Fraction
    roots: tuple[et.Expr, et.Expr]

    def to_json(self) -> dict:
        return {
            "factor": self.factor.to_json(),
            "u": str(self.u),
            "discriminant": str(self.discriminant),
            "roots": [r.to_json() for r in self.roots],
        }


@dataclass(frozen=True)
class ReductionResult:
    params: InstanceParams
    g: Poly
    f: Poly
    A: Poly
    z: Fraction | None  # None: z is the (irrational) real p-th root of D
    u: Fraction | None  # None: u is irrational, a root of f
    u_roots: tuple[Fraction, ...]  # all rational roots of f, ascending
    branches: tuple[et.Expr, et.Expr] | None
    branch_values: tuple[QuadExt, QuadExt] | None  # exact, when z and u rational
    quadratic_form: QuadraticForm | None
    conditions: NecessaryConditions

    @property
    def z_description(self) -> str:
        if self.z is not None:
            return str(self.z)
        return f"irrational: the real {_ordinal(self.params.p)} root of {self.params.D}"

    @property
    def u_description(self) -> str:
        if self.u is not None:
            return str(self.u)
        return "irrational: a root of the degree-p trace polynomial"

    def to_json(self) -> dict:
        return {
            "p": self.params.p,
            "d": str(self.params.d),
            "R": str(self.params.R),
            "D": str(self.params.D),
            "g": self.g.to_json_coeffs(),
            "f": self.f.to_json_coeffs(),
            "A": self.A.to_json_coeffs(),
            "z": str(self.z) if self.z is not None else "irrational",
            "z_description": self.z_description,
            "u": str(self.u) if self.u is not None else "irrational",
            "u_description": self.u_description,
            "u_roots": [str(r) for r in self.u_roots],
            "branches": None
            if self.branches is None
            else [b.to_json() for b in self.branches],
            "branch_values": None
            if self.branch_values is None
            else [{"a": str(v.a), "b": str(v.b), "R": str(v.R)} for v in self.branch_values],
            "quadratic_form": None
            if self.quadratic_form is None
            else self.quadratic_form.to_json(),
            "necessary_conditions": self.conditions.to_json(),
        }


def reduce_radical(p: int, d, R) -> ReductionResult:
    """Full reduction record for y = (d + sqrt(R))^(1/p).

    Builds g, f and A, scans f for rational zeros, tests D for a rational
    p-th root, and fills the branch formulas.  Branch expression trees (and
    the quadratic form) are materialized only when u is rational; an
    irrational u is a root of f with no closed radical form here.
    """
    params = InstanceParams.create(p, d, R)
    g = defining_poly(params)
    f = trace_poly(params)
    A = sqrt_part_poly(params)

    u_roots = tuple(sorted(rational_roots(f)))
    u = u_roots[0] if u_roots else None
    z = rational_odd_root(params.D, params.p)
    h = (p - 1) // 2

    branches = branch_values = quadratic_form = None
    if u is not None:
        au = A.evaluate(u)
        center = u / (2 * params.D)
        if z is None:
            root = et.NthRoot(et.rat(params.D), p)
            zpow = et.Pow(root, h + 1)
            factor = et.mul(et.rat(Fraction(1, 2)), et.Pow(root, -h))
        else:
            zc = z ** (h + 1)
            zpow = et.rat(zc)
            factor = et.rat(Fraction(1, 2) / z**h)
            branch_values = tuple(QuadExt(zc * center, s * zc * au, params.R) for s in (1, -1))
        sqrt_R = et.Sqrt(et.rat(params.R))
        branches = tuple(
            et.mul(zpow, et.add(et.rat(center), et.mul(et.rat(s * au), sqrt_R))) for s in (1, -1)
        )
        disc = u * u - 4 * params.D
        sqrt_disc = et.Sqrt(et.rat(disc))
        # The minus root keeps (-1)*sqrt(disc) as a product node, as its JSON shows it.
        roots = tuple(
            et.mul(factor, et.add(et.rat(u), signed))
            for signed in (sqrt_disc, et.mul(et.rat(-1), sqrt_disc))
        )
        quadratic_form = QuadraticForm(factor, u, disc, roots)

    return ReductionResult(
        params=params,
        g=g,
        f=f,
        A=A,
        z=z,
        u=u,
        u_roots=u_roots,
        branches=branches,
        branch_values=branch_values,
        quadratic_form=quadratic_form,
        conditions=NecessaryConditions(sqrtR_irrational=True, D_nonzero=True, g_rational_roots=()),
    )


def construct_example(p: int, D, u) -> tuple[InstanceParams, Poly]:
    """Instance with a prescribed norm D and rational trace-polynomial zero u.

    Solving f(u) = D_p(u, D) - 2 d D^((p-1)/2) = 0 for the free parameter d
    gives d = D_p(u, D) / (2 D^((p-1)/2)), summed from `coeffs.dickson`, and
    then R = d^2 - D; that choice of d makes f(u) = 0.  Degenerate outcomes
    (d = 0, R = 0, or R a rational square, which would make sqrt(R)
    rational) raise ReductionError.
    """
    check_p(p)
    D = Fraction(D)
    u = Fraction(u)
    if D == 0:
        raise ValueError("D must be nonzero")
    dickson_p = sum(dickson(p, j) * D**j * u ** (p - 2 * j) for j in range(p // 2 + 1))
    d = dickson_p / (2 * D ** ((p - 1) // 2))
    if d == 0:
        raise ReductionError("degenerate construction: d = 0")
    R = d * d - D
    if R == 0:
        raise ReductionError("degenerate construction: R = 0")
    params = InstanceParams.create(p, d, R)
    return params, defining_poly(params)


@dataclass(frozen=True)
class SquareDenesting:
    """sqrt(d + sqrt(R)) = sqrt(x1) + sqrt(x2), certified by exact squaring."""

    x1: Fraction
    x2: Fraction
    both_nonnegative: bool

    def certify(self, d, R) -> bool:
        """Exact squaring identity: (sqrt(x1) + sqrt(x2))^2 = d + sqrt(R)
        reduces to x1 + x2 = d and 4*x1*x2 = R."""
        return self.x1 + self.x2 == Fraction(d) and 4 * self.x1 * self.x2 == Fraction(R)

    def expr(self) -> et.Expr:
        return et.add(et.Sqrt(et.rat(self.x1)), et.Sqrt(et.rat(self.x2)))

    def to_json(self) -> dict:
        return {
            "x1": str(self.x1),
            "x2": str(self.x2),
            "both_nonnegative": self.both_nonnegative,
            "expression": self.expr().to_json(),
        }


@dataclass(frozen=True)
class FourthDenesting:
    """(d + sqrt(R))^(1/4) = sqrt(sqrt(inner) + half_k) + sqrt(sqrt(inner) - half_k)."""

    inner: Fraction
    half_k: Fraction

    def certify(self, d, R) -> bool:
        """Exact double-squaring identity: squaring the denested form twice
        gives (8*inner - 4*half_k^2) + sqrt(64*inner*(inner - half_k^2))."""
        rational_part = 8 * self.inner - 4 * self.half_k**2
        radicand = 64 * self.inner * (self.inner - self.half_k**2)
        return rational_part == Fraction(d) and radicand == Fraction(R)

    def expr(self) -> et.Expr:
        s = et.Sqrt(et.rat(self.inner))
        return et.add(
            et.Sqrt(et.add(s, et.rat(self.half_k))),
            et.Sqrt(et.add(s, et.rat(-self.half_k))),
        )

    def to_json(self) -> dict:
        return {
            "inner": str(self.inner),
            "half_k": str(self.half_k),
            "expression": self.expr().to_json(),
        }


def _check_euclid_input(d: Fraction, R: Fraction) -> None:
    if d <= 0 or R <= 0:
        raise ValueError("denesting requires positive d and R")
    if rational_is_square(R) is not None:
        raise ValueError(f"R = {R} is a rational square; sqrt(R) must be irrational")


def euclid_denest(d, R) -> SquareDenesting | None:
    """Denest sqrt(d + sqrt(R)) into two simple square roots.

    Succeeds exactly when d^2 - R is the square of a rational k, giving
    ((d+k)/2, (d-k)/2); returns None when the criterion fails.
    """
    d, R = Fraction(d), Fraction(R)
    _check_euclid_input(d, R)
    k = rational_is_square(d * d - R)
    if k is None:
        return None
    x1, x2 = (d + k) / 2, (d - k) / 2
    return SquareDenesting(x1, x2, x1 >= 0 and x2 >= 0)


def euclid_biquadratic(d, R) -> FourthDenesting | None:
    """Denest (d + sqrt(R))^(1/4) (degree-8 case, applying the square-root
    step twice).  Succeeds exactly when d^2 - R is a rational fourth power k^4."""
    d, R = Fraction(d), Fraction(R)
    _check_euclid_input(d, R)
    square = rational_is_square(d * d - R)
    if square is None:
        return None
    k = rational_is_square(square)
    if k is None:
        return None
    return FourthDenesting((d + k * k) / 8, k / 2)


@dataclass(frozen=True)
class CaseReport:
    """Quadratic-field and p-th-power classification of an instance.

    The conclusions assume the degree-p trace polynomial is irreducible over Q
    (and, for the basis statement, that no primitive p-th root of unity lies
    in its splitting field); neither hypothesis is certified here.
    """

    p: int
    applicable: bool  # the hypotheses require p prime
    prop2_field_equal: bool | None
    prop3_case: str | None  # "a" iff D is a rational p-th power
    basis_description: str | None
    note: str

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "applicable": self.applicable,
            "prop2_field_equal": self.prop2_field_equal,
            "prop3_case": self.prop3_case,
            "basis_description": self.basis_description,
            "note": self.note,
        }


def classify(p: int, d, R) -> CaseReport:
    """Classify (p, d, R): does Q(sqrt(R)) coincide with the quadratic field
    Q(sqrt((-1)^((p-1)/2) * p)), and is D a rational p-th power?"""
    params = InstanceParams.create(p, d, R)
    if not is_probable_prime(p):
        return CaseReport(
            p=p,
            applicable=False,
            prop2_field_equal=None,
            prop3_case=None,
            basis_description=None,
            note=f"classification requires p prime; p = {p} is composite",
        )
    # Q(sqrt(R)) = Q(sqrt(s)) for nonsquares R, s exactly when R*s is a square.
    sign = -1 if ((p - 1) // 2) % 2 else 1
    field_equal = rational_is_square(params.R * sign * p) is not None
    z = rational_odd_root(params.D, p)
    if z is not None:
        case = "a"
        basis = (
            "u^k * sqrt(R)^l for k = 0..p-1, l = 0,1 is a Q-basis of "
            f"Q(u, sqrt(R)); z = {z} is rational"
        )
    else:
        case = "b"
        basis = (
            "z^j * u^k * sqrt(R)^l for j, k = 0..p-1, l = 0,1 is a Q-basis of "
            "Q(z, u, sqrt(R)); z is the real p-th root of D, irrational"
        )
    if field_equal:
        conclusion = (
            "quadratic fields coincide: no conclusion about p-th roots of unity "
            "in the splitting field"
        )
    else:
        conclusion = (
            "quadratic fields differ: if the trace polynomial is irreducible over Q, "
            "its splitting field contains no primitive p-th root of unity and is not "
            "the splitting field of any Z^p - a"
        )
    return CaseReport(
        p=p,
        applicable=True,
        prop2_field_equal=field_equal,
        prop3_case=case,
        basis_description=basis,
        note=conclusion + "; conclusions are conditional on irreducibility of the trace polynomial",
    )
