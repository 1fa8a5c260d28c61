"""Exact symbolic verification of the structural identities, for any odd p.

Everything here is exact coefficient comparison in Q[X] or Q[d, D][Z]; no
probabilistic identity testing and no floating point.  A failed check carries
a witness naming the first differing monomial, so a corrupted input can never
pass vacuously.

The two load-bearing identities:

* expansion:    X^p + 1 = sum_k C_{p-2k} X^k (X+1)^(p-2k), with the C family
  both solved from its triangular system and given in closed form;
* fundamental:  4 D^2 A^2 R = f*f' + Z^2 - 4D, verified in the cleared form
  At^2 = f * Ft' + (Z^2 - 4D)(d^2 - D) D^(p-3), where At and Ft' are the
  cleared numerators of A and f' and R = d^2 - D.

The recurrence certificates for the convolution families s_k and t_k are
checked directly against exact values, together with the closed form u_k and
the extraction of s_k, t_k from the symbolic products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coeffs import (
    coeff_c,
    coeff_c_descending,
    coeff_u,
    conv_s,
    conv_t,
    s_recurrence_coeffs,
    system_C,
    t_recurrence_coeffs,
)
from .construct import cofactor_symbolic, sqrt_part_symbolic, trace_poly_symbolic
from .poly import ParamPoly, Poly


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "witness": self.witness}


@dataclass
class VerificationReport:
    p: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, witness: str | None = None):
        if not passed and not witness:
            raise ValueError("failing check requires a witness")
        self.checks.append(CheckResult(name, passed, witness))

    def to_json(self) -> dict:
        return {"p": self.p, "ok": self.ok, "checks": [c.to_json() for c in self.checks]}


def _first_poly_diff(left: Poly, right: Poly, var: str = "X") -> str:
    for i in range(max(left.degree, right.degree) + 1):
        lc, rc = left.coeff(i), right.coeff(i)
        if lc != rc:
            return f"{var}^{i}: left {lc}, right {rc}"
    return "polynomials agree"


def _first_parampoly_diff(left: Poly, right: Poly) -> str:
    for i in range(max(left.degree, right.degree) + 1):
        lc, rc = left.coeff(i), right.coeff(i)
        lc = lc if isinstance(lc, ParamPoly) else ParamPoly.const(lc)
        rc = rc if isinstance(rc, ParamPoly) else ParamPoly.const(rc)
        if lc != rc:
            keys = sorted(set(lc.terms) | set(rc.terms))
            for (a, b) in keys:
                lv = lc.terms.get((a, b), 0)
                rv = rc.terms.get((a, b), 0)
                if lv != rv:
                    return f"Z^{i}: coefficient of d^{a}*D^{b}: left {lv}, right {rv}"
    return "polynomials agree"


def _expansion_sum(p: int, cs: list[int]) -> Poly:
    """sum_k cs[k] * X^k * (X+1)^(p-2k), cs indexed by k."""
    total = [0] * (p + 1)
    for k, c in enumerate(cs):
        m = p - 2 * k
        row = 1  # binom(m, i), stepped along the row
        for i in range(m + 1):
            total[k + i] += c * row
            row = row * (m - i) // (i + 1)
    return Poly(total)


def verify_expansion(p: int) -> VerificationReport:
    """Check the expansion of X^p + 1, with both coefficient routes; the solved
    system is compared with both the ascending and the descending closed form."""
    report = VerificationReport(p)
    half = (p - 1) // 2
    target = Poly([1] + [0] * (p - 1) + [1])

    solved = system_C(p)
    closed = [coeff_c(p, half - k) for k in range(half + 1)]
    descending = [coeff_c_descending(p, k) for k in range(half + 1)]
    witness = next(
        (
            f"index k={k}: system {s}, closed form {c}, descending closed form {e}"
            for k, (s, c, e) in enumerate(zip(solved, closed, descending))
            if not s == c == e
        ),
        None,
    )
    report.add("system-solution-matches-closed-form", witness is None, witness)

    for label, cs in (("system", solved), ("closed-form", closed)):
        got = _expansion_sum(p, cs)
        ok = got == target
        report.add(
            f"expansion-reconstructs-with-{label}-coefficients",
            ok,
            None if ok else _first_poly_diff(got, target),
        )
    return report


def fundamental_identity_sides(
    p: int,
    trace: Poly | None = None,
    sqrt_num: Poly | None = None,
    cofactor_num: Poly | None = None,
) -> tuple[Poly, Poly]:
    """Both sides of the cleared fundamental identity in Q[d, D][Z].

    Left: At^2.  Right: f * Ft' + (Z^2 - 4D)(d^2 - D) D^(p-3).
    The three polynomials may be overridden (used by mutation tests).
    """
    f = trace if trace is not None else trace_poly_symbolic(p)
    at = sqrt_num if sqrt_num is not None else sqrt_part_symbolic(p).numerator
    ft = cofactor_num if cofactor_num is not None else cofactor_symbolic(p).numerator
    lhs = at * at
    correction = Poly(
        [ParamPoly.monomial(-4, 0, 1), ParamPoly(), ParamPoly.const(1)]
    )
    scalar = ParamPoly({(2, 0): 1, (0, 1): -1}) * ParamPoly.monomial(1, 0, p - 3)
    rhs = f * ft + correction * scalar
    return lhs, rhs


def verify_fundamental_identity(
    p: int,
    trace: Poly | None = None,
    sqrt_num: Poly | None = None,
    cofactor_num: Poly | None = None,
    sides: tuple[Poly, Poly] | None = None,
) -> VerificationReport:
    """Exact check of 4 D^2 A^2 R = f*f' + Z^2 - 4D in cleared form; `sides`
    takes `fundamental_identity_sides(p)` when the caller has built it."""
    report = VerificationReport(p)
    lhs, rhs = sides or fundamental_identity_sides(p, trace, sqrt_num, cofactor_num)
    ok = lhs == rhs
    report.add(
        "fundamental-identity",
        ok,
        None if ok else _first_parampoly_diff(lhs, rhs),
    )
    deg_ok = lhs.degree == 2 * p - 2
    report.add(
        "left-side-degree",
        deg_ok,
        None if deg_ok else f"degree {lhs.degree}, expected {2 * p - 2}",
    )
    return report


def verify_recurrences(p: int, sides: tuple[Poly, Poly] | None = None) -> VerificationReport:
    """Recurrence certificates and closed forms for the convolution families;
    `sides` takes `fundamental_identity_sides(p)` when the caller has built it."""
    if p < 5:
        raise ValueError(f"recurrence checks need p >= 5, got {p}")
    report = VerificationReport(p)

    s = {k: conv_s(p, k) for k in range(1, p)}
    t = {k: conv_t(p, k) for k in range(2, p)}
    u = {k: coeff_u(p, k) for k in range(1, p)}

    bad = [k for k in range(1, p) if s[k] != u[k]]
    report.add(
        "s-equals-closed-form",
        not bad,
        None if not bad else f"k={bad[0]}: s={s[bad[0]]}, closed form {u[bad[0]]}",
    )
    bad = [k for k in range(2, p) if t[k] != u[k]]
    report.add(
        "t-equals-closed-form",
        not bad,
        None if not bad else f"k={bad[0]}: t={t[bad[0]]}, closed form {u[bad[0]]}",
    )

    bad = []
    for k in range(1, p - 1):
        ca, cb = s_recurrence_coeffs(p, k)
        if ca * s[k + 1] + cb * s[k] != 0:
            bad.append(k)
    report.add(
        "s-two-term-recurrence",
        not bad,
        None if not bad else f"fails at k={bad[0]}",
    )

    bad = []
    for k in range(2, p - 2):
        ca, cb, cc = t_recurrence_coeffs(p, k)
        if ca * t[k + 2] + cb * t[k + 1] + cc * t[k] != 0:
            bad.append(k)
    report.add(
        "t-three-term-recurrence",
        not bad,
        None if not bad else f"fails at k={bad[0]}",
    )

    bad = []
    for k in range(1, p - 1):
        ca, cb = s_recurrence_coeffs(p, k)
        if ca * u[k + 1] + cb * u[k] != 0:
            bad.append(k)
    report.add(
        "closed-form-satisfies-recurrence",
        not bad,
        None if not bad else f"fails at k={bad[0]}",
    )

    # Extraction from the symbolic products: the Z^(2k) coefficient of At^2
    # must be the single monomial s_k * D^(p-1-k), and likewise t_k in f*Ft'.
    # The right side adds to f*Ft' a term of degree 2 in Z only, so for k >= 2
    # its Z^(2k) coefficients are those of f*Ft'.
    sq, prod = sides or fundamental_identity_sides(p)
    for label, src, values in (("s", sq, s), ("t", prod, t)):
        bad_msg = None
        for k in range(2, p):
            got = src.coeff(2 * k)
            got = got if isinstance(got, ParamPoly) else ParamPoly.const(got)
            want = ParamPoly.monomial(values[k], 0, p - 1 - k)
            if got != want:
                bad_msg = f"Z^{2 * k}: extracted {got}, expected {want}"
                break
        report.add(f"{label}-symbolic-extraction", bad_msg is None, bad_msg)
    return report


def verify_all(p: int) -> VerificationReport:
    """All identity checks applicable at p, merged into one report; the
    symbolic products are built once and shared by both checks that read them."""
    report = VerificationReport(p)
    report.checks.extend(verify_expansion(p).checks)
    sides = fundamental_identity_sides(p)
    report.checks.extend(verify_fundamental_identity(p, sides=sides).checks)
    if p >= 5:
        report.checks.extend(verify_recurrences(p, sides).checks)
    return report
