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

The checks run on plain ``int`` kernels.  The expansion sum and the
convolutions s_k, t_k use Kronecker substitution (von zur Gathen & Gerhard,
*Modern Computer Algebra*, section 8.4): evaluate at X = 2^N as one integer,
with the slot width N a multiple of 8 above a bound that holds for every
coefficient of any input, corrupted ones included, and read the coefficients
back as signed base-2^N digits; a digit that overflowed its slot raises
ArithmeticError.  The sides of the fundamental identity are flattened once,
at the input, into {(z, deg_d, deg_D): value} maps; they are multiplied and
compared in that form, and grouped by z for the extraction checks.  Each
check that scans for a failing case reports the first one it finds, through
`VerificationReport.first_failure`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coeffs import family, s_recurrence_coeffs, system_C, t_recurrence_coeffs
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

    def first_failure(self, name: str, failures, witness) -> None:
        """Add the check `name`, failing at the first item of the iterable
        `failures` (if any) with the witness `witness(item)`."""
        bad = next(iter(failures), None)
        self.add(name, bad is None, None if bad is None else witness(bad))

    def to_json(self) -> dict:
        return {"p": self.p, "ok": self.ok, "checks": [c.to_json() for c in self.checks]}


def _expansion_sum(p: int, cs: list[int]) -> Poly:
    """sum_k cs[k] * X^k * (X+1)^(p-2k) for the (p+1)/2 entries of cs, by
    Kronecker substitution at X = 2^N.

    Each result coefficient is a sum of at most len(cs) terms c_k * binom(m, i)
    with binom(m, i) < 2^p, so its magnitude is below 2^(N-1) once
    N >= bitlen(max |c_k|) + p + bitlen(len(cs)) + 1; N is rounded up to whole
    bytes.  The sum is (X+1) * sum_k c_k X^k ((X+1)^2)^((p-1)/2-k), taken by
    Horner in (X+1)^2 with shifts and adds only, and `_signed_digits` unpacks
    it, raising ArithmeticError if a coefficient overflowed its slot.
    """
    bound = max(map(abs, cs)).bit_length() + p + len(cs).bit_length() + 1
    width = -(-bound // 8)  # bytes per slot
    n = 8 * width
    acc = 0
    for k, c in enumerate(cs):
        acc = (acc << 2 * n) + (acc << (n + 1)) + acc + (c << n * k)
    return Poly(_signed_digits(acc + (acc << n), p + 1, width))


def _signed_digits(value: int, count: int, width: int) -> list[int]:
    """The `count` signed base-2^N digits of `value`, N = 8 * width, each of
    magnitude below 2^(N-1).  Adding 2^(N-1) to every digit makes them all
    non-negative for one to_bytes pass; a broken bound shows in the extra top
    byte (or overflows to_bytes) and raises ArithmeticError."""
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * count, "little")
    raw = (value + offset).to_bytes(width * count + 1, "little")
    if raw[-1]:
        raise ArithmeticError(f"packed value overflows its {8 * width}-bit slots")
    return [
        int.from_bytes(raw[i : i + width], "little") - half for i in range(0, width * count, width)
    ]


def _convolve(xs: list[int], ys: list[int]) -> list[int]:
    """Coefficients of (sum xs[i] X^i) * (sum ys[j] X^j), by one integer
    product at X = 2^N.  Each coefficient is a sum of at most min(len) terms,
    so N >= bitlen(max |x|) + bitlen(max |y|) + bitlen(min(len)) + 1 holds
    every one in its slot."""
    bound = sum(max(map(abs, v)).bit_length() for v in (xs, ys))
    bound += min(len(xs), len(ys)).bit_length() + 1
    width = -(-bound // 8)
    x, y = (sum(c << 8 * width * i for i, c in enumerate(v)) for v in (xs, ys))
    return _signed_digits(x * y, len(xs) + len(ys) - 1, width)


def verify_expansion(p: int) -> VerificationReport:
    """Check the expansion of X^p + 1, with both coefficient routes; the solved
    system is compared with the closed form.  Equal coefficient lists are
    reconstructed once and share one sum."""
    report = VerificationReport(p)
    target = Poly([1] + [0] * (p - 1) + [1])

    solved = system_C(p)
    closed = family(p, "c")[1][::-1]
    report.first_failure(
        "system-solution-matches-closed-form",
        (k for k, (s, c) in enumerate(zip(solved, closed)) if s != c),
        lambda k: f"index k={k}: system {solved[k]}, closed form {closed[k]}",
    )

    sums: dict[tuple[int, ...], Poly] = {}
    for label, cs in (("system", solved), ("closed-form", closed)):
        key = tuple(cs)
        if key not in sums:
            sums[key] = _expansion_sum(p, cs)
        got = sums[key]
        slots = () if got == target else range(p + 1)
        report.first_failure(
            f"expansion-reconstructs-with-{label}-coefficients",
            (i for i in slots if got.coeff(i) != target.coeff(i)),
            lambda i: f"X^{i}: left {got.coeff(i)}, right {target.coeff(i)}",
        )
    return report


def _flat(poly: Poly) -> dict:
    """{(z, deg_d, deg_D): value} for a Poly whose coefficients are ParamPoly
    or rational scalars, with no zero entries."""
    out = {}
    for z, c in enumerate(poly.coeffs):
        terms = c.terms if isinstance(c, ParamPoly) else {(0, 0): c}
        for (a, b), v in terms.items():
            if v:
                out[z, a, b] = v
    return out


def _flat_mul_into(acc: dict, left: dict, right: dict | None = None) -> None:
    """Add left * right, or left^2 when right is None, into acc.  A square
    takes each unordered pair of terms once, doubled off the diagonal, which
    halves its products.  Cancelled terms stay in acc as zeros."""
    get = acc.get
    items = list((left if right is None else right).items())
    doubled = [(key, 2 * v) for key, v in items] if right is None else None
    for n, ((z1, a1, b1), v1) in enumerate(left.items()):
        pairs = items if doubled is None else items[n : n + 1] + doubled[n + 1 :]
        for (z2, a2, b2), v2 in pairs:
            key = (z1 + z2, a1 + a2, b1 + b2)
            acc[key] = get(key, 0) + v1 * v2


def fundamental_identity_sides(
    p: int,
    trace: Poly | None = None,
    sqrt_num: Poly | None = None,
    cofactor_num: Poly | None = None,
) -> tuple[dict, dict]:
    """Both sides of the cleared fundamental identity in Q[d, D][Z], as flat
    {(z, deg_d, deg_D): value} maps with no zero entries.

    Left: At^2.  Right: f * Ft' + (Z^2 - 4D)(d^2 - D) D^(p-3).
    The three polynomials may be overridden (used by mutation tests).
    """
    f = trace if trace is not None else trace_poly_symbolic(p)
    at = sqrt_num if sqrt_num is not None else sqrt_part_symbolic(p).numerator
    ft = cofactor_num if cofactor_num is not None else cofactor_symbolic(p).numerator
    lhs: dict = {}
    _flat_mul_into(lhs, _flat(at))
    rhs: dict = {}
    _flat_mul_into(rhs, _flat(f), _flat(ft))
    # (Z^2 - 4D)(d^2 - D) D^(p-3), term by term.
    for key, value in (
        ((0, 2, p - 2), -4),
        ((0, 0, p - 1), 4),
        ((2, 2, p - 3), 1),
        ((2, 0, p - 2), -1),
    ):
        rhs[key] = rhs.get(key, 0) + value
    return tuple({k: v for k, v in side.items() if v} for side in (lhs, rhs))


def verify_fundamental_identity(
    p: int,
    trace: Poly | None = None,
    sqrt_num: Poly | None = None,
    cofactor_num: Poly | None = None,
    sides: tuple[dict, dict] | None = None,
) -> VerificationReport:
    """Exact check of 4 D^2 A^2 R = f*f' + Z^2 - 4D in cleared form; `sides`
    takes `fundamental_identity_sides(p)` when the caller has built it.  The
    witness is the first differing monomial in (z, deg_d, deg_D) order."""
    report = VerificationReport(p)
    lhs, rhs = sides or fundamental_identity_sides(p, trace, sqrt_num, cofactor_num)
    keys = () if lhs == rhs else sorted(lhs.keys() | rhs.keys())
    report.first_failure(
        "fundamental-identity",
        (k for k in keys if lhs.get(k, 0) != rhs.get(k, 0)),
        lambda k: "Z^{}: coefficient of d^{}*D^{}: left {}, right {}".format(
            *k, lhs.get(k, 0), rhs.get(k, 0)
        ),
    )
    degree = max((z for z, _, _ in lhs), default=-1)
    deg_ok = degree == 2 * p - 2
    report.add(
        "left-side-degree",
        deg_ok,
        None if deg_ok else f"degree {degree}, expected {2 * p - 2}",
    )
    return report


def verify_recurrences(p: int, sides: tuple[dict, dict] | None = None) -> VerificationReport:
    """Recurrence certificates and closed forms for the convolution families;
    `sides` takes `fundamental_identity_sides(p)` when the caller has built it."""
    if p < 5:
        raise ValueError(f"recurrence checks need p >= 5, got {p}")
    report = VerificationReport(p)

    # Each closed form is evaluated once; s_k and t_k are the coefficients of
    # X^k and X^(k-1) in the products of these lists read as polynomials.
    a, c, cp = (family(p, tag)[1] for tag in ("a", "c", "cprime"))
    aa, ccp = _convolve(a, a), _convolve(c, cp)
    s = {k: aa[k] for k in range(1, p)}
    t = {k: ccp[k - 1] for k in range(2, p)}
    u = dict(zip(*family(p, "u")))

    for label, values, start in (("s", s, 1), ("t", t, 2)):
        report.first_failure(
            f"{label}-equals-closed-form",
            (k for k in range(start, p) if values[k] != u[k]),
            lambda k: f"k={k}: {label}={values[k]}, closed form {u[k]}",
        )

    rs = {k: s_recurrence_coeffs(p, k) for k in range(1, p - 1)}
    rt = {k: t_recurrence_coeffs(p, k) for k in range(2, p - 2)}
    s_bad = (k for k, (a, b) in rs.items() if a * s[k + 1] + b * s[k])
    t_bad = (k for k, (a, b, c) in rt.items() if a * t[k + 2] + b * t[k + 1] + c * t[k])
    u_bad = (k for k, (a, b) in rs.items() if a * u[k + 1] + b * u[k])
    for name, bad in (
        ("s-two-term-recurrence", s_bad),
        ("t-three-term-recurrence", t_bad),
        ("closed-form-satisfies-recurrence", u_bad),
    ):
        report.first_failure(name, bad, "fails at k={}".format)

    # Extraction from the symbolic products: the Z^(2k) coefficient of At^2
    # must be the single monomial s_k * D^(p-1-k), and likewise t_k in f*Ft'.
    # The right side adds to f*Ft' a term of degree 2 in Z only, so for k >= 2
    # its Z^(2k) coefficients are those of f*Ft'.
    sq, prod = sides or fundamental_identity_sides(p)
    for label, src, values in (("s", sq, s), ("t", prod, t)):
        slots: dict[int, dict] = {}
        for (z, i, j), w in src.items():
            slots.setdefault(z, {})[i, j] = w
        want = {k: {(0, p - 1 - k): values[k]} if values[k] else {} for k in range(2, p)}
        report.first_failure(
            f"{label}-symbolic-extraction",
            (k for k in range(2, p) if slots.get(2 * k, {}) != want[k]),
            lambda k: f"Z^{2 * k}: extracted {ParamPoly(slots.get(2 * k))}, "
            f"expected {ParamPoly(want[k])}",
        )
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
