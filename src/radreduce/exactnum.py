"""Exact scalar arithmetic: rationals, quadratic-field elements, root predicates.

Rationals are ``fractions.Fraction`` throughout (always stored reduced, positive
denominator, arithmetic exact).  On top of that this module provides the two
root predicates the reduction machinery needs:

* is a rational a perfect square, and of what,
* does a rational have a rational odd p-th root,

and, for the rational-root search, integer factorization and divisor lists.

It also holds the precision defaults and `PrecisionError` of the numeric
checks, so that the command line can parse and report them without importing
`numeric`.

``QuadExt`` represents an element a + b*sqrt(R) of the quadratic extension
Q(sqrt(R)) for a fixed non-square R, with exact componentwise arithmetic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction

# Trial division bound for factoring; inputs here are tiny, but exceeding the
# bound must raise rather than return a wrong answer.
FACTOR_BOUND = 10**6

# ASCII digits only: `\d` would also match other scripts' digits.
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")

# Miller-Rabin witnesses: the primes up to 41 decide primality for every
# n < MR_PROVEN_BOUND (about 3.3 * 10^24), which is itself a strong
# pseudoprime to all of them.  The primes up to 37 alone would stop at
# 318665857834031151167461, a strong pseudoprime to each of those.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_PROVEN_BOUND = 3317044064679887385961981

DEFAULT_BITS = 256

# Residual exponent margin: "is a zero" means relative residual < 2^-(B - 56).
ZERO_MARGIN_BITS = 56


def tolerance_exp(bits: int, tol_exp: int | None = None) -> int:
    """Exponent E of the residual bound 2^-E: `tol_exp` when given, otherwise
    bits - ZERO_MARGIN_BITS."""
    return tol_exp if tol_exp is not None else bits - ZERO_MARGIN_BITS


def tolerance(bits: int, tol_exp: int | None = None) -> Fraction:
    """2^-E for E = tolerance_exp(bits, tol_exp); ValueError if E < 0."""
    if (exp := tolerance_exp(bits, tol_exp)) < 0:
        raise ValueError(f"residual tolerance exponent {exp} < 0 at {bits} bits")
    return Fraction(1, 1 << exp)


class PrecisionError(ArithmeticError):
    """A numeric result is undecided at the working precision: an enclosure
    too wide or holding 0 where a sign is needed, or a Newton root whose
    power balls do not decide which zero it is."""


class FactorizationError(ValueError):
    """Raised when an integer cannot be factored within the configured bound."""


def parse_rational(text: str) -> Fraction:
    """Parse the canonical rational text format: '-2158', '6/11'."""
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in text and int(text.split("/")[1]) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(text)


def integer_nth_root(n: int, k: int) -> tuple[int, bool]:
    """Floor k-th root of n >= 0 and whether it is exact.

    The one integer floor-root kernel: integer Newton descent from a seed
    above the root and right to half its bits, which is a float of n's
    leading bits for roots of at most 64 bits, else the root of n's top half.
    """
    if n < 0 or k < 1:
        raise ValueError("integer_nth_root requires n >= 0, k >= 1")
    if n in (0, 1) or k == 1:
        return n, True
    root_bits = -(-n.bit_length() // k)  # n^(1/k) < 2^root_bits
    if root_bits <= 64:
        # log2(n) / k errs by about root_bits * 2^-53, far inside the margin.
        r = int(2.0 ** (math.log2(n) / k) * (1 + 2.0**-30)) + 1
    else:
        # (top + 1) * 2^half > n^(1/k), since top = floor((n >> k*half)^(1/k)).
        half = root_bits // 2
        r = (integer_nth_root(n >> (k * half), k)[0] + 1) << half
    # Above the floor root each step lowers r; a step never goes below it (AM-GM).
    while True:
        power = r ** (k - 1)
        r_next = ((k - 1) * r + n // power) // k
        if r_next >= r:
            return r, power * r == n
        r = r_next


def power(x, n: int, mul, one):
    """x^n for n >= 0 by square-and-multiply: (x^2)^(n // 2), times x when n
    is odd, with `mul` the product and `one` the result for n = 0.  Rounded
    products (balls) depend on this order; ValueError for n < 0."""
    if n < 0:
        raise ValueError(f"negative exponent {n}")
    if n <= 1:
        return x if n else one
    half = power(mul(x, x), n >> 1, mul, one)
    return mul(half, x) if n & 1 else half


def rational_is_square(q: Fraction) -> Fraction | None:
    """Nonnegative rational square root of q, or None when q is not a square."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn = math.isqrt(num)
    if rn * rn != num:
        return None
    rd = math.isqrt(den)
    if rd * rd != den:
        return None
    return Fraction(rn, rd)


def check_p(p: int) -> None:
    """Raise ValueError unless p is an odd ``int`` >= 3."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd integer >= 3, got {p}")


def rational_odd_root(q: Fraction, p: int) -> Fraction | None:
    """Unique real rational z with z**p == q for odd p >= 3, or None.

    Odd p makes the real root well defined for either sign of q.
    """
    check_p(p)
    sign = -1 if q < 0 else 1
    rn, ok_n = integer_nth_root(abs(q.numerator), p)
    if not ok_n:
        return None
    rd, ok_d = integer_nth_root(q.denominator, p)
    if not ok_d:
        return None
    return Fraction(sign * rn, rd)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with fixed witnesses (deterministic below MR_PROVEN_BOUND)."""
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int, bound: int = FACTOR_BOUND) -> dict[int, int]:
    """Factor n >= 1 by trial division up to `bound`, with a perfect-power /
    Miller-Rabin fallback for the remaining cofactor.

    Raises FactorizationError when the cofactor cannot be certified, which
    includes every cofactor at or above MR_PROVEN_BOUND that is not a power of
    a smaller prime; a wrong factorization is never returned.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # Wheel over numbers coprime to 30.
    step = (4, 2, 4, 2, 4, 6, 2, 6)
    q, i = 7, 0
    while q * q <= n and q <= bound:
        while n % q == 0:
            factors[q] = factors.get(q, 0) + 1
            n //= q
        q += step[i]
        i = (i + 1) % 8
    if n == 1:
        return factors
    if q * q > n:
        # Remaining cofactor is prime (all divisors up to its sqrt removed).
        factors[n] = factors.get(n, 0) + 1
        return factors
    if n < MR_PROVEN_BOUND and is_probable_prime(n):
        factors[n] = factors.get(n, 0) + 1
        return factors
    # Perfect-power fallback: n = b^e with b certifiably prime.
    for e in range(2, n.bit_length() + 1):
        b, exact = integer_nth_root(n, e)
        if b < 2:
            break
        if exact and b < MR_PROVEN_BOUND and is_probable_prime(b):
            factors[b] = factors.get(b, 0) + e
            return factors
    raise FactorizationError(f"cannot factor cofactor {n} within bound {bound}")


def divisors(n: int, bound: int = FACTOR_BOUND) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    divs = [1]
    for prime, exp in factorize(n, bound).items():
        divs = [d * prime**e for d in divs for e in range(exp + 1)]
    return sorted(divs)


@dataclass(frozen=True)
class QuadExt:
    """Element a + b*sqrt(R) of Q(sqrt(R)), R a fixed non-square rational.

    Arithmetic is exact and componentwise; (sqrt(R))^2 = R.  Mixing elements
    over different R values is an error, never a coercion.
    """

    a: Fraction
    b: Fraction
    R: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "R", Fraction(self.R))
        if self.R == 0 or rational_is_square(self.R) is not None:
            raise ValueError(f"R = {self.R} is a rational square; use plain rationals")

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.R != self.R:
                raise ValueError(f"mismatched field contexts: sqrt({self.R}) vs sqrt({other.R})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(Fraction(other), Fraction(0), self.R)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.R)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.R)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.R)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(
            self.a * o.a + self.b * o.b * self.R,
            self.a * o.b + self.b * o.a,
            self.R,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.a, -self.b, self.R)

    def norm(self) -> Fraction:
        """Field norm a^2 - b^2*R; zero only for the zero element."""
        return self.a * self.a - self.b * self.b * self.R

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt(R))")
        return QuadExt(self.a / n, -self.b / n, self.R)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, n: int) -> "QuadExt":
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, QuadExt.__mul__, QuadExt(Fraction(1), Fraction(0), self.R))

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __str__(self) -> str:
        if not self.b:
            return str(self.a)
        root = f"sqrt({self.R})"
        head = f"{self.a} + " if self.a else ""
        coef = "" if self.b == 1 else f"{self.b}*"
        s = f"{head}{coef}{root}"
        return s.replace("+ -", "- ")
