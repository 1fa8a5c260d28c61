"""Dense univariate polynomials over exact coefficient rings.

``Poly`` stores coefficients by ascending degree (index = degree), normalized
so the top stored coefficient is nonzero; the zero polynomial has no
coefficients.  Coefficients may be Fraction, QuadExt, or ParamPoly - anything
with exact ring arithmetic and a truthiness test for zero.

``ParamPoly`` is a sparse exact polynomial in the two instance parameters
(d, D); a ``Poly`` with ParamPoly coefficients is what the symbolic builders
in ``construct`` return, an element of Q[d, D][Z].

``rational_roots`` finds all rational zeros of a Fraction polynomial via the
rational root theorem, in integer arithmetic only: it skips candidates not in
lowest terms, sieves the rest by divisibility of the primitive integer form F
at Z = 1 and Z = -1 (Gauss's lemma), and confirms each survivor exactly with
one homogeneous integer Horner pass.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import divisors, power

_SCALARS = (int, Fraction)


class Poly:
    """Immutable dense univariate polynomial, index = degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls([c])

    @classmethod
    def monomial(cls, c, n: int) -> "Poly":
        return cls([0 * c] * n + [c]) if n else cls([c])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int):
        """Coefficient of Z^i; integer 0 past the stored degree."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [None] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if not cb:
                    continue
                prod = ca * cb
                out[i + j] = prod if out[i + j] is None else out[i + j] + prod
        # A slot no product reached gets the zero of the product's ring; the
        # top slot is always reached, since a[-1] and b[-1] are nonzero.
        zero = out[-1] * 0
        return Poly([zero if c is None else c for c in out])

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Poly":
        return Poly([coef * c for coef in self.coeffs])

    def __pow__(self, n: int) -> "Poly":
        return power(self, n, Poly.__mul__, Poly.constant(1))

    def evaluate(self, x):
        """Exact Horner evaluation at x (same ring as the coefficients)."""
        if not self.coeffs:
            return 0 * x
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def map(self, fn) -> "Poly":
        return Poly([fn(c) for c in self.coeffs])

    def to_text(self, var: str = "Z") -> str:
        """Canonical rendering: descending powers, explicit signs."""
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            neg = isinstance(c, _SCALARS) and c < 0
            mag = -c if neg else c
            if i == 0:
                term = str(mag)
            elif mag == 1:
                term = var if i == 1 else f"{var}^{i}"
            else:
                term = f"{mag}*{var}" if i == 1 else f"{mag}*{var}^{i}"
            if not parts:
                parts.append(f"-{term}" if neg else term)
            else:
                parts.append(f"- {term}" if neg else f"+ {term}")
        return " ".join(parts)

    def to_json_coeffs(self) -> list[str]:
        """Coefficient-array JSON form, index = degree, exact strings."""
        return [str(c) for c in self.coeffs]

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


class ParamPoly:
    """Sparse exact polynomial in the instance parameters d and D.

    Stored as {(deg_d, deg_D): int or Fraction} with no zero entries, so
    equality is map equality (an int and the equal Fraction compare and hash
    alike).  Supports rational scalars on either side.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, val in (terms or {}).items():
            v = val if isinstance(val, int) else Fraction(val)
            if v:
                clean[key] = v
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("ParamPoly is immutable")

    @classmethod
    def const(cls, q) -> "ParamPoly":
        return cls({(0, 0): q})

    @classmethod
    def monomial(cls, q, deg_d: int, deg_D: int) -> "ParamPoly":
        return cls({(deg_d, deg_D): q})

    def _coerce(self, other):
        if isinstance(other, ParamPoly):
            return other
        if isinstance(other, _SCALARS):
            return ParamPoly.const(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for key, val in o.terms.items():
            out[key] = out.get(key, 0) + val
        return ParamPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return ParamPoly({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, int], int | Fraction] = {}
        for (i1, j1), v1 in self.terms.items():
            for (i2, j2), v2 in o.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + v1 * v2
        return ParamPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ParamPoly":
        return power(self, n, ParamPoly.__mul__, ParamPoly.const(1))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = ParamPoly.const(other)
        return isinstance(other, ParamPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def subs(self, d0: Fraction, D0: Fraction) -> Fraction:
        """Exact evaluation at concrete rational parameters."""
        total = Fraction(0)
        for (i, j), v in self.terms.items():
            total += v * d0**i * D0**j
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms):
            v = self.terms[(i, j)]
            factors = []
            if v != 1 or (i == 0 and j == 0):
                factors.append(str(v))
            if i:
                factors.append("d" if i == 1 else f"d^{i}")
            if j:
                factors.append("D" if j == 1 else f"D^{j}")
            parts.append("*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"ParamPoly({self.terms!r})"


def rational_roots(f: Poly) -> set[Fraction]:
    """All rational zeros of a nonzero polynomial with Fraction coefficients.

    Clears denominators, strips Z^m (0 is a zero iff m > 0) and the content,
    leaving a primitive integer form F of degree n.  Candidates are a/den
    with |a| dividing the constant term and den > 0 the leading coefficient:

    * a pair with gcd(a, den) > 1 is skipped, as its value was already tried
      in lowest terms;
    * a zero a/den in lowest terms gives F = (den*Z - a) * Q with Q in Z[Z]
      (Gauss's lemma), so den - a must divide F(1) and den + a must divide
      F(-1); a candidate failing either is rejected;
    * a survivor is confirmed exactly by den^n * F(a/den) =
      sum_i c_i a^i den^(n-i) == 0, computed in int by Horner.

    No Fraction arithmetic runs per candidate.  Multiplicity is not reported.
    """
    if f.is_zero():
        raise ValueError("rational_roots of the zero polynomial")
    coeffs = [Fraction(c) for c in f.coeffs]
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]

    roots: set[Fraction] = set()
    # Factor out Z^m first; 0 is a root iff the constant term vanishes.
    low = 0
    while ints[low] == 0:
        low += 1
    if low:
        roots.add(Fraction(0))
        ints = ints[low:]
    if len(ints) == 1:
        return roots

    g = 0
    for c in ints:
        g = math.gcd(g, c)
    ints = [c // g for c in ints]

    at_one = sum(ints)
    at_minus_one = sum(ints[::2]) - sum(ints[1::2])
    dens = divisors(abs(ints[-1]))
    for num in divisors(abs(ints[0])):
        for den in dens:
            if math.gcd(num, den) > 1:
                continue
            for a in (num, -num):
                if not (_divides(den - a, at_one) and _divides(den + a, at_minus_one)):
                    continue
                acc, den_pow = ints[-1], 1
                for c in reversed(ints[:-1]):
                    den_pow *= den
                    acc = acc * a + c * den_pow
                if acc == 0:
                    roots.add(Fraction(a, den))
    return roots


def _divides(m: int, n: int) -> bool:
    """Whether m divides n; 0 divides only 0."""
    return n % m == 0 if m else n == 0
