"""Small exact expression trees for radical expressions.

Node kinds: rational, sqrt, nth-root (real root, odd degree), add, mul, pow
(integer exponent, possibly negative).  Trees serialize to a stable JSON form
consumed by the CLI and evaluated at arbitrary precision by the numeric
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class Expr:
    """Base class; concrete nodes below."""

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Rat(Expr):
    value: Fraction

    def to_json(self) -> dict:
        return {"kind": "rational", "value": str(self.value)}

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class Sqrt(Expr):
    arg: Expr

    def to_json(self) -> dict:
        return {"kind": "sqrt", "arg": self.arg.to_json()}

    def __str__(self):
        return f"sqrt({self.arg})"


@dataclass(frozen=True)
class NthRoot(Expr):
    """Real n-th root, n odd (well defined for negative arguments)."""

    arg: Expr
    degree: int

    def __post_init__(self):
        if self.degree < 3 or self.degree % 2 == 0:
            raise ValueError(f"nth-root degree must be odd >= 3, got {self.degree}")

    def to_json(self) -> dict:
        return {"kind": "nth-root", "degree": self.degree, "arg": self.arg.to_json()}

    def __str__(self):
        return f"root{self.degree}({self.arg})"


@dataclass(frozen=True)
class Add(Expr):
    terms: tuple[Expr, ...]

    def to_json(self) -> dict:
        return {"kind": "add", "terms": [t.to_json() for t in self.terms]}

    def __str__(self):
        out = str(self.terms[0])
        for term in self.terms[1:]:
            s = str(term)
            out += f" - {s[1:]}" if s.startswith("-") else f" + {s}"
        return f"({out})"


@dataclass(frozen=True)
class Mul(Expr):
    factors: tuple[Expr, ...]

    def to_json(self) -> dict:
        return {"kind": "mul", "factors": [f.to_json() for f in self.factors]}

    def __str__(self):
        return "*".join(str(f) for f in self.factors)


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def to_json(self) -> dict:
        return {"kind": "pow", "base": self.base.to_json(), "exponent": self.exponent}

    def __str__(self):
        return f"({self.base})^{self.exponent}"


def rat(q) -> Rat:
    return Rat(Fraction(q))


def add(*terms: Expr) -> Add:
    return Add(tuple(terms))


def mul(*factors: Expr) -> Mul:
    return Mul(tuple(factors))
