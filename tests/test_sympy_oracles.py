"""Differential tests against sympy, skipped when sympy is absent."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radreduce.construct import InstanceParams, trace_poly
from radreduce.exactnum import rational_is_square
from radreduce.poly import rational_roots
from radreduce.reduction import classify, construct_example

core = pytest.importorskip("sympy.ntheory.factor_").core
sympy = pytest.importorskip("sympy")

F = Fraction


def squarefree_part(q: Fraction) -> int:
    """m squarefree with q = m * (rational square), by sympy's factoring."""
    n = q.numerator * q.denominator
    return (1 if n > 0 else -1) * core(abs(n))


@st.composite
def classify_inputs(draw):
    """(p, d, R) for prime p; half the draws put R in the field of
    sqrt((-1)^((p-1)/2) p), the other half draw R freely."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    d = draw(st.fractions(min_value=-50, max_value=50, max_denominator=6).filter(bool))
    if draw(st.booleans()):
        sign = -1 if ((p - 1) // 2) % 2 else 1
        s = draw(st.fractions(min_value=-40, max_value=40, max_denominator=9).filter(bool))
        R = sign * p * s * s
    else:
        R = draw(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=50))
    assume(R != 0 and R != d * d and rational_is_square(R) is None)
    return p, d, R


@given(classify_inputs())
@settings(max_examples=150, deadline=None)
def test_field_equality_matches_squarefree_parts(instance):
    p, d, R = instance
    sign = -1 if ((p - 1) // 2) % 2 else 1
    expected = squarefree_part(F(R)) == sign * p
    assert classify(p, d, R).prop2_field_equal is expected


DIVISOR_RICH_D = 720720  # 2^4 3^2 5 7 11 13


@pytest.mark.parametrize(
    "p,d,R",
    [(p, 1, 1 - DIVISOR_RICH_D) for p in (5, 7, 9)]
    + [
        (params.p, params.d, params.R)
        for params, _ in (
            construct_example(p, DIVISOR_RICH_D, u) for p, u in ((5, 12), (7, -1440), (9, 2))
        )
    ],
)
def test_rational_roots_match_sympy_on_divisor_rich_norm(p, d, R):
    f = trace_poly(InstanceParams.create(p, d, R))
    Z = sympy.Symbol("Z")
    roots = sympy.Poly(list(reversed(f.coeffs)), Z, domain="QQ").ground_roots()
    assert rational_roots(f) == {F(int(r.p), int(r.q)) for r in roots}
