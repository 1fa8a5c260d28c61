import functools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radreduce.cli import GOLDEN
from radreduce.construct import (
    ClearedForm,
    InstanceParams,
    ReductionError,
    cofactor_poly,
    cofactor_symbolic,
    defining_poly,
    sqrt_part_poly,
    sqrt_part_symbolic,
    trace_poly,
    trace_poly_symbolic,
)
from radreduce.exactnum import QuadExt, rational_is_square
from radreduce.poly import ParamPoly, Poly

F = Fraction


def fpoly(*coeffs):
    return Poly([F(c) for c in coeffs])


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def valid_params(p, d, R):
    d, R = F(d), F(R)
    return d != 0 and R != 0 and d * d - R != 0 and rational_is_square(R) is None


class TestInstanceParams:
    def test_derived_norm(self):
        params = InstanceParams.create(5, 2, 5)
        assert params.D == -1

    @pytest.mark.parametrize("p,d,R", [(4, 1, 2), (1, 1, 2), (3, 0, 2), (3, 1, 0), (3, 2, 4)])
    def test_invalid_rejected(self, p, d, R):
        with pytest.raises(ValueError):
            InstanceParams.create(p, d, R)


class TestTracePoly:
    def test_quintic_concrete(self):
        params = InstanceParams.create(5, 2, 5)
        assert trace_poly(params) == fpoly(-4, 5, 0, 5, 0, 1)

    def test_quintic_symbolic(self):
        # Z^5 - 5D Z^3 + 5D^2 Z - 2dD^2
        f = trace_poly_symbolic(5)
        assert f.coeff(5) == ParamPoly.const(1)
        assert f.coeff(3) == ParamPoly.monomial(-5, 0, 1)
        assert f.coeff(1) == ParamPoly.monomial(5, 0, 2)
        assert f.coeff(0) == ParamPoly.monomial(-2, 1, 2)
        assert not f.coeff(2) and not f.coeff(4)

    def test_cubic_symbolic(self):
        # Z^3 - 3D Z - 2dD
        f = trace_poly_symbolic(3)
        assert f.coeff(3) == ParamPoly.const(1)
        assert f.coeff(1) == ParamPoly.monomial(-3, 0, 1)
        assert f.coeff(0) == ParamPoly.monomial(-2, 1, 1)

    @pytest.mark.parametrize("p", range(3, 100, 2))
    def test_monic_with_expected_constant_term(self, p):
        params = InstanceParams.create(p, F(3, 2), F(-5, 3))
        f = trace_poly(params)
        assert f.degree == p
        assert f.leading() == 1
        assert f.coeff(0) == -2 * params.d * params.D ** ((p - 1) // 2)

    @given(small_fractions, small_fractions, st.sampled_from([3, 5, 7, 9, 11]))
    @settings(max_examples=40)
    def test_symbolic_matches_concrete(self, d, D, p):
        R = d * d - D
        assume(valid_params(p, d, R))
        params = InstanceParams.create(p, d, R)
        sym = trace_poly_symbolic(p).map(lambda c: c.subs(d, D))
        assert sym == trace_poly(params)


class TestSqrtPartPoly:
    def test_quintic_concrete(self):
        params = InstanceParams.create(5, 2, 5)
        assert sqrt_part_poly(params) == fpoly(F(1, 5), F(1, 5), F(2, 5), 0, F(1, 10))

    def test_cubic_concrete(self):
        params = InstanceParams.create(3, -7, 50)
        assert sqrt_part_poly(params) == fpoly(F(1, 50), F(7, 100), F(1, 100))

    @pytest.mark.parametrize("p", range(3, 60, 2))
    def test_degree(self, p):
        params = InstanceParams.create(p, 2, 7)
        assert sqrt_part_poly(params).degree == p - 1

    @given(small_fractions, small_fractions, st.sampled_from([3, 5, 7, 9]))
    @settings(max_examples=40)
    def test_cleared_form_matches_concrete(self, d, D, p):
        R = d * d - D
        assume(valid_params(p, d, R))
        params = InstanceParams.create(p, d, R)
        cleared = sqrt_part_symbolic(p)
        den = cleared.denominator.subs(d, D)
        assert den == 2 * R * D ** ((p - 1) // 2)
        num = cleared.numerator.map(lambda c: c.subs(d, D))
        assert num == sqrt_part_poly(params) * den


class TestCofactorPoly:
    def test_quintic_cleared_numerator(self):
        # Z^3 - 3D Z - 2dD over Q[d, D]
        cleared = cofactor_symbolic(5)
        assert cleared.numerator.coeff(3) == ParamPoly.const(1)
        assert cleared.numerator.coeff(1) == ParamPoly.monomial(-3, 0, 1)
        assert cleared.numerator.coeff(0) == ParamPoly.monomial(-2, 1, 1)

    def test_cubic_cleared_numerator(self):
        # Z - 2d with denominator R
        cleared = cofactor_symbolic(3)
        assert cleared.numerator.coeff(1) == ParamPoly.const(1)
        assert cleared.numerator.coeff(0) == ParamPoly.monomial(-2, 1, 0)
        assert cleared.denominator == ParamPoly({(2, 0): F(1), (0, 1): F(-1)})

    @pytest.mark.parametrize("p", range(3, 60, 2))
    def test_degree(self, p):
        params = InstanceParams.create(p, 2, 7)
        assert cofactor_poly(params).degree == p - 2

    @given(small_fractions, small_fractions, st.sampled_from([3, 5, 7, 9]))
    @settings(max_examples=40)
    def test_cleared_form_matches_concrete(self, d, D, p):
        R = d * d - D
        assume(valid_params(p, d, R))
        params = InstanceParams.create(p, d, R)
        cleared = cofactor_symbolic(p)
        den = cleared.denominator.subs(d, D)
        assert den == R * D ** (p - 3)
        num = cleared.numerator.map(lambda c: c.subs(d, D))
        assert num == cofactor_poly(params) * den


@functools.lru_cache(maxsize=None)
def dickson_recurrence(n):
    """D_n(Z, D) as {(Z-degree, D-degree): coefficient}, from D_0 = 2, D_1 = Z
    and D_n = Z D_{n-1} - D D_{n-2}; independent of `radreduce.coeffs`."""
    if n < 2:
        return {(n, 0): 2 - n}
    out = Counter()
    for (z, j), c in dickson_recurrence(n - 1).items():
        out[z + 1, j] += c
    for (z, j), c in dickson_recurrence(n - 2).items():
        out[z, j + 1] -= c
    return {key: c for key, c in out.items() if c}


def expected_numerator(n, sign, d_term):
    """sign * (D_n + d_term) as {(Z-degree, d-degree, D-degree): coefficient},
    with d_term one {(Z-degree, d-degree, D-degree): coefficient} entry."""
    terms = {(z, 0, j): c for (z, j), c in dickson_recurrence(n).items()}
    ((key, c),) = d_term.items()
    assert key not in terms
    terms[key] = c
    return {key: sign * c for key, c in terms.items()}


def flat(poly):
    """A Poly of ParamPoly as {(Z-degree, d-degree, D-degree): coefficient}."""
    return {(z, i, j): v for z, c in enumerate(poly.coeffs) for (i, j), v in c.terms.items()}


def statements(p):
    """{name: (numerator, denominator)} of f, At and Ft' from the recurrence,
    h = (p-1)/2; the denominators are built as products."""
    h = (p - 1) // 2
    R = ParamPoly({(2, 0): 1, (0, 1): -1})  # d^2 - D
    return {
        "f": (expected_numerator(p, 1, {(0, 1, h): -2}), ParamPoly.const(1)),
        "A": (
            expected_numerator(p - 1, (-1) ** h, {(1, 1, h - 1): -1}),
            2 * R * ParamPoly.monomial(1, 0, h),
        ),
        "f'": (
            expected_numerator(p - 2, 1, {(0, 1, h - 1): -2}),
            R * ParamPoly.monomial(1, 0, p - 3),
        ),
    }


SYMBOLIC = {
    "f": lambda p: ClearedForm(trace_poly_symbolic(p), ParamPoly.const(1)),
    "A": sqrt_part_symbolic,
    "f'": cofactor_symbolic,
}
CONCRETE = {"f": trace_poly, "A": sqrt_part_poly, "f'": cofactor_poly}


class TestDicksonStatements:
    """f = D_p - 2dD^h, At = (-1)^h (D_{p-1} - dD^(h-1) Z) over 2(d^2 - D)D^h and
    Ft' = D_{p-2} - 2dD^(h-1) over (d^2 - D)D^(p-3), with D_n built by its
    three-term recurrence rather than by the closed form the library uses."""

    def test_recurrence_oracle(self):
        # D_5 = Z^5 - 5D Z^3 + 5D^2 Z
        assert dickson_recurrence(5) == {(5, 0): 1, (3, 1): -5, (1, 2): 5}

    @pytest.mark.parametrize("p", range(3, 100, 2))
    def test_symbolic_matches_recurrence(self, p):
        for name, (numerator, denominator) in statements(p).items():
            cleared = SYMBOLIC[name](p)
            assert flat(cleared.numerator) == numerator, name
            assert cleared.denominator == denominator, name

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 31, 99])
    def test_concrete_matches_recurrence(self, p):
        d, D = F(3, 2), F(-5, 7)
        params = InstanceParams.create(p, d, d * d - D)
        for name, (numerator, denominator) in statements(p).items():
            coeffs = [F(0)] * (max(z for z, _, _ in numerator) + 1)
            for (z, i, j), c in numerator.items():
                coeffs[z] += c * d**i * D**j
            want = Poly(coeffs).map(lambda c: c / denominator.subs(d, D))
            assert CONCRETE[name](params) == want, name


def golden_g(p, d, R):
    """The g that `GOLDEN` fixes for `reduce_radical(p, d, R)`."""
    return Poly([F(c) for c in GOLDEN["reduce_radical", p, d, R]["g"]])


class TestDefiningPolys:
    def test_quintic_instance(self):
        params = InstanceParams.create(5, 2, 5)
        assert defining_poly(params) == golden_g(5, 2, 5)

    def test_septic_instance(self):
        params = InstanceParams.create(7, -2158, 4656966)
        assert defining_poly(params) == golden_g(7, -2158, 4656966)

    def test_square_R_rejected(self):
        # A square R never reaches defining_poly: InstanceParams.create rejects it.
        with pytest.raises(ReductionError, match="R = 4 is a rational square"):
            defining_poly(InstanceParams.create(3, 3, 4))

    @given(small_fractions, small_fractions, st.sampled_from([3, 5, 7]))
    @settings(max_examples=40)
    def test_conjugate_factorization(self, d, R, p):
        # g = h_plus * h_minus over Q(sqrt(R)), h_pm = Z^p - (d +- sqrt(R)).
        assume(valid_params(p, d, R))
        params = InstanceParams.create(p, d, R)

        def factor(sign):
            cs = [QuadExt(0, 0, params.R)] * (p + 1)
            cs[0] = QuadExt(-params.d, -sign, params.R)
            cs[p] = QuadExt(1, 0, params.R)
            return Poly(cs)

        lifted = defining_poly(params).map(lambda q: QuadExt(q, 0, params.R))
        assert factor(+1) * factor(-1) == lifted
