"""Differential tests for the integer kernels behind the identity checks.

Each kernel is compared with the direct computation it replaced, kept here
as an oracle: the binomial-row loop for the expansion sum, forward
substitution with math.comb for the C system that `system_C` solves by
radix conversion, Poly-of-ParamPoly products, flattened, for the sides of
the fundamental identity, and term-by-term sums for the convolutions.
"""

from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import radreduce.identity as identity_mod
from radreduce.coeffs import dickson, system_C
from radreduce.construct import cofactor_symbolic, sqrt_part_symbolic, trace_poly_symbolic
from radreduce.identity import (
    _convolve,
    _expansion_sum,
    _flat,
    _signed_digits,
    fundamental_identity_sides,
    verify_expansion,
)
from radreduce.poly import ParamPoly, Poly


def expansion_sum_oracle(p, cs):
    total = [0] * (p + 1)
    for k, c in enumerate(cs):
        m = p - 2 * k
        row = 1
        for i in range(m + 1):
            total[k + i] += c * row
            row = row * (m - i) // (i + 1)
    return Poly(total)


def system_C_oracle(p):
    out = [1]
    for j in range(1, (p - 1) // 2 + 1):
        out.append(-sum(out[k] * comb(p - 2 * k, j - k) for k in range(j)))
    return out


def sides_oracle(p, trace=None, sqrt_num=None, cofactor_num=None):
    f = trace if trace is not None else trace_poly_symbolic(p)
    at = sqrt_num if sqrt_num is not None else sqrt_part_symbolic(p).numerator
    ft = cofactor_num if cofactor_num is not None else cofactor_symbolic(p).numerator
    correction = Poly([ParamPoly.monomial(-4, 0, 1), ParamPoly(), ParamPoly.const(1)])
    scalar = ParamPoly({(2, 0): 1, (0, 1): -1}) * ParamPoly.monomial(1, 0, p - 3)
    return at * at, f * ft + correction * scalar


def convolve_oracle(xs, ys):
    out = [0] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] += x * y
    return out


odd_p = st.integers(1, 30).map(lambda h: 2 * h + 1)
# Zeros, small values of both signs and values up to 2^400 in magnitude, so
# the slot width is set by the largest coefficient, not by p alone.
ints = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**400), 2**400))


@st.composite
def expansion_cases(draw):
    p = draw(odd_p)
    return p, draw(st.lists(ints, min_size=(p + 1) // 2, max_size=(p + 1) // 2))


class TestExpansionSum:
    @given(expansion_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_binomial_rows(self, case):
        p, cs = case
        assert _expansion_sum(p, cs) == expansion_sum_oracle(p, cs)

    @pytest.mark.parametrize("p", [3, 61, 199])
    def test_closed_form_reconstructs_target(self, p):
        got = _expansion_sum(p, system_C(p))
        assert got == Poly([1] + [0] * (p - 1) + [1]) == expansion_sum_oracle(p, system_C(p))

    def test_overflowing_digits_raise(self):
        # One byte per slot holds digits of magnitude below 2^7.
        assert _signed_digits(-127 + (127 << 8), 2, 1) == [-127, 127]
        with pytest.raises(ArithmeticError):
            _signed_digits(128 << 8, 2, 1)
        with pytest.raises(ArithmeticError):
            _signed_digits(-(1 << 100), 2, 1)


class TestConvolve:
    @given(st.lists(ints, min_size=1, max_size=40), st.lists(ints, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_term_by_term_sums(self, xs, ys):
        assert _convolve(xs, ys) == convolve_oracle(xs, ys)


class TestSystemC:
    @given(st.integers(1, 150).map(lambda h: 2 * h + 1))
    @example(401)  # the upper limit of verify --p-max
    @settings(max_examples=40, deadline=None)
    def test_matches_comb_forward_substitution(self, p):
        assert system_C(p) == system_C_oracle(p)

    def test_matches_closed_form_at_the_p_limit(self):
        # --p goes up to 1001, where the comb oracle takes over a second.
        assert system_C(1001) == [dickson(1001, k) for k in range(501)]

    @pytest.mark.parametrize("p", [3, 61, 199, 401, 1001])
    def test_digits_fit_the_slot_width(self, p):
        # The |C| sum to the Lucas number L_p < 2^p, so each fits in p bits
        # and reads exactly from a signed slot of p + 2 bits.
        assert max(map(abs, system_C(p))).bit_length() <= p


@st.composite
def perturbations(draw):
    p = draw(st.sampled_from([3, 5, 7, 9, 11, 13]))
    which = draw(st.sampled_from(["trace", "sqrt_num", "cofactor_num"]))
    original = {
        "trace": trace_poly_symbolic(p),
        "sqrt_num": sqrt_part_symbolic(p).numerator,
        "cofactor_num": cofactor_symbolic(p).numerator,
    }[which]
    index = draw(st.integers(0, original.degree))
    delta = draw(
        st.one_of(
            st.integers(-5, 5).filter(bool),
            st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
        )
    )
    # Either a fresh monomial or minus an existing coefficient's own term, so
    # that some perturbations cancel a term outright.
    if draw(st.booleans()):
        bump = ParamPoly.monomial(delta, draw(st.integers(0, 2)), draw(st.integers(0, p)))
    else:
        bump = -original.coeffs[index]
    coeffs = list(original.coeffs)
    coeffs[index] = coeffs[index] + bump
    return p, {which: Poly(coeffs)}


def flat_oracle(p, **override):
    """The oracle's sides as {(z, deg_d, deg_D): value} maps, zeros dropped."""
    return tuple(_flat(side) for side in sides_oracle(p, **override))


class TestFundamentalSides:
    @pytest.mark.parametrize("p", range(3, 62, 2))
    def test_unperturbed_sides_match_products_exactly(self, p):
        # Same monomials, same coefficients and the same value type (int or
        # Fraction) for every one of them.
        got, want = fundamental_identity_sides(p), flat_oracle(p)
        assert got == want
        for g, w in zip(got, want):
            assert {k: type(v) for k, v in g.items()} == {k: type(v) for k, v in w.items()}

    @given(perturbations())
    @settings(max_examples=150, deadline=None)
    def test_perturbed_sides_match_products(self, case):
        p, override = case
        assert fundamental_identity_sides(p, **override) == flat_oracle(p, **override)


class TestSingleReconstruction:
    def test_agreeing_lists_are_summed_once(self, monkeypatch):
        calls = []
        real = identity_mod._expansion_sum
        monkeypatch.setattr(
            identity_mod, "_expansion_sum", lambda p, cs: calls.append(p) or real(p, cs)
        )
        assert verify_expansion(9).ok
        assert calls == [9]

    def test_differing_lists_each_get_their_own_sum(self, monkeypatch):
        real = identity_mod.family

        def bumped(p, tag):
            indices, values = real(p, tag)
            return indices, [v + 5 * (tag == "c" and k == 2) for k, v in enumerate(values)]

        monkeypatch.setattr(identity_mod, "family", bumped)
        checks = {c.name: c for c in verify_expansion(9).checks}
        assert checks["expansion-reconstructs-with-system-coefficients"].passed
        closed = checks["expansion-reconstructs-with-closed-form-coefficients"]
        assert not closed.passed
        # The witness as the two-sum implementation reported it.
        assert closed.witness == "X^2: left 5, right 0"

