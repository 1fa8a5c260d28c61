from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radreduce.coeffs import (
    binom,
    coeff_a,
    coeff_c,
    coeff_cprime,
    coeff_u,
    conv_s,
    conv_t,
    s_recurrence_coeffs,
    system_C,
    t_recurrence_coeffs,
    vanishing_sum,
)

F = Fraction

ODD_P = list(range(3, 40, 2))


class TestBinom:
    def test_extended_convention(self):
        assert binom(5, -1) == 0
        assert binom(5, 6) == 0
        assert binom(5, 2) == 10


class TestTraceCoefficients:
    def test_quintic_family(self):
        # f = Z^5 - 5D Z^3 + 5D^2 Z - 2dD^2 gives c1=5, c3=-5, c5=1.
        assert [coeff_c(5, k) for k in range(3)] == [5, -5, 1]

    def test_leading_coefficient_is_one(self):
        for p in ODD_P:
            assert coeff_c(p, (p - 1) // 2) == 1

    def test_cubic_value(self):
        # direct substitution: (-1)^1 * (3/2) * binom(2, 1) = -3
        assert coeff_c(3, 0) == -3

    def test_out_of_range_is_zero(self):
        assert coeff_c(5, 3) == 0
        assert coeff_c(5, -1) == 0


class TestSqrtPartCoefficients:
    def test_quintic_family(self):
        assert [coeff_a(5, k) for k in range(3)] == [2, -4, 1]

    def test_cubic_value(self):
        assert coeff_a(3, 0) == 2

    def test_out_of_range_is_zero(self):
        assert coeff_a(5, 3) == 0


class TestCofactorCoefficients:
    def test_quintic_family(self):
        assert coeff_cprime(5, 0) == -3
        assert coeff_cprime(5, 1) == 1

    def test_cubic_value(self):
        # (p-2)/((p-1)/2) * binom(1, 1) = 1
        assert coeff_cprime(3, 0) == 1

    def test_out_of_range_is_zero(self):
        assert coeff_cprime(5, 2) == 0


class TestExpansionSystem:
    def test_cubic(self):
        # forward substitution: 0 = C3 * binom(3,1) + C1
        assert system_C(3) == [1, -3]

    def test_quintic(self):
        assert system_C(5) == [1, -5, 5]

    def test_top_coefficient_is_one(self):
        for p in ODD_P:
            assert system_C(p)[0] == 1

    @pytest.mark.parametrize("p", ODD_P)
    def test_system_equals_closed_form(self, p):
        half = (p - 1) // 2
        closed = [coeff_c(p, half - k) for k in range(half + 1)]
        assert system_C(p) == closed


class TestClosedFormU:
    def test_u1_formula(self):
        for p in ODD_P:
            assert coeff_u(p, 1) == -((p - 1) ** 2)

    def test_u2_formula(self):
        for p in range(5, 40, 2):
            assert coeff_u(p, 2) == F(p * (p - 1) ** 2 * (p - 2), 12)

    def test_value(self):
        assert coeff_u(5, 2) == 20  # 5*16*3/12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            coeff_u(5, 5)
        with pytest.raises(ValueError):
            coeff_u(5, 0)


class TestConvolutions:
    def test_s1_is_minus_square(self):
        for p in ODD_P:
            assert conv_s(p, 1) == -((p - 1) ** 2)

    def test_s_cubic(self):
        # 2 * a0 * a2 = 2 * 2 * (-1) = -4
        assert conv_s(3, 1) == -4

    def test_s_quintic(self):
        # a0*a4 + a2^2 + a4*a0 = 2 + 16 + 2
        assert conv_s(5, 2) == 20

    def test_t_quintic(self):
        # c1*c'3 + c3*c'1 = 5*1 + (-5)(-3)
        assert conv_t(5, 2) == 20

    def test_t2_t3_formulas(self):
        for p in range(5, 40, 2):
            assert conv_t(p, 2) == F(p * (p - 1) ** 2 * (p - 2), 12)
            assert conv_t(p, 3) == -F(p * (p - 1) ** 2 * (p - 2) * (p - 3) * (p + 1), 360)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            conv_s(5, 0)
        with pytest.raises(ValueError):
            conv_t(5, 1)


class TestVanishingSum:
    def test_j_zero_is_one(self):
        for p in ODD_P:
            assert vanishing_sum(p, 0) == 1

    def test_quintic_j1(self):
        assert vanishing_sum(5, 1) == 0  # 5 - 5

    def test_septic_j3(self):
        # 35 - 70 + 42 - 7
        assert vanishing_sum(7, 3) == 0

    @pytest.mark.parametrize("p", ODD_P)
    def test_vanishes_for_positive_j(self, p):
        for j in range(1, (p - 1) // 2 + 1):
            assert vanishing_sum(p, j) == 0

    def test_vanishes_up_to_199(self):
        for p in range(41, 200, 2):
            for j in range(1, (p - 1) // 2 + 1):
                assert vanishing_sum(p, j) == 0


class TestIntegrality:
    @pytest.mark.parametrize("p", ODD_P)
    def test_all_families_are_integers(self, p):
        half = (p - 1) // 2
        values = [coeff_c(p, k) for k in range(half + 1)]
        values += [coeff_a(p, k) for k in range(half + 1)]
        values += [coeff_cprime(p, j) for j in range((p - 3) // 2 + 1)]
        values += system_C(p)
        values += [coeff_u(p, k) for k in range(1, p)]
        assert all(v.denominator == 1 for v in values)


def _sign(n):
    return -1 if n % 2 else 1


# The closed forms in Fraction arithmetic, the reference for the integer code.
def c_closed(p, k):
    return _sign((p - 1) // 2 - k) * F(p, (p + 1) // 2 + k) * binom((p + 1) // 2 + k, 2 * k + 1)


def c_descending_closed(p, k):
    return _sign(k) * F(p, p - k) * binom(p - k, k)


def a_closed(p, k):
    return _sign(k) * F(p - 1, (p - 1) // 2 + k) * binom((p - 1) // 2 + k, 2 * k)


def cprime_closed(p, j):
    return _sign((p - 3) // 2 - j) * F(p - 2, (p - 1) // 2 + j) * binom((p - 1) // 2 + j, 2 * j + 1)


def u_closed(p, k):
    return _sign(k) * F(p - 1, k) * binom(p + k - 2, 2 * k - 1)


class TestIntegerFamiliesMatchFractionClosedForms:
    odd_p = st.integers(min_value=1, max_value=150).map(lambda h: 2 * h + 1)

    @staticmethod
    def assert_int_equal(got, want):
        assert type(got) is int and got == want

    @settings(max_examples=60, deadline=None)
    @given(odd_p, st.data())
    def test_families(self, p, data):
        half = (p - 1) // 2
        k = data.draw(st.integers(min_value=0, max_value=half))
        self.assert_int_equal(coeff_c(p, k), c_closed(p, k))
        self.assert_int_equal(coeff_c(p, half - k), c_descending_closed(p, k))
        self.assert_int_equal(coeff_a(p, k), a_closed(p, k))
        j = data.draw(st.integers(min_value=0, max_value=half - 1))
        self.assert_int_equal(coeff_cprime(p, j), cprime_closed(p, j))
        ku = data.draw(st.integers(min_value=1, max_value=p - 1))
        self.assert_int_equal(coeff_u(p, ku), u_closed(p, ku))
        self.assert_int_equal(conv_s(p, ku), u_closed(p, ku))
        if ku >= 2:
            self.assert_int_equal(conv_t(p, ku), u_closed(p, ku))

    @settings(max_examples=20, deadline=None)
    @given(odd_p)
    def test_system_C(self, p):
        solved = system_C(p)
        assert all(type(c) is int for c in solved)
        assert solved == [c_descending_closed(p, k) for k in range((p + 1) // 2)]


class TestRecurrences:
    def test_worked_quintic_example(self):
        # (4+6+2) s_2 + (-1 - 10 + 1 + 25) s_1 = 12*20 + 15*(-16) = 0
        ca, cb = s_recurrence_coeffs(5, 1)
        assert (ca, cb) == (12, 15)
        assert ca * conv_s(5, 2) + cb * conv_s(5, 1) == 0

    @pytest.mark.parametrize("p", range(5, 30, 2))
    def test_s_recurrence(self, p):
        for k in range(1, p - 1):
            ca, cb = s_recurrence_coeffs(p, k)
            assert ca * conv_s(p, k + 1) + cb * conv_s(p, k) == 0

    @pytest.mark.parametrize("p", range(7, 30, 2))
    def test_t_recurrence(self, p):
        for k in range(2, p - 2):
            ca, cb, cc = t_recurrence_coeffs(p, k)
            assert ca * conv_t(p, k + 2) + cb * conv_t(p, k + 1) + cc * conv_t(p, k) == 0

    @pytest.mark.parametrize("p", range(5, 30, 2))
    def test_convolutions_equal_closed_form(self, p):
        for k in range(1, p):
            assert conv_s(p, k) == coeff_u(p, k)
        for k in range(2, p):
            assert conv_t(p, k) == coeff_u(p, k)
