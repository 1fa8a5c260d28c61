from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radreduce.cli import GOLDEN
from radreduce.construct import InstanceParams, defining_poly, trace_poly
from radreduce.exactnum import FactorizationError, QuadExt, rational_is_square, rational_odd_root
from radreduce.poly import Poly, rational_roots
from radreduce.reduction import (
    ReductionError,
    classify,
    construct_example,
    euclid_biquadratic,
    euclid_denest,
    reduce_radical,
)
from radreduce import exprtree as et

F = Fraction


QUINTIC = ("reduce_radical", 5, 2, 5)
SEPTIC = ("reduce_radical", 7, -2158, 4656966)
CUBIC = ("reduce_radical", 3, -7, 50)


def golden_rational(call, field):
    """The value `GOLDEN` fixes for `field` of `call`, as a Fraction, or None
    where the table says "irrational"."""
    text = GOLDEN[call][field]
    return None if text == "irrational" else F(text)


class TestReduceGoldenInstances:
    def test_quintic(self):
        r = reduce_radical(*QUINTIC[1:])
        assert r.params.D == golden_rational(QUINTIC, "D")
        assert r.f == Poly([F(c) for c in GOLDEN[QUINTIC]["f"]])
        assert r.z == golden_rational(QUINTIC, "z")
        assert r.u is None and r.u_roots == tuple(F(u) for u in GOLDEN[QUINTIC]["u_roots"])
        assert r.branches is None and r.quadratic_form is None

    def test_septic(self):
        r = reduce_radical(*SEPTIC[1:])
        assert r.params.D == golden_rational(SEPTIC, "D")
        assert r.u == golden_rational(SEPTIC, "u") and r.u_roots == (r.u,)
        assert golden_rational(SEPTIC, "z") is None  # -2 is not a rational 7th power
        assert r.z is None
        assert r.branches is not None and r.branch_values is None
        # branch trees: (root7(-2))^4 * (-1 +- (1/1762) * sqrt(R))
        plus = r.branches[0]
        assert isinstance(plus, et.Mul)
        zpow, inner = plus.factors
        assert zpow == et.Pow(et.NthRoot(et.rat(-2), 7), 4)
        assert inner == et.add(
            et.rat(-1), et.mul(et.rat(F(1, 1762)), et.Sqrt(et.rat(4656966)))
        )

    def test_cubic(self):
        r = reduce_radical(*CUBIC[1:])
        assert r.params.D == -1
        assert r.u == golden_rational(CUBIC, "u")
        assert r.z == golden_rational(CUBIC, "z")
        assert r.branch_values == tuple(
            QuadExt(F(v["a"]), F(v["b"]), F(v["R"])) for v in GOLDEN[CUBIC]["branch_values"]
        )
        # exact denesting: (-1 + sqrt(2))^3 = -7 + sqrt(50), in Q(sqrt(50))
        assert r.branch_values[0] ** 3 == QuadExt(-7, 1, 50)
        assert r.branch_values[1] ** 3 == QuadExt(-7, -1, 50)

    def test_cubic_quadratic_form(self):
        r = reduce_radical(3, -7, 50)
        qf = r.quadratic_form
        assert qf is not None
        assert qf.u == 2 and qf.discriminant == 8
        # factor 1/(2 z) with z = -1
        assert qf.factor == et.rat(F(-1, 2))

    def test_necessary_conditions(self):
        r = reduce_radical(5, 2, 5)
        assert r.conditions.all_hold
        assert r.conditions.g_rational_roots == ()

    def test_deterministic(self):
        assert reduce_radical(7, -2158, 4656966) == reduce_radical(7, -2158, 4656966)


@st.composite
def valid_instances(draw):
    """(p, d, R) with sqrt(R) irrational.  Half the draws put R at k times the
    square (r^p - d)^2 that a rational zero r of g would require."""
    p = draw(st.sampled_from([3, 5, 7, 9]))
    d = draw(st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(bool))
    if draw(st.booleans()):
        R = draw(st.fractions(min_value=-30, max_value=30, max_denominator=4))
    else:
        r = draw(st.fractions(min_value=-2, max_value=2, max_denominator=2))
        R = draw(st.sampled_from([2, 3, 5, -1, -2, -3])) * (r**p - d) ** 2
    assume(R != 0 and R != d * d and rational_is_square(R) is None)
    return p, d, R


class TestValidityDecidesConditions:
    @given(valid_instances())
    @settings(max_examples=80, deadline=None)
    def test_g_has_no_rational_roots(self, instance):
        # The proof in the NecessaryConditions docstring, against a full scan.
        g = defining_poly(InstanceParams.create(*instance))
        assert rational_roots(g) == set()


class TestQuadExtConstructions:
    """Only exact branch values are built in Q(sqrt(R)); g needs no conjugate
    factors over it."""

    @pytest.fixture
    def count(self, monkeypatch):
        made = []
        original = QuadExt.__post_init__

        def counting(self):
            made.append(self)
            original(self)

        monkeypatch.setattr(QuadExt, "__post_init__", counting)
        return made

    @pytest.mark.parametrize(
        "call,expected",
        [
            ((reduce_radical, 5, 2, 5), 0),
            ((reduce_radical, 7, -2158, 4656966), 0),
            ((construct_example, 7, -2, 4), 0),
            ((reduce_radical, 3, -7, 50), 2),  # the two branch values
        ],
    )
    def test_count(self, count, call, expected):
        fn, *args = call
        fn(*args)
        assert len(count) == expected


class TestReduceErrors:
    def test_square_R(self):
        with pytest.raises(ReductionError, match="square"):
            reduce_radical(3, 3, 4)

    @pytest.mark.parametrize("p,d,R", [(4, 1, 2), (3, 0, 2), (3, 1, 0), (3, 2, 4)])
    def test_invalid_params(self, p, d, R):
        with pytest.raises(ValueError):
            reduce_radical(p, d, R)

    def test_pseudoprime_in_the_search_raises_instead_of_missing_the_root(self):
        # f = Z^3 - 3DZ - 2dD has the zero a; its constant term carries a*b,
        # a strong pseudoprime to every base up to 37.
        a, b = 399165290221, 798330580441
        D = F(a * a - b, 3)
        d = (a**3 - 3 * D * a) / (2 * D)
        R = d * d - D
        assert trace_poly(InstanceParams.create(3, d, R)).evaluate(F(a)) == 0
        with pytest.raises(FactorizationError):
            reduce_radical(3, d, R)


class TestConstructExample:
    def test_septic_construction(self):
        params, g = construct_example(7, -2, 4)
        assert params.d == -2158
        assert params.R == 4656966 == 6 * 881**2
        assert g.coeff(0) == -2 and g.coeff(7) == 4316 and g.coeff(14) == 1

    def test_cubic_construction(self):
        # d = (1/2)(c1*u + c3*u^3/D) = (1/2)(-6 + 8/(-1)) = -7
        params, _ = construct_example(3, -1, 2)
        assert params.d == -7 and params.R == 50

    def test_roundtrip(self):
        params, _ = construct_example(3, -1, 2)
        r = reduce_radical(params.p, params.d, params.R)
        assert F(2) in r.u_roots

    def test_degenerate_R_zero(self):
        # p=3, D=4, u=4 gives d = 2 and R = d^2 - D = 0.
        with pytest.raises(ReductionError, match="R = 0"):
            construct_example(3, 4, 4)

    def test_degenerate_d_zero(self):
        with pytest.raises(ReductionError, match="d = 0"):
            construct_example(5, 2, 0)

    def test_zero_D_rejected(self):
        with pytest.raises(ValueError):
            construct_example(5, 0, 1)

    @given(
        p=st.sampled_from([3, 5, 7, 9, 13]),
        D=st.fractions(min_value=-6, max_value=6, max_denominator=3).filter(lambda q: q != 0),
        u=st.fractions(min_value=-6, max_value=6, max_denominator=3).filter(lambda q: q != 0),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, p, D, u):
        try:
            params, g = construct_example(p, D, u)
        except ReductionError:
            assume(False)
            return
        assert params.D == D
        # The choice of d plants u as a zero of f.
        assert trace_poly(params).evaluate(u) == 0
        r = reduce_radical(params.p, params.d, params.R)
        assert u in r.u_roots
        # the defining polynomial evaluates the radicand norm correctly
        assert g.coeff(0) == params.d**2 - params.R

    @pytest.mark.xfail(raises=FactorizationError, strict=True)
    def test_roundtrip_p13_past_the_factoring_bound(self):
        # An example test_roundtrip_property can draw: the cleared trace
        # polynomial leaves the cofactor 380831479479361, beyond trial
        # division to 10^6, so the rational-root search gives up.
        params, _ = construct_example(13, 1, F(17, 3))
        r = reduce_radical(params.p, params.d, params.R)
        assert F(17, 3) in r.u_roots

    @given(
        p=st.sampled_from([3, 5]),
        z=st.sampled_from([F(-1), F(2), F(-2), F(1, 2), F(3)]),
        u=st.fractions(min_value=-5, max_value=5, max_denominator=2).filter(lambda q: q != 0),
    )
    @settings(max_examples=40, deadline=None)
    def test_quadratic_form_identities_with_rational_z(self, p, z, u):
        # With z rational and disc = u^2 - 4D non-square, the two values
        # factor*(u +- sqrt(disc)) satisfy y*y' = z and z^((p-1)/2)(y+y') = u.
        D = z**p
        try:
            params, _ = construct_example(p, D, u)
        except ReductionError:
            assume(False)
            return
        r = reduce_radical(params.p, params.d, params.R)
        assert u in r.u_roots
        assert r.z == rational_odd_root(D, p)
        disc = u * u - 4 * D
        assume(disc != 0)
        zr = r.z
        factor = F(1, 2) / zr ** ((p - 1) // 2)
        try:
            y = QuadExt(u * factor, factor, disc)
        except ValueError:
            assume(False)  # disc happened to be a rational square
            return
        y_conj = QuadExt(u * factor, -factor, disc)
        assert y * y_conj == QuadExt(zr, 0, disc)
        assert (y + y_conj) * zr ** ((p - 1) // 2) == QuadExt(u, 0, disc)


class TestEuclidDenest:
    def test_three_plus_sqrt_five(self):
        den = euclid_denest(3, 5)
        assert (den.x1, den.x2) == (F(5, 2), F(1, 2))
        assert den.both_nonnegative
        assert den.certify(3, 5)

    def test_two_plus_sqrt_three(self):
        den = euclid_denest(2, 3)
        assert (den.x1, den.x2) == (F(3, 2), F(1, 2))
        assert den.certify(2, 3)

    def test_criterion_fails(self):
        assert euclid_denest(1, F(1, 2)) is None

    def test_square_R_rejected(self):
        with pytest.raises(ValueError, match="square"):
            euclid_denest(5, 9)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            euclid_denest(-3, 5)

    @given(
        d=st.fractions(min_value=F(1, 4), max_value=20, max_denominator=6),
        R=st.fractions(min_value=F(1, 4), max_value=20, max_denominator=6),
    )
    @settings(max_examples=60)
    def test_outputs_always_certify(self, d, R):
        try:
            den = euclid_denest(d, R)
        except ValueError:
            assume(False)
            return
        if den is not None:
            assert den.certify(d, R)
            assert den.both_nonnegative


class TestEuclidBiquadratic:
    def test_seven_plus_sqrt_48(self):
        den = euclid_biquadratic(7, 48)
        assert (den.inner, den.half_k) == (F(1), F(1, 2))
        assert den.certify(7, 48)

    def test_negative_difference_fails(self):
        assert euclid_biquadratic(2, 5) is None

    def test_square_but_not_fourth_power_fails(self):
        # d^2 - R = 4 is a square but not a rational fourth power.
        assert euclid_biquadratic(3, 5) is None

    def test_square_R_rejected(self):
        with pytest.raises(ValueError, match="square"):
            euclid_biquadratic(5, 9)

    @given(
        d=st.fractions(min_value=F(1, 4), max_value=20, max_denominator=6),
        k=st.fractions(min_value=F(1, 4), max_value=2, max_denominator=4),
    )
    @settings(max_examples=60)
    def test_planted_fourth_powers_certify(self, d, k):
        R = d * d - k**4
        assume(R > 0)
        try:
            den = euclid_biquadratic(d, R)
        except ValueError:
            assume(False)
            return
        assert den is not None
        assert den.certify(d, R)


class TestClassify:
    def test_septic_instance(self):
        report = classify(7, -2158, 4656966)
        assert report.applicable
        # 4656966 * (-7) = -42 * 881^2 is not a square
        assert report.prop2_field_equal is False
        assert report.prop3_case == "b"

    def test_quintic_instance(self):
        report = classify(5, 2, 5)
        assert report.applicable
        # 5 * (-1)^2 * 5 = 25 is a square
        assert report.prop2_field_equal is True
        assert report.prop3_case == "a"  # D = -1 = (-1)^5

    def test_cubic_instance(self):
        report = classify(3, -7, 50)
        assert report.applicable
        # 50 * (-3) = -150 is not a square
        assert report.prop2_field_equal is False
        assert report.prop3_case == "a"

    def test_composite_p_not_applicable(self):
        report = classify(9, 2, 7)
        assert not report.applicable
        assert report.prop2_field_equal is None and report.prop3_case is None
        assert "composite" in report.note

    def test_case_matches_pth_power_test(self):
        for (p, d, R) in [(3, -7, 50), (5, 2, 5), (7, -2158, 4656966)]:
            report = classify(p, d, R)
            D = F(d) ** 2 - F(R)
            assert (report.prop3_case == "a") == (rational_odd_root(D, p) is not None)

    def test_json_round(self):
        obj = classify(7, -2158, 4656966).to_json()
        assert obj["prop3_case"] == "b" and obj["applicable"] is True
