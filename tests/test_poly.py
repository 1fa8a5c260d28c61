import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radreduce.exactnum import QuadExt, divisors
from radreduce.poly import ParamPoly, Poly, rational_roots

F = Fraction

fractions_small = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def fpoly(*coeffs):
    return Poly([F(c) for c in coeffs])


class TestPolyBasics:
    def test_difference_of_squares(self):
        assert fpoly(1, 1) * fpoly(-1, 1) == fpoly(-1, 0, 1)

    def test_additive_identity(self):
        quintic = fpoly(-4, 5, 0, 5, 0, 1)
        assert quintic + Poly() == quintic

    def test_planted_root_evaluates_to_zero(self):
        # Z^3 + 3Z - 14 has the zero 2.
        assert fpoly(-14, 3, 0, 1).evaluate(F(2)) == 0

    def test_normalization_strips_trailing_zeros(self):
        assert Poly([F(1), F(0), F(0)]) == Poly([F(1)])
        assert Poly([F(0)]).is_zero()

    def test_degree(self):
        assert fpoly(-4, 5, 0, 5, 0, 1).degree == 5
        assert Poly().degree == -1

    def test_coeff_out_of_range_is_zero(self):
        assert fpoly(1, 2).coeff(7) == 0

    def test_scale(self):
        assert fpoly(1, 2) * F(3) == fpoly(3, 6)
        assert F(3) * fpoly(1, 2) == fpoly(3, 6)

    def test_pow(self):
        assert fpoly(1, 1) ** 3 == fpoly(1, 3, 3, 1)

    def test_leading_of_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            Poly().leading()


class TestRendering:
    def test_quintic_text(self):
        assert fpoly(-4, 5, 0, 5, 0, 1).to_text() == "Z^5 + 5*Z^3 + 5*Z - 4"

    def test_leading_minus(self):
        assert fpoly(1, 0, -1).to_text() == "-Z^2 + 1"

    def test_fractional_coefficients(self):
        assert fpoly(F(1, 5), 0, F(1, 10)).to_text() == "1/10*Z^2 + 1/5"

    def test_zero(self):
        assert Poly().to_text() == "0"

    def test_json_coeffs(self):
        assert fpoly(-4, 5, 0, 5, 0, 1).to_json_coeffs() == ["-4", "5", "0", "5", "0", "1"]


class TestQuadExtPoly:
    def test_product_of_conjugate_factors(self):
        R = F(5)
        # (Z - (1 + sqrt(5))) * (Z - (1 - sqrt(5))) = Z^2 - 2Z - 4
        plus = Poly([QuadExt(-1, -1, R), QuadExt(1, 0, R)])
        minus = Poly([QuadExt(-1, 1, R), QuadExt(1, 0, R)])
        expected = Poly([QuadExt(-4, 0, R), QuadExt(-2, 0, R), QuadExt(1, 0, R)])
        assert plus * minus == expected

    def test_evaluate_at_quadext(self):
        R = F(2)
        f = Poly([QuadExt(-1, 0, R), QuadExt(0, 0, R), QuadExt(1, 0, R)])  # Z^2 - 1
        x = QuadExt(0, 1, R)  # sqrt(2)
        assert f.evaluate(x) == QuadExt(1, 0, R)


@st.composite
def param_polys(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n):
        key = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        terms[key] = draw(fractions_small)
    return ParamPoly(terms)


class TestParamPoly:
    def test_canonical_no_zero_entries(self):
        assert ParamPoly({(1, 1): F(0)}) == ParamPoly()
        assert not ParamPoly({(1, 1): F(0)})

    def test_subs(self):
        # 3*d*D^2 - 2 at d=2, D=-1
        q = ParamPoly({(1, 2): F(3), (0, 0): F(-2)})
        assert q.subs(F(2), F(-1)) == 4

    def test_str(self):
        assert str(ParamPoly({(1, 1): F(-2)})) == "-2*d*D"

    @given(param_polys(), param_polys(), param_polys())
    @settings(max_examples=40)
    def test_ring_laws(self, x, y, z):
        assert x * y == y * x
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)

    @given(param_polys(), fractions_small, fractions_small)
    @settings(max_examples=40)
    def test_subs_is_a_homomorphism(self, x, d0, D0):
        y = ParamPoly({(1, 0): F(2), (0, 1): F(-1)})
        assert (x * y).subs(d0, D0) == x.subs(d0, D0) * y.subs(d0, D0)
        assert (x + y).subs(d0, D0) == x.subs(d0, D0) + y.subs(d0, D0)


    def test_int_and_fraction_terms_compare_and_hash_alike(self):
        ints = ParamPoly({(0, 1): 3, (2, 0): -1})
        fracs = ParamPoly({(0, 1): F(3), (2, 0): F(-1)})
        assert ints == fracs and hash(ints) == hash(fracs)
        assert {ints: "x"}[fracs] == "x"
        assert ParamPoly.const(2) == ParamPoly.const(F(2)) == 2
        assert ints * fracs == fracs * fracs


class TestSubstitutionConsistency:
    @given(
        st.lists(param_polys(), min_size=1, max_size=4),
        fractions_small,
        fractions_small,
        fractions_small,
    )
    @settings(max_examples=40)
    def test_substitute_then_evaluate(self, coeffs, d0, D0, z0):
        # Evaluating coefficients at (d0, D0) first and then at Z = z0 must
        # agree with evaluating the symbolic polynomial coefficientwise.
        sym = Poly(coeffs)
        concrete = Poly([c.subs(d0, D0) for c in coeffs])
        direct = sum(
            (c.subs(d0, D0) * z0**i for i, c in enumerate(coeffs)), F(0)
        )
        assert concrete.evaluate(z0) == direct
        assert [c.subs(d0, D0) for c in sym.coeffs] == list(
            concrete.coeffs
        ) + [F(0)] * (len(sym.coeffs) - len(concrete.coeffs))


class TestRationalRoots:
    def test_septic_golden_instance(self):
        # Trace polynomial for the (7, -2158, 6*881^2) instance.
        f = fpoly(-34528, 56, 0, 56, 0, 14, 0, 1)
        assert rational_roots(f) == {F(4)}

    def test_quintic_has_no_rational_root(self):
        assert rational_roots(fpoly(-4, 5, 0, 5, 0, 1)) == set()

    def test_cubic(self):
        assert rational_roots(fpoly(-14, 3, 0, 1)) == {F(2)}

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            rational_roots(Poly())

    def test_root_at_zero(self):
        assert rational_roots(fpoly(0, 0, -1, 1)) == {F(0), F(1)}

    def test_fractional_roots_and_denominators(self):
        # (2Z - 1)(3Z + 2) = 6Z^2 + Z - 2
        assert rational_roots(fpoly(-2, 1, 6)) == {F(1, 2), F(-2, 3)}

    @given(
        st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=4),
            min_size=1,
            max_size=3,
        ),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=50)
    def test_planted_roots_recovered(self, roots, scale):
        # Plant known rational roots next to a rootless quadratic factor;
        # exactly the planted set must come back.
        f = Poly([F(1), F(0), F(1)])  # Z^2 + 1, no rational roots
        for r in roots:
            f = f * Poly([-r.numerator, r.denominator])
        f = f * F(scale)
        assert rational_roots(f) == set(roots)


def divisor_walk_roots(f: Poly) -> set[Fraction]:
    """Reference search: every +-num/den with num dividing the constant term
    and den the leading coefficient of the primitive, Z^m-free integer form,
    confirmed by Fraction Horner on f itself."""
    coeffs = [F(c) for c in f.coeffs]
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    roots = set()
    while ints[0] == 0:
        roots.add(F(0))
        ints = ints[1:]
    if len(ints) == 1:
        return roots
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    dens = divisors(abs(ints[-1]))
    for num in divisors(abs(ints[0])):
        for den in dens:
            for root in (F(num, den), -F(num, den)):
                if f.evaluate(root) == 0:
                    roots.add(root)
    return roots


@st.composite
def planted_polys(draw):
    """A random integer cofactor times (den*Z - num) for each planted root,
    scaled by a nonzero Fraction: roots at 0 and +-1 are drawn often, roots
    repeat, and the scale makes the leading coefficient negative, the content
    larger than 1 or the coefficients non-integral."""
    root = st.sampled_from([F(0), F(1), F(-1)]) | st.fractions(
        min_value=-12, max_value=12, max_denominator=9
    )
    roots = draw(st.lists(root, max_size=4))
    roots += draw(st.lists(st.sampled_from(roots), max_size=2)) if roots else []
    cofactor = draw(
        st.lists(st.integers(-30, 30), min_size=1, max_size=4).filter(lambda cs: cs[-1] != 0)
    )
    f = Poly([F(c) for c in cofactor])
    for r in roots:
        f = f * Poly([F(-r.numerator), F(r.denominator)])
    scale = draw(st.fractions(min_value=-40, max_value=40, max_denominator=7).filter(bool))
    return f * scale, set(roots)


class TestRationalRootsAgainstDivisorWalk:
    @given(planted_polys())
    @settings(max_examples=200, deadline=None)
    def test_same_roots_as_the_divisor_walk(self, case):
        f, planted = case
        roots = rational_roots(f)
        assert roots == divisor_walk_roots(f)
        assert planted <= roots

    @pytest.mark.parametrize(
        "coeffs,expected",
        [
            ([-1, 0, 1], {F(1), F(-1)}),  # den - a = 0 and den + a = 0 in the sieve
            ([1, -2, 1], {F(1)}),  # repeated root at 1
            ([0, 0, -3, 3], {F(0), F(1)}),  # Z^2 stripped, content 3
            ([6, -1, -2], {F(-2), F(3, 2)}),  # negative leading coefficient
            ([F(1, 3), F(-1, 2)], {F(2, 3)}),  # Fraction coefficients
            ([2, 0, 1], set()),  # every candidate fails the sieve
        ],
    )
    def test_edge_cases(self, coeffs, expected):
        f = Poly([F(c) for c in coeffs])
        assert rational_roots(f) == expected == divisor_walk_roots(f)
