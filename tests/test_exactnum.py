import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radreduce import balls
from radreduce.coeffs import family, system_C
from radreduce.exactnum import (
    MR_PROVEN_BOUND,
    FactorizationError,
    QuadExt,
    divisors,
    factorize,
    integer_nth_root,
    is_probable_prime,
    parse_rational,
    power,
    rational_is_square,
    rational_odd_root,
    tolerance,
)
from radreduce.poly import ParamPoly, Poly

fractions_small = st.fractions(min_value=-50, max_value=50, max_denominator=12)


class TestParseFormat:
    def test_parse_integer(self):
        assert parse_rational("-2158") == Fraction(-2158)

    def test_parse_fraction(self):
        assert parse_rational("6/11") == Fraction(6, 11)

    @pytest.mark.parametrize("bad", ["", "1.5", "1/2/3", "+3", "2/-3", "a", "1/0"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    # int() and Fraction() accept these; the text format does not.
    @pytest.mark.parametrize(
        "bad",
        ["\u0663", "5\n", "1_1", " 1", "1/\u0663", "\uff17"],
        ids=["arabic-indic-digit", "trailing-newline", "underscore", "leading-space",
             "arabic-indic-denominator", "fullwidth-digit"],
    )
    def test_rejects_non_canonical(self, bad):
        with pytest.raises(ValueError, match="not a rational literal"):
            parse_rational(bad)

    @given(fractions_small)
    def test_roundtrip(self, q):
        assert parse_rational(str(q)) == q


class TestIntegerRoot:
    @pytest.mark.parametrize(
        "n,k,root,exact",
        [(0, 3, 0, True), (1, 7, 1, True), (8, 3, 2, True), (9, 3, 2, False),
         (10**18, 2, 10**9, True), (2**101, 101, 2, True)],
    )
    def test_known(self, n, k, root, exact):
        assert integer_nth_root(n, k) == (root, exact)

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=2, max_value=9))
    def test_floor_property(self, n, k):
        r, exact = integer_nth_root(n, k)
        assert r**k <= n < (r + 1) ** k
        assert exact == (r**k == n)


root_degrees = st.sampled_from([*range(2, 16), 101, 1001])


class TestIntegerRootLarge:
    """The floor-root kernel on numbers of up to 30000 bits and large k."""

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**30000), root_degrees)
    def test_floor_property(self, n, k):
        r, exact = integer_nth_root(n, k)
        assert r**k <= n < (r + 1) ** k
        assert exact == (r**k == n)

    @settings(deadline=None)
    @given(
        root_degrees.flatmap(
            lambda k: st.tuples(st.integers(min_value=2, max_value=2 ** (30000 // k)), st.just(k))
        )
    )
    def test_boundaries(self, r_k):
        r, k = r_k
        assert integer_nth_root(r**k - 1, k) == (r - 1, False)
        assert integer_nth_root(r**k, k) == (r, True)
        assert integer_nth_root(r**k + 1, k) == (r, False)

    def test_tiny_root_of_high_degree(self):
        start = time.perf_counter()
        assert integer_nth_root(2 * 3**1001, 1001) == (3, False)
        assert time.perf_counter() - start < 1.0


class TestIsSquare:
    def test_perfect_square(self):
        assert rational_is_square(Fraction(4)) == 2

    def test_fraction_square(self):
        assert rational_is_square(Fraction(9, 4)) == Fraction(3, 2)

    def test_six_times_square_is_not_square(self):
        # 6 * 881^2: six times a square, not a square itself.
        assert rational_is_square(Fraction(4656966)) is None

    def test_negative(self):
        assert rational_is_square(Fraction(-4)) is None

    @given(fractions_small)
    def test_square_roundtrip(self, q):
        assert rational_is_square(q * q) == abs(q)


class TestOddRoot:
    def test_minus_one_fifth_root(self):
        assert rational_odd_root(Fraction(-1), 5) == -1

    def test_minus_two_has_no_seventh_root(self):
        assert rational_odd_root(Fraction(-2), 7) is None

    def test_exact_cube(self):
        assert rational_odd_root(Fraction(8, 27), 3) == Fraction(2, 3)

    def test_rejects_even_p(self):
        with pytest.raises(ValueError):
            rational_odd_root(Fraction(8), 4)

    @given(fractions_small, st.sampled_from([3, 5, 7]))
    def test_power_roundtrip(self, q, p):
        assert rational_odd_root(q**p, p) == q

    @given(fractions_small, st.sampled_from([3, 5, 7]))
    def test_found_root_is_exact(self, q, p):
        z = rational_odd_root(q, p)
        if z is not None:
            assert z**p == q


class TestCheckP:
    """The coefficient families and rational_odd_root reject a non-int p, with one message."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: family(p, "c"),
            lambda p: family(p, "u"),
            system_C,
            lambda p: rational_odd_root(Fraction(8), p),
        ],
        ids=["family-c", "family-u", "system_C", "rational_odd_root"],
    )
    def test_rejects_non_int_p(self, call):
        with pytest.raises(ValueError, match=r"^p must be an odd integer >= 3, got 3\.0$"):
            call(3.0)


class TestTolerance:
    """The residual bound 2^-E, E = bits - 56 unless given, as a Fraction."""

    @pytest.mark.parametrize(
        "bits,tol_exp,value",
        [
            (56, None, Fraction(1)),
            (57, None, Fraction(1, 2)),
            (256, None, Fraction(1, 2**200)),
            (8, 0, Fraction(1)),
            (8, 3, Fraction(1, 8)),
        ],
    )
    def test_value(self, bits, tol_exp, value):
        assert tolerance(bits, tol_exp) == value

    @pytest.mark.parametrize("bits,tol_exp", [(55, None), (32, None), (0, None), (256, -1)])
    def test_negative_exponent_raises(self, bits, tol_exp):
        with pytest.raises(ValueError, match="tolerance exponent -"):
            tolerance(bits, tol_exp)


# 399165290221 * 798330580441, a strong pseudoprime to the bases 2, 3, ..., 37.
SPSP_37 = 318665857834031151167461


class TestFactorize:
    def test_small(self):
        assert factorize(4656966) == {2: 1, 3: 1, 881: 2}

    def test_square_of_large_prime(self):
        p = 1000003  # above the default trial-division bound
        assert factorize(p * p) == {p: 2}

    def test_unfactorable_raises(self):
        p, q = 1000003, 1000033
        with pytest.raises(FactorizationError):
            factorize(p * q)

    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_pseudoprime_cofactor_raises(self):
        # A strong pseudoprime to every base up to 37, with no factor below 10^6.
        with pytest.raises(FactorizationError):
            factorize(SPSP_37)

    @pytest.mark.parametrize("n", [2**89 - 1, (2**89 - 1) ** 2, 2 * (2**89 - 1)])
    def test_prime_cofactor_at_or_above_proven_bound_raises(self, n):
        # 2^89 - 1 is prime, but above MR_PROVEN_BOUND Miller-Rabin proves nothing.
        with pytest.raises(FactorizationError):
            factorize(n)

    def test_power_of_proven_prime_above_bound(self):
        p = 1000000000039  # prime, below MR_PROVEN_BOUND; p^3 is above it
        assert p**3 >= MR_PROVEN_BOUND
        assert factorize(p**3) == {p: 3}


class TestPrimality:
    @pytest.mark.parametrize(
        "n,expected",
        [(2, True), (9, False), (97, True), (1, False), (881, True), (41, True)],
    )
    def test_known(self, n, expected):
        assert is_probable_prime(n) == expected

    def test_strong_pseudoprime_to_bases_up_to_37_is_composite(self):
        assert 399165290221 * 798330580441 == SPSP_37
        assert not is_probable_prime(SPSP_37)

    def test_proven_bound_is_a_pseudoprime_to_every_base(self):
        # MR_PROVEN_BOUND is itself composite and passes every witness, so no
        # larger bound can be claimed for these bases.
        assert 1287836182261 * 2575672364521 == MR_PROVEN_BOUND
        assert is_probable_prime(MR_PROVEN_BOUND)
        with pytest.raises(FactorizationError):
            factorize(MR_PROVEN_BOUND)


class TestQuadExt:
    def test_multiplication_uses_R(self):
        x = QuadExt(1, 1, 2)  # 1 + sqrt(2)
        assert x * x == QuadExt(3, 2, 2)

    def test_square_root_squares_to_R(self):
        assert QuadExt(0, 1, 50) ** 2 == QuadExt(50, 0, 50)

    def test_cube_of_sqrt2_minus_one(self):
        # (sqrt(2) - 1)^3 = 5*sqrt(2) - 7, in the field Q(sqrt(2)).
        x = QuadExt(-1, 1, 2)
        assert x**3 == QuadExt(-7, 5, 2)

    def test_mismatched_R_is_an_error(self):
        with pytest.raises(ValueError, match="mismatched"):
            QuadExt(1, 1, 2) + QuadExt(1, 1, 3)

    def test_square_R_rejected(self):
        with pytest.raises(ValueError, match="square"):
            QuadExt(1, 1, 9)

    def test_inverse(self):
        x = QuadExt(3, 1, 2)
        assert x * x.inverse() == QuadExt(1, 0, 2)

    def test_negative_power(self):
        x = QuadExt(3, 1, 2)
        assert x**-2 == (x * x).inverse()
        for n in range(1, 6):
            assert x**-n == (x**n).inverse()

    def test_scalar_mixing(self):
        x = QuadExt(1, 2, 5)
        assert x + 1 == QuadExt(2, 2, 5)
        assert 3 * x == QuadExt(3, 6, 5)
        assert x - Fraction(1, 2) == QuadExt(Fraction(1, 2), 2, 5)


@pytest.mark.parametrize("R", [Fraction(2), Fraction(5), Fraction(50), Fraction(-6), Fraction(5, 2)])
class TestQuadExtRingLaws:
    @given(a1=fractions_small, b1=fractions_small, a2=fractions_small, b2=fractions_small)
    @settings(max_examples=25)
    def test_commutative(self, R, a1, b1, a2, b2):
        x, y = QuadExt(a1, b1, R), QuadExt(a2, b2, R)
        assert x * y == y * x
        assert x + y == y + x

    @given(a1=fractions_small, b1=fractions_small, a2=fractions_small,
           b2=fractions_small, a3=fractions_small, b3=fractions_small)
    @settings(max_examples=25)
    def test_associative_distributive(self, R, a1, b1, a2, b2, a3, b3):
        x, y, z = QuadExt(a1, b1, R), QuadExt(a2, b2, R), QuadExt(a3, b3, R)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(a1=fractions_small, b1=fractions_small)
    @settings(max_examples=25)
    def test_conjugate_norm(self, R, a1, b1):
        x = QuadExt(a1, b1, R)
        assert x * x.conjugate() == QuadExt(x.norm(), 0, R)


def _old_pow(a, n, prec):
    """`balls._pow`'s former recursive body, kept as the oracle."""
    if n <= 1:
        return a if n else (1, 0, 0)
    half = _old_pow(balls._mul(a, a, prec), n >> 1, prec)
    return balls._mul(half, a, prec) if n & 1 else half


def _old_gpow(x, n, q):
    """`balls._gpow`'s former recursive body (n >= 1), kept as the oracle."""
    if n == 1:
        return x
    half = _old_gpow(balls._gmul(x, x, q), n >> 1, q)
    return balls._gmul(half, x, q) if n & 1 else half


class TestPower:
    def test_negative_exponent_raises(self):
        with pytest.raises(ValueError, match="negative exponent"):
            power(2, -1, lambda x, y: x * y, 1)
        with pytest.raises(ValueError, match="negative exponent"):
            Poly([Fraction(1), Fraction(2)]) ** -1
        for base in (ParamPoly.const(1), ParamPoly.monomial(2, 1, 1)):
            with pytest.raises(ValueError, match="negative exponent"):
                base**-2

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=12),
        coeffs=st.lists(fractions_small, min_size=1, max_size=4),
        terms=st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), fractions_small, max_size=3
        ),
        quad=st.tuples(
            fractions_small, fractions_small, st.sampled_from([2, 5, -3, Fraction(5, 2)])
        ),
        ball_n=st.integers(min_value=0, max_value=130),
        parts=st.tuples(*[st.fractions(min_value=-2, max_value=2, max_denominator=10**6)] * 2),
        radius=st.integers(min_value=0, max_value=1000),
        bits=st.sampled_from([64, 256]),
    )
    def test_matches_repeated_products_and_the_old_ball_powers(
        self, n, coeffs, terms, quad, ball_n, parts, radius, bits
    ):
        # Exact rings: square-and-multiply equals n products from one.
        for x, one in (
            (Poly(coeffs), Poly.constant(1)),
            (ParamPoly(terms), ParamPoly.const(1)),
            (QuadExt(*quad), QuadExt(1, 0, quad[2])),
        ):
            want = one
            for _ in range(n):
                want = want * x
            assert x**n == want
        # Balls: the same tuples as the recursive bodies, as radii and
        # truncations depend on the order of the products.
        prec = bits + balls._GUARD
        m, r, e = balls._leaf(parts[0], prec)
        real = (m, r + radius, e)
        assert balls._pow(real, ball_n, prec) == _old_pow(real, ball_n, prec)
        gauss = balls._gauss(real, balls._leaf(parts[1], prec), prec)
        if ball_n:
            assert balls._gpow(gauss, ball_n, prec) == _old_gpow(gauss, ball_n, prec)
        else:
            assert balls._gpow(gauss, 0, prec) == (1 << prec, 0, 0)
