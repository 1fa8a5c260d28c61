import dataclasses
import hashlib
import math
import types
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf, mpmathify

from radreduce import balls, cli, numeric
from radreduce import exprtree as et
from radreduce.cli import main
from radreduce.construct import InstanceParams, trace_poly
from radreduce.exactnum import FactorizationError, tolerance_exp
from radreduce.balls import EvalDomainError, zeta_two_ways
from radreduce.numeric import (
    ROOT_MAP_MAX_P,
    PrecisionError,
    branch_residuals,
    decimal_str,
    eval_dual,
    eval_expression,
    verify_root_map,
)
from radreduce.poly import rational_roots
from radreduce.reduction import ReductionError, construct_example, reduce_radical

F = Fraction

TWO = mpf(2)


def to_mpf(q: Fraction):
    """q at the ambient mpmath precision."""
    return mpf(q.numerator) / q.denominator


def to_fraction(x) -> Fraction:
    """Exact rational value of a finite mpf."""
    sign, man, exp, _ = x._mpf_
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def gauss(pair, prec):
    """A Gaussian fixed-point value (re, im), or the midpoint of a Gaussian
    ball (re, im, r), at scale 2^prec as an mpc; exact when the ambient
    precision holds both integers."""
    return mpc(*(numeric._to_mpf((x, 0, -prec)) for x in pair[:2]))


def at_scale(z, prec) -> tuple[int, int]:
    """floor(z 2^prec) of each part of a pair of Fractions."""
    return tuple(math.floor(x * 2**prec) for x in z)


def midpoint(ball) -> Fraction:
    m, _, e = ball
    return Fraction(m) * Fraction(2) ** e


def radius(ball) -> Fraction:
    _, r, e = ball
    return Fraction(r) * Fraction(2) ** e


def mp_eval(node):
    """mpmath value of a tree at the ambient precision: the oracle."""
    if isinstance(node, et.Rat):
        return to_mpf(node.value)
    if isinstance(node, et.Sqrt):
        return mp.sqrt(mp_eval(node.arg))
    if isinstance(node, et.NthRoot):
        x = mp_eval(node.arg)
        return mp.sign(x) * mp.root(abs(x), node.degree)
    if isinstance(node, et.Add):
        return mp.fsum(mp_eval(t) for t in node.terms)
    if isinstance(node, et.Mul):
        return mp.fprod(mp_eval(f) for f in node.factors)
    if isinstance(node, et.Pow):
        return mp_eval(node.base) ** node.exponent
    raise TypeError(node)


def assert_encloses(ball, tree, bits):
    """The ball holds mpmath's value of the tree at 4 * bits."""
    with mp.workprec(4 * bits):
        truth = mp_eval(tree)
        gap = abs(to_mpf(midpoint(ball)) - truth)
        assert gap <= to_mpf(radius(ball)) + abs(truth) * TWO ** -(3 * bits), (tree, bits)


class TestEvalExpression:
    """eval_expression returns a ball (m, r, e): [(m - r) 2^e, (m + r) 2^e]."""

    def test_rational_leaf_is_exact_dyadic(self):
        ball = eval_expression(et.rat(F(7, 2)), 256)
        assert midpoint(ball) == F(7, 2) and ball[1] == 0

    def test_sqrt(self):
        tree = et.Sqrt(et.rat(2))
        ball = eval_expression(tree, 256)
        assert_encloses(ball, tree, 256)
        assert radius(ball) < F(1, 2**280)

    def test_nth_root_of_negative(self):
        tree = et.NthRoot(et.rat(-2), 7)
        ball = eval_expression(tree, 256)
        assert ball[0] < 0
        assert_encloses(ball, tree, 256)

    def test_even_root_of_negative_raises(self):
        with pytest.raises(EvalDomainError):
            eval_expression(et.Sqrt(et.rat(-1)), 128)

    def test_negative_power(self):
        ball = eval_expression(et.Pow(et.rat(2), -3), 128)
        assert midpoint(ball) == F(1, 8) and ball[1] == 0

    def test_mul_add(self):
        tree = et.mul(et.rat(3), et.add(et.rat(1), et.rat(F(1, 3))))
        ball = eval_expression(tree, 128)
        assert abs(midpoint(ball) - 4) <= radius(ball) < F(1, 2**150)

    def test_zero_base_with_negative_exponent_raises(self):
        with pytest.raises(ZeroDivisionError):
            eval_expression(et.Pow(et.add(et.rat(1), et.rat(-1)), -2), 128)

    def test_enclosure_holding_zero_is_undecided(self):
        # 2^-200 (2 + sqrt 2) - 2^-199 - sqrt(2) 2^-200 is 0, but its ball only
        # holds 0: a root or a reciprocal of it must not guess a sign.
        tiny, root2 = et.rat(F(1, 2**200)), et.Sqrt(et.rat(2))
        zero = et.add(
            et.mul(tiny, et.add(et.rat(2), root2)),
            et.rat(F(-1, 2**199)),
            et.mul(et.rat(-1), tiny, root2),
        )
        for tree in (et.NthRoot(zero, 3), et.Pow(zero, -1)):
            with pytest.raises(PrecisionError):
                eval_expression(tree, 64)


class TestRealRoot:
    """Real square and odd roots through the integer floor-root kernel."""

    @pytest.mark.parametrize("bits", [64, 256, 2048])
    @pytest.mark.parametrize(
        "x,n",
        [
            (x, n)
            for n in (2, 3, 5, 7, 13)
            for x in (F(2), F(-7, 3), F(10**300 + 1), F(1, 10**300))
            if n > 2 or x > 0
        ],
    )
    def test_relative_residual(self, x, n, bits):
        node = et.Sqrt(et.rat(x)) if n == 2 else et.NthRoot(et.rat(x), n)
        ball = eval_expression(node, bits)
        r = midpoint(ball)
        assert abs(r**n - x) < abs(x) / 2 ** (bits + 16)
        # Both ends of the ball straddle the root: the enclosure holds it.
        lo, hi = sorted((r - radius(ball), r + radius(ball)), key=lambda v: v**n)
        assert lo**n <= x <= hi**n

    def test_square_root_of_negative_raises(self):
        with pytest.raises(EvalDomainError):
            balls._root(balls._leaf(F(-2), 96), 2, 96)


class TestDualPrecision:
    def test_two_evaluation_orders_agree(self):
        # sqrt(5/2) + sqrt(1/2) versus sqrt(3 + sqrt(5))
        lhs = et.add(et.Sqrt(et.rat(F(5, 2))), et.Sqrt(et.rat(F(1, 2))))
        rhs = et.Sqrt(et.add(et.rat(3), et.Sqrt(et.rat(5))))
        v1, v2 = eval_dual(lhs, 256), eval_dual(rhs, 256)
        with mp.workprec(300):
            assert abs(v1 - v2) < TWO**-200

    def test_fourth_root_denesting_agrees(self):
        lhs = et.add(
            et.Sqrt(et.add(et.Sqrt(et.rat(1)), et.rat(F(1, 2)))),
            et.Sqrt(et.add(et.Sqrt(et.rat(1)), et.rat(F(-1, 2)))),
        )
        with mp.workprec(400):
            target = eval_dual(et.add(et.rat(7), et.Sqrt(et.rat(48))), 256)
            v = eval_dual(lhs, 256)
            assert abs(v**4 - target) < TWO**-200

    def test_doubling_precision_is_stable(self):
        tree = et.Sqrt(et.add(et.rat(3), et.Sqrt(et.rat(5))))
        v256 = eval_dual(tree, 256)
        v512 = eval_dual(tree, 512)
        with mp.workprec(600):
            assert abs(v256 - v512) < TWO**-240


class TestBranchResiduals:
    def test_septic_golden_instance(self):
        r = reduce_radical(7, -2158, 4656966)
        res = branch_residuals(r, 256)
        assert res["max_residual"] < F(1, 2**200)
        assert res["branch_signs_consistent"]

    def test_cubic_golden_instance(self):
        r = reduce_radical(3, -7, 50)
        res = branch_residuals(r, 256)
        assert res["max_residual"] < F(1, 2**200)
        assert res["branch_signs_consistent"]

    def test_corrupted_branch_has_large_residual(self):
        # Perturb A(u) by 1 in the plus branch: residual must exceed 1.
        r = reduce_radical(7, -2158, 4656966)
        au = F(1, 1762)
        zpow = et.Pow(et.NthRoot(et.rat(-2), 7), 4)
        bad = et.mul(
            zpow, et.add(et.rat(-1), et.mul(et.rat(au + 1), et.Sqrt(et.rat(4656966))))
        )
        corrupted = dataclasses.replace(r, branches=(bad, r.branches[1]))
        res = branch_residuals(corrupted, 256)
        assert res["max_residual"] > 1

    def test_requires_branches(self):
        r = reduce_radical(5, 2, 5)  # u irrational: no branch trees
        with pytest.raises(ValueError, match="irrational"):
            branch_residuals(r, 128)

    def test_quadratic_form_matches_branches(self):
        # The two quadratic-equation values coincide with the two branches.
        r = reduce_radical(7, -2158, 4656966)
        with mp.workprec(400):
            branch_vals = sorted(eval_dual(b, 256) for b in r.branches)
            quad_vals = sorted(eval_dual(t, 256) for t in r.quadratic_form.roots)
            for bv, qv in zip(branch_vals, quad_vals):
                assert abs(bv - qv) < TWO**-200

    def test_branch_residuals_evaluates_each_branch_once_per_precision(self, monkeypatch):
        # One enclosure per branch and call, at the call's precision only.
        r = reduce_radical(7, -2158, 4656966)
        real = numeric.eval_expression
        calls = []

        def counting(tree, bits):
            calls.append((tree, bits))
            return real(tree, bits)

        monkeypatch.setattr(numeric, "eval_expression", counting)
        branch_residuals(r, 256)
        assert [sum(t is tree for t, _ in calls) for tree in r.branches] == [1, 1]
        assert {bits for _, bits in calls} == {256}

    @pytest.mark.parametrize("bits", [64, 256, 1024])
    @pytest.mark.parametrize("args", [(7, -2158, 4656966), (3, -7, 50)])
    def test_residual_bounds_every_point_of_the_enclosure(self, args, bits):
        # The residual at the midpoint and at both ends of each branch's ball,
        # in exact rationals, is at most the certified bound reported for it.
        p, d, R = args
        r = reduce_radical(p, d, R)
        res = branch_residuals(r, bits)
        for tree, bound in zip(r.branches, res["residuals"], strict=True):
            ball = eval_expression(tree, bits)
            for v in (midpoint(ball) + k * radius(ball) for k in (-1, 0, 1)):
                assert abs((v**p - d) ** 2 - R) <= bound

    @pytest.mark.parametrize("bits", [64, 256])
    @pytest.mark.parametrize(
        "p,D,u", [(5, -2, -(2**20)), (3, -3, -(2**33)), (7, -2, -(2**14))]
    )
    def test_heavy_cancellation(self, p, D, u, bits):
        # log2(d^2 / |D|) is about 190: the small branch cancels about 190 / p
        # bits of center + A(u) sqrt(R).
        params, _ = construct_example(p, D, u)
        result = reduce_radical(p, params.d, params.R)
        res = branch_residuals(result, bits)
        scale = max(1, params.d**2, abs(params.R))
        assert res["max_residual"] < scale / 2 ** (bits - 56)
        assert res["branch_signs_consistent"]
        for tree in result.branches:
            assert_encloses(eval_expression(tree, bits), tree, bits)
            eval_dual(tree, bits)

    def test_undecided_sign_raises(self, monkeypatch):
        # A branch ball wide enough to hold a v with v^p = d leaves the sign
        # of v^p - d open.
        r = reduce_radical(3, -7, 50)
        real = numeric.eval_expression

        def widened(tree, bits):
            m, _, e = real(tree, bits)
            return m, abs(m) * 2, e

        monkeypatch.setattr(numeric, "eval_expression", widened)
        with pytest.raises(PrecisionError, match="branch sign undecided"):
            branch_residuals(r, 256)


    @settings(deadline=None)
    @given(
        st.sampled_from([3, 5, 7, 9, 11, 13]),
        st.sampled_from([D for D in range(-12, 13) if D]),
        st.integers(min_value=-6, max_value=6),
        st.sampled_from([64, 256, 1024]),
    )
    def test_constructed_instances(self, p, D, u, bits):
        try:
            params, _ = construct_example(p, D, u)
        except ReductionError:
            assume(False)
        assume(params.R > 0)
        result = reduce_radical(p, params.d, params.R)
        assume(result.branches is not None)
        res = branch_residuals(result, bits)
        scale = max(1, params.d**2, abs(params.R))
        assert res["max_residual"] < scale / 2 ** (bits - 56)
        assert res["branch_signs_consistent"]


def _trees(depth):
    """Random trees of all six node kinds.  Square roots and negative powers
    take x^2 + c with c > 0, so that their argument is positive and apart
    from 0."""
    leaf = st.builds(
        lambda n, d: et.rat(F(n, d)),
        st.integers(-(10**6), 10**6),
        st.sampled_from([1, 2, 3, 7, 10**9 + 7, 2**40]),
    )
    if depth == 0:
        return leaf
    sub = _trees(depth - 1)
    positive = st.builds(
        lambda t, c: et.add(et.Pow(t, 2), et.rat(F(c, 8))), sub, st.integers(1, 64)
    )
    return st.one_of(
        leaf,
        st.builds(et.Sqrt, positive),
        st.builds(et.NthRoot, sub, st.sampled_from([3, 5, 7])),
        st.builds(lambda ts: et.Add(tuple(ts)), st.lists(sub, min_size=2, max_size=3)),
        st.builds(lambda ts: et.Mul(tuple(ts)), st.lists(sub, min_size=2, max_size=3)),
        st.builds(et.Pow, sub, st.integers(0, 4)),
        st.builds(et.Pow, positive, st.integers(-4, -1)),
    )


def _positive_trees(depth):
    """Random trees whose every node is positive: no cancellation anywhere."""
    leaf = st.builds(
        lambda n, d: et.rat(F(n, d)), st.integers(1, 10**6), st.sampled_from([1, 3, 2**40])
    )
    if depth == 0:
        return leaf
    sub = _positive_trees(depth - 1)
    return st.one_of(
        leaf,
        st.builds(et.Sqrt, sub),
        st.builds(et.NthRoot, sub, st.sampled_from([3, 5, 7])),
        st.builds(lambda ts: et.Add(tuple(ts)), st.lists(sub, min_size=2, max_size=3)),
        st.builds(lambda ts: et.Mul(tuple(ts)), st.lists(sub, min_size=2, max_size=3)),
        st.builds(et.Pow, sub, st.integers(-4, 4)),
    )


class TestEnclosures:
    @settings(deadline=None, max_examples=300)
    @given(_trees(3), st.sampled_from([64, 256, 1024]))
    def test_ball_holds_the_value(self, tree, bits):
        assert_encloses(eval_expression(tree, bits), tree, bits)

    @settings(deadline=None, max_examples=200)
    @given(_positive_trees(3), st.sampled_from([64, 256, 1024]))
    def test_radius_is_tight_without_cancellation(self, tree, bits):
        m, r, _ = eval_expression(tree, bits)
        assert r << (bits + 8) <= abs(m)


@pytest.fixture
def fresh_zeta():
    """Empty zeta's cache before and after a test that patches what zeta is
    built from, so that no cached ball stands in for the one it builds."""
    balls.zeta_two_ways.cache_clear()
    yield
    balls.zeta_two_ways.cache_clear()


def named_power(j, p):
    """The power that the zeta rule names for a ball of zeta^j: 1 unless
    Im zeta^j > 0, else the first k in [2, p - 2] with Re zeta^(jk) >=
    Re zeta^j, that is with jk no farther from 0 mod p than j."""
    arc = lambda x: min(x % p, -x % p)  # noqa: E731
    if not 0 < j % p < p / 2:
        return 1
    return next(k for k in range(2, p - 1) if arc(j * k) <= arc(j))


def rule_message(k):
    return r"Im zeta\^1 > 0 undecided" if k == 1 else rf"Re zeta\^1 > Re zeta\^{k} undecided"


class TestZetaTwoWays:
    """The Newton route against the mpmath oracle e^(2 pi i/p), and the
    zeta rule against balls of the other zeros of w^p - 1."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 61, cli.MAX_P])
    def test_routes_agree(self, p):
        zeta, powers = zeta_two_ways(p, 256)
        assert_zeta_holds(zeta, p, 288)
        # A radius of at most 2^-(B - 16), eval_dual's tolerance.
        assert zeta[2] < 2**48
        assert isinstance(powers, tuple) and len(powers) == p
        for k, ball in enumerate(powers):
            assert_zeta_holds(ball, p, 288, k)

    @pytest.mark.parametrize("bits", [256, 1024, 2048])
    @pytest.mark.parametrize("p", [3, 13, 61])
    def test_routes_agree_at_high_precision(self, p, bits):
        zeta, powers = zeta_two_ways(p, bits)
        assert_zeta_holds(zeta, p, bits + 32)
        assert zeta[2] < 2**48
        assert_zeta_holds(powers[-1], p, bits + 32, p - 1)
        assert powers == zeta_powers(zeta, p, bits + 32)

    @pytest.mark.parametrize("p", range(3, 14))
    def test_routes_agree_without_the_ladder(self, p):
        # At 64 + 32 bits there is no ladder: every step runs at full precision.
        zeta = zeta_two_ways(p, 64)[0]
        assert_zeta_holds(zeta, p, 96)
        assert zeta[2] < 2**48
        with mp.workprec(128):
            assert abs(gauss(zeta, 96) ** p - 1) < TWO**-80

    @pytest.mark.parametrize("excess,raises", [(-1, False), (0, True)])
    def test_uniqueness_gate_is_below_half_the_spacing(self, monkeypatch, excess, raises):
        # A Newton ball is accepted only with a radius below 2^-9, and
        # 2^-9 < sin(pi/p), half the spacing of the zeros of w^p - v for
        # |v| = 1, at every p the CLI accepts.
        assert 2**-9 < math.sin(math.pi / cli.MAX_P)
        prec = 256 + balls._GUARD
        radius = (1 << (prec - 9)) + excess
        monkeypatch.setattr(balls, "_root_ball", lambda w, v, p, q: (*w, radius))
        args = ((1 << prec, 0, 0), 7, prec, 2 * math.pi / 7)
        if raises:
            with pytest.raises(PrecisionError, match="failed to converge"):
                balls._unit_root(*args)
        else:
            assert balls._unit_root(*args)[2] == radius

    @pytest.mark.parametrize("p", [3, 7, 13])
    def test_newton_on_zeta_squared_disagrees(self, monkeypatch, fresh_zeta, p):
        # A seed at angle 4 pi / p makes Newton converge to zeta^2, also a
        # root of w^p - 1: the balls of its powers must show it is not zeta.
        doubled = {"cos": lambda x: math.cos(2 * x), "sin": lambda x: math.sin(2 * x)}
        monkeypatch.setattr(balls, "math", types.SimpleNamespace(**{**vars(math), **doubled}))
        with pytest.raises(PrecisionError, match=rule_message(named_power(2, p))):
            zeta_two_ways(p, 256)

    @pytest.mark.parametrize(
        "p,j",
        [(3, 2), (7, 2), (13, 2), (5, 4), (7, 6), (13, 12), (7, 3), (7, 4), (13, 5), (13, 8), (9, 3)],
    )
    def test_ball_of_another_zero_is_rejected(self, monkeypatch, fresh_zeta, p, j):
        # zeta replaced by the certified ball about zeta^j: zeta^2, the
        # conjugate zeta^(p - 1), zeta^j for j coprime to p, or a root of
        # unity of lower order (zeta^3 at p = 9).
        prec = 256 + balls._GUARD
        one = (1 << prec, 0, 0)
        other = balls._root_ball(zeta_two_ways(p, 256)[1][j][:2], one, p, prec)
        assert_zeta_holds(other, p, prec, j)
        balls.zeta_two_ways.cache_clear()
        monkeypatch.setattr(balls, "_unit_root", lambda v, p, prec, angle: other)
        with pytest.raises(PrecisionError, match=rule_message(named_power(j, p))):
            zeta_two_ways(p, 256)


# construct_example(p, D, u) with R of both signs and, when d < 0 < R, at
# most 16 bits cancelling in d + sqrt(R) (|d + sqrt(R)| ~ |D| / (2 |d|)).
_instances = st.builds(
    lambda p, D, u: (p, D, u),
    st.sampled_from([3, 5, 7, 9, 11, 13]),
    st.sampled_from([D for D in range(-12, 13) if D]),
    st.integers(min_value=-6, max_value=6),
)


def _planted(p, D, u):
    try:
        params, _ = construct_example(p, D, u)
    except ReductionError:
        assume(False)
    assume(not params.d < 0 < params.R or 2 * params.d**2 <= abs(params.D) * 2**16)
    return params


def root_map_once(params, bits):
    """`balls._root_map_once` on an instance, with zeta's powers at `bits`."""
    powers = zeta_two_ways(params.p, bits)[1]
    return balls._root_map_once(params.p, params.d, params.R, params.D, bits, powers)


class TestRootMap:
    def test_cubic_values_are_roots_of_the_trace_poly(self):
        # u_k are the three roots of Z^3 + 3Z - 14; the real one is 2.
        rep = verify_root_map(3, -7, 50, 256)
        assert rep["ok"] and rep["distinct"]
        assert rep["rational_root_distances"]["2"] < F(1, 2**200)

    def test_quintic(self):
        rep = verify_root_map(5, 2, 5, 256)
        assert rep["ok"]
        assert rep["max_relative_residual"] < F(1, 2**180)

    def test_septic_contains_u_equals_4(self):
        rep = verify_root_map(7, -2158, 4656966, 256)
        assert rep["ok"]
        assert rep["rational_root_distances"]["4"] < F(1, 2**200)

    def test_conjugate_symmetry(self):
        # Values at scale 2^288: 2^88 units are 2^-200.
        vals = root_map_once(InstanceParams.create(5, 2, 5), 256)
        for k in range(1, 5):
            (a, b, _), (c, e, _) = vals[5 - k], vals[k]
            assert abs(a - c) < 2**88 and abs(b + e) < 2**88

    @pytest.mark.parametrize(
        "p,D,u",
        [(11, -6, 15), (5, -3, -10**20)],
        ids=["cancels-56-bits", "cancels-655-bits"],
    )
    def test_cancelling_sum_uses_the_norm_form(self, p, D, u):
        # d < 0 < R with d^2 far above |D|, so d + sqrt(R) cancels almost all
        # of its bits; the root map forms it as D / (d - sqrt(R)) instead.
        params, _ = construct_example(p, D, u)
        us = root_map_once(params, 256)
        for re, im, r in us:
            numeric._check_radius(r, math.isqrt(re * re + im * im), -288, 256)
        # Values at scale 2^288: |v - u| < 2^-200 |u|.
        target = u * 2**288
        assert min((re - target) ** 2 + im * im for re, im, _ in us) < (u * 2**88) ** 2

    def test_verify_root_map_on_cancelling_sum(self):
        params, _ = construct_example(11, -6, 15)
        rep = verify_root_map(11, params.d, params.R, 256)
        assert rep["ok"] and rep["distinct"]
        assert rep["rational_root_distances"]["15"] < F(1, 2**200)

    def test_precision_stability(self):
        rep = verify_root_map(7, -2158, 4656966, 512)
        assert rep["ok"]
        assert rep["max_relative_residual"] < F(1, 2 ** (512 - 56))

    @pytest.mark.parametrize("args", [(7, -2158, 4656966), (3, -7, 50), (5, 2, 5)])
    def test_values_off_the_zeros_fail_the_residual(self, monkeypatch, args):
        # A shift of 2^-(B - 64) (1 + |u|) that leaves every radius as it is
        # passes the gate, but puts every value 2^8 times the residual
        # tolerance off its zero.
        B = 256
        real = numeric._root_map_once

        def shifted(p, d, R, D, bits, powers):
            one = 1 << (bits + balls._GUARD)
            return [
                (re + ((one + math.isqrt(re * re + im * im)) >> (B - 64)), im, r)
                for re, im, r in real(p, d, R, D, bits, powers)
            ]

        monkeypatch.setattr(numeric, "_root_map_once", shifted)
        rep = verify_root_map(*args, B)
        assert rep["distinct"] and not rep["ok"]
        assert rep["max_relative_residual"] > rep["tolerance"]

    def test_real_zero_prints_with_zero_imaginary_part(self, monkeypatch):
        # The rational zero 2 of f prints as exactly real, and no value string
        # moves when only zeta's last bit does.
        params, _ = construct_example(3, 6, 2)
        args = (3, params.d, params.R, 256)
        values = verify_root_map(*args)["values"]
        assert "(2.0 + 0.0j)" in values
        real, calls = numeric.zeta_two_ways, []

        def last_bit_flipped(p, bits):
            calls.append((p, bits))
            zeta = real(p, bits)[0]
            zeta = (zeta[0] + 1, *zeta[1:])
            return zeta, zeta_powers(zeta, p, bits + balls._GUARD)

        monkeypatch.setattr(numeric, "zeta_two_ways", last_bit_flipped)
        assert verify_root_map(*args)["values"] == values
        assert calls == [(3, 256)]

    @settings(deadline=None)
    @given(_instances)
    def test_values_are_real_exactly_where_the_map_makes_them_real(self, instance):
        # Every u_k when R < 0; only k' = 0, with sin(2 pi k' / p) = 0, when R > 0.
        params = _planted(*instance)
        try:
            values = verify_root_map(params.p, params.d, params.R, 256)["values"]
        except FactorizationError:
            assume(False)
        real = sum(v.endswith(" + 0.0j)") for v in values)
        assert real == (params.p if params.R < 0 else 1)

    def test_tolerance_needs_56_bits(self):
        # The default residual tolerance 2^-(bits - 56) needs bits >= 56.
        with pytest.raises(ValueError, match="tolerance"):
            verify_root_map(3, -7, 50, 32)
        rep = verify_root_map(3, -7, 50, 57)
        assert rep["ok"] and rep["tolerance"] == F(1, 2)

    def test_p_cap(self):
        params, _ = construct_example(ROOT_MAP_MAX_P, -5, 2)
        assert verify_root_map(ROOT_MAP_MAX_P, params.d, params.R, 256)["ok"]
        with pytest.raises(ValueError, match="ROOT_MAP_MAX_P"):
            verify_root_map(ROOT_MAP_MAX_P + 2, -7, 50, 256)

    def test_repeated_value_is_not_distinct(self, monkeypatch):
        real = numeric._root_map_once

        def repeated(p, d, R, D, bits, powers):
            out = real(p, d, R, D, bits, powers)
            out[1] = out[0]
            return out

        monkeypatch.setattr(numeric, "_root_map_once", repeated)
        rep = verify_root_map(7, -2158, 4656966, 256)
        assert not rep["distinct"] and not rep["ok"]
        assert rep["min_pairwise_distance"] == 0

    @pytest.mark.parametrize("bits", [57, 64])
    def test_close_zeros_in_disjoint_balls_are_distinct(self, bits):
        # Zeros 1.6e-10 apart, closer than 2^-(bits/2) at 57 and 64 bits, held
        # in balls of radius about 2^-160: disjoint, so distinct.
        args = (3, F(1, 10**11), F(1, 10**22) - F(1, 10**20), bits)
        rep = verify_root_map(*args)
        assert F(16, 10**11) < rep["min_pairwise_distance"] < F(17, 10**11)
        assert rep["distinct"] and rep["ok"]
        # Far beyond twice the gate radii, so the oracle's answer is forced.
        assert _root_map_oracle(*args)["distinct"]


def _mpmath_root_map_once(params, bits):
    """The reference root map in mpmath complex arithmetic at bits + 32:
    u_k = z^h (y zeta^k + (z / y) zeta^-k) for the principal p-th root y of
    d + sqrt(R), taken as D / (d - sqrt(R)) when d < 0 < R, the real p-th
    root z of D, h = (p - 1) / 2 and zeta = e^(2 pi i / p)."""
    p, R = params.p, params.R
    with mp.workprec(bits + 32):
        d, D = to_mpf(params.d), to_mpf(params.D)
        root = mp.sqrt(to_mpf(abs(R)))
        sqrtR = root if R > 0 else mpc(0, root)
        w = D / (d - sqrtR) if d < 0 < R else d + sqrtR
        y = mp.exp(mp.log(mpc(w)) / p)
        z = mp.sign(D) * mp.root(abs(D), p)
        zeta = mp.expjpi(mpf(2) / p)
        zhalf = z ** ((p - 1) // 2)
        return [zhalf * (y * zeta**k + z / y * zeta**-k) for k in range(p)]


def _root_map_oracle(p, d, R, bits):
    """verify_root_map's gate and checks as mpmath arithmetic.  The gate asks
    what the certified radius bounds: that each reference value at the
    working precision, max(bits, 128) + 32, lie within 2^-(bits - 16) (1 + |u|)
    of the reference at 4 bits.  The checks run on the values at 4 bits.

    `distinct` is answered only where the gate forces it: balls within those
    radii of references more than twice the sum of the two radii apart are
    disjoint, so verify_root_map must call them distinct.  Closer pairs fail
    the oracle's precondition rather than get a guess."""
    params = InstanceParams.create(p, d, R)
    f = trace_poly(params)
    u_work = _mpmath_root_map_once(params, max(bits, 128))
    u_high = _mpmath_root_map_once(params, 4 * bits)
    with mp.workprec(4 * bits + 32):
        for lo, hi in zip(u_work, u_high):
            if abs(lo - hi) > TWO ** -(bits - 16) * (1 + abs(hi)):
                raise PrecisionError("radius exceeds")
        tol = TWO ** -tolerance_exp(bits)
        f_num = f.map(to_mpf)
        abs_coeffs = [abs(c) for c in f_num.coeffs]
        max_rel = mpf(0)
        for u in u_high:
            mag = max(mpf(1), abs(u))
            scale = mpf(0)
            for c in reversed(abs_coeffs):
                scale = scale * mag + c
            max_rel = max(max_rel, abs(f_num.evaluate(u)) / scale)
        pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
        diffs = [u_high[i] - u_high[j] for i, j in pairs]
        min_dist = mp.sqrt(min(w.real * w.real + w.imag * w.imag for w in diffs))
        gate = [TWO ** -(bits - 16) * (1 + abs(u)) for u in u_high]
        for (i, j), w in zip(pairs, diffs):
            assert abs(w) > 2 * (gate[i] + gate[j]), (
                f"oracle precondition: |u_{i} - u_{j}| = {mp.nstr(abs(w), 5)} is not more "
                "than twice the sum of their gate radii, so distinct is not forced"
            )
        return {
            "values": [mp.nstr(u, 30) for u in u_high],
            "min_pairwise_distance": to_fraction(min_dist),
            "distinct": True,
            "rational_root_distances": {
                str(r): to_fraction(min(abs(u - to_mpf(r)) for u in u_high))
                for r in sorted(rational_roots(f))
            },
            "ok": bool(max_rel < tol),
        }


def _reference_values(params, bits):
    """The reference's 2B values as (real part to 30 digits, whether |Im| is
    within the gate's tolerance 2^-(bits - 16) (1 + |u|))."""
    with mp.workprec(2 * bits + 32):
        return [
            (mp.nstr(u.real, 30), abs(u.imag) <= TWO ** -(bits - 16) * (1 + abs(u)))
            for u in _mpmath_root_map_once(params, 2 * bits)
        ]


def _printed(values):
    """verify_root_map's value strings as (real part, whether Im prints as 0)."""
    return [(v[1:].split(" ")[0], v.endswith(" + 0.0j)")) for v in values]


class TestRootMapAgainstMpmathOracle:
    @settings(deadline=None)
    @given(
        st.sampled_from([3, 5, 7, 9, 11, 13]),
        st.sampled_from([D for D in range(-12, 13) if D]),
        st.integers(min_value=-6, max_value=6),
        st.sampled_from([256, 512]),
    )
    def test_same_verdicts(self, p, D, u, bits):
        # D < 0 forces R > 0; D > 0 with |u| < 2 sqrt(D) gives R < 0.
        try:
            params, _ = construct_example(p, D, u)
        except ReductionError:
            assume(False)
        args = (p, params.d, params.R, bits)
        try:
            want = _root_map_oracle(*args)
        except (PrecisionError, FactorizationError) as exc:
            with pytest.raises(type(exc)):
                verify_root_map(*args)
            return
        got = verify_root_map(*args)
        for key in ("ok", "distinct"):
            assert got[key] == want[key]
        assert got["rational_root_distances"].keys() == want["rational_root_distances"].keys()
        # Each distance within the radius certified for the u_k on that root,
        # plus the unit that flooring the root to scale 2^prec may lose.
        prec = max(bits, 128) + balls._GUARD
        us = root_map_once(params, max(bits, 128))
        for r, dist in want["rational_root_distances"].items():
            ball = min(us, key=lambda b: (b[0] - F(r) * 2**prec) ** 2 + b[1] ** 2)
            assert abs(got["rational_root_distances"][r] - dist) <= F(ball[2] + 1, 2**prec)
        want_dist = want["min_pairwise_distance"]
        assert abs(got["min_pairwise_distance"] - want_dist) <= want_dist / 2 ** (bits - 8)
        with mp.workprec(256):
            for g, w in zip(got["values"], want["values"], strict=True):
                g, w = (mpmathify(v.strip("()").replace(" ", "")) for v in (g, w))
                assert abs(g - w) <= mpf(10) ** -28 * max(1, abs(w))

    @settings(deadline=None)
    @given(_instances, st.sampled_from([256, 1024]))
    def test_same_values(self, instance, bits):
        params = _planted(*instance)
        args = (params.p, params.d, params.R, bits)
        try:
            values = verify_root_map(*args)["values"]
        except FactorizationError:
            assume(False)
        assert _printed(values) == _reference_values(params, bits)

    @pytest.mark.parametrize("bits", [256, 1024])
    def test_cancelling_655_bits(self, bits):
        # d + sqrt(R) cancels about 655 bits; rational_roots cannot factor
        # the cleared trace polynomial, so only the root map itself runs.
        params, _ = construct_example(5, -3, -(10**20))
        prec = bits + balls._GUARD
        us = root_map_once(params, bits)
        for re, im, r in us:
            numeric._check_radius(r, math.isqrt(re * re + im * im), -prec, bits)
        values = [numeric._complex_str(u[:2], prec) for u in us]
        assert _printed(values) == _reference_values(params, bits)
        assert "(-100000000000000000000.0 + 0.0j)" in values
        with pytest.raises(FactorizationError):
            verify_root_map(5, params.d, params.R, bits)


def assert_balls_hold(us, params, bits):
    """Each Gaussian ball (re, im, r) at scale 2^(bits + 32) holds its u_k as
    the reference root map gives it at 4 * bits."""
    prec = bits + balls._GUARD
    truth = _mpmath_root_map_once(params, 4 * bits)
    with mp.workprec(4 * bits + 32):
        for k, (ball, u) in enumerate(zip(us, truth, strict=True)):
            gap = abs(gauss(ball, prec) - u)
            assert gap <= ball[2] * TWO**-prec + abs(u) * TWO ** -(3 * bits), (params, bits, k)


def assert_zeta_holds(ball, p, prec, k=1):
    """The Gaussian ball at scale 2^prec holds e^(2 pi i k / p)."""
    with mp.workprec(4 * prec):
        truth = mp.expjpi(mpf(2 * k) / p)
        assert abs(gauss(ball, prec) - truth) <= ball[2] * TWO**-prec, (p, prec, k)


def zeta_powers(zeta, p, prec):
    """zeta^0 .. zeta^(p-1) by the `_gmul` chain that `zeta_two_ways` uses."""
    powers = [(1 << prec, 0, 0)]
    for _ in range(p - 1):
        powers.append(balls._gmul(powers[-1], zeta, prec))
    return tuple(powers)


class TestRootMapBalls:
    """The root map's Gaussian balls hold the values they stand for."""

    @settings(deadline=None)
    @given(_instances, st.sampled_from([64, 256, 1024]))
    def test_balls_hold_the_root_map(self, instance, bits):
        params = _planted(*instance)
        assert_balls_hold(root_map_once(params, bits), params, bits)
        assert_zeta_holds(zeta_two_ways(params.p, bits)[0], params.p, bits + balls._GUARD)

    @pytest.mark.parametrize("bits", [256, 1024])
    @pytest.mark.parametrize(
        "args", [(5, -3, -(10**20)), (61, 5, 3)], ids=["cancels-655-bits", "p61-R-negative"]
    )
    def test_balls_hold_where_the_root_search_cannot_factor(self, args, bits):
        params, _ = construct_example(*args)
        assert_balls_hold(root_map_once(params, bits), params, bits)
        with pytest.raises(FactorizationError):
            verify_root_map(params.p, params.d, params.R, bits)

    @pytest.mark.parametrize("d,R", [(F(7, 3), F(11, 5)), (F(7), F(-3))], ids=["R>0", "R<0"])
    def test_balls_hold_at_the_largest_accepted_p(self, d, R):
        # Past ROOT_MAP_MAX_P, where only the ball layer runs.
        params = InstanceParams.create(cli.MAX_P, d, R)
        assert_balls_hold(root_map_once(params, 256), params, 256)

    @pytest.mark.parametrize("bits", [256, 1024])
    def test_balls_hold_through_verify_root_map(self, monkeypatch, bits):
        params, _ = construct_example(61, -5, 2)
        real, seen = numeric._root_map_once, []

        def recording(p, d, R, D, bits, powers):
            seen.append(real(p, d, R, D, bits, powers))
            return seen[-1]

        monkeypatch.setattr(numeric, "_root_map_once", recording)
        assert verify_root_map(61, params.d, params.R, bits)["ok"]
        assert_balls_hold(seen[0], params, bits)

    @pytest.mark.parametrize("bits,work", [(57, 128), (256, 256), (1024, 1024)])
    def test_one_root_map_and_one_zeta_per_call(self, monkeypatch, bits, work):
        # One pass at the working precision max(bits, 128): no second map.
        calls, real_map, real_zeta = [], numeric._root_map_once, numeric.zeta_two_ways

        def counting_map(p, d, R, D, b, powers):
            calls.append(("_root_map_once", b))
            return real_map(p, d, R, D, b, powers)

        def counting_zeta(p, b):
            calls.append(("zeta_two_ways", b))
            return real_zeta(p, b)

        monkeypatch.setattr(numeric, "_root_map_once", counting_map)
        monkeypatch.setattr(numeric, "zeta_two_ways", counting_zeta)
        verify_root_map(7, -2158, 4656966, bits)
        assert sorted(calls) == [("_root_map_once", work), ("zeta_two_ways", work)]

    def test_zeta_is_built_once_per_precision(self, monkeypatch, fresh_zeta):
        # zeta and its powers come from the cache after the first call at a
        # precision: one Newton run on w^7 - 1 for three calls at 256 bits,
        # and one more for the first call at 1024.
        real, runs = balls._unit_root, []

        def counting(v, p, prec, angle):
            if v[:2] == (1 << prec, 0):
                runs.append((p, prec))
            return real(v, p, prec, angle)

        monkeypatch.setattr(balls, "_unit_root", counting)
        for _ in range(3):
            verify_root_map(7, -2158, 4656966, 256)
        assert runs == [(7, 288)]
        verify_root_map(7, -2158, 4656966, 1024)
        assert runs == [(7, 288), (7, 1056)]
        assert balls.zeta_two_ways.cache_info().maxsize == 16
        assert type(zeta_two_ways(7, 1024)[1]) is tuple and len(runs) == 2

    @pytest.mark.parametrize("args", [(9, 7, 3), (7, 5, -3), (5, 13, 1), (7, 3, -1)])
    def test_e_times_zeta_is_rejected(self, monkeypatch, fresh_zeta, args):
        # e replaced by the certified ball about e zeta, another zero of
        # w^p - v.  v has argument theta in (0, pi), as Im v = sqrt(-R / D) > 0,
        # so e zeta^(p - 1) = e zeta^-1 at argument (theta - 2 pi)/p is the
        # first power nearer the real axis than e zeta at (theta + 2 pi)/p.
        params, _ = construct_example(*args)
        assert params.R < 0
        real = balls._unit_root

        def turned(v, p, prec, angle):
            ball = real(v, p, prec, angle)
            if v[:2] == (1 << prec, 0):
                return ball
            zeta = real((1 << prec, 0, 0), p, prec, 2 * math.pi / p)
            return balls._root_ball(balls._gmul(ball, zeta, prec)[:2], v, p, prec)

        monkeypatch.setattr(balls, "_unit_root", turned)
        k = params.p - 2
        with pytest.raises(PrecisionError, match=rf"Re e > Re e zeta\^{k} undecided"):
            root_map_once(params, 256)

    @settings(deadline=None)
    @given(_instances, st.sampled_from([64, 256, 1024]))
    def test_e_rule_holds_and_e_is_the_principal_root(self, instance, bits):
        params = _planted(*instance)
        assume(params.R < 0)
        balls.zeta_two_ways.cache_clear()
        real, seen = balls._unit_root, []

        def recording(v, p, prec, angle):
            ball = real(v, p, prec, angle)
            if v[:2] != (1 << prec, 0):
                seen.append(ball)
            return ball

        with mock.patch.object(balls, "_unit_root", recording):
            assert len(root_map_once(params, bits)) == params.p
        (e,) = seen
        prec, d, R, D = bits + balls._GUARD, params.d, params.R, params.D
        with mp.workprec(4 * prec):
            v = mpc(to_mpf(d), mp.sqrt(to_mpf(-R))) / mp.sqrt(to_mpf(D))
            assert abs(gauss(e, prec) - mp.root(v, params.p)) <= e[2] * TWO**-prec

    @pytest.mark.parametrize("offset", [0, 2**20, 2**100])
    @pytest.mark.parametrize("p", [3, 7, 13, 61])
    def test_newton_radius_covers_a_moved_point(self, p, offset):
        # The radius bounds the distance to a zero from wherever the point
        # is: zeta moved by `offset` units of 2^-288 in each part.
        zeta = zeta_two_ways(p, 256)[0]
        moved = (zeta[0] + offset, zeta[1] - offset)
        assert_zeta_holds(balls._root_ball(moved, (1 << 288, 0, 0), p, 288), p, 288)

    @pytest.mark.parametrize("p", [3, 7, 13])
    def test_newton_radius_covers_the_radius_of_v(self, p):
        # v's midpoint is 2^-200 off 1 and its radius says so: the ball must
        # still hold zeta, a zero of w^p - 1.
        v = ((1 << 288) + (1 << 88), 0, (1 << 88) + 1)
        assert_zeta_holds(balls._unit_root(v, p, 288, 2 * math.pi / p), p, 288)

    @pytest.mark.parametrize("args", [(7, -2, 4), (13, -5, 2), (9, 7, 3), (7, 5, -3)])
    def test_balls_hold_around_a_moved_zeta(self, args):
        # zeta moved by 2^-200 with its radius grown by just as much: zeta^k
        # moves by about k 2^-200, so only radii grown through the powers
        # hold every u_k.
        params, _ = construct_example(*args)
        p, prec = params.p, 256 + balls._GUARD
        re, im, r = zeta_two_ways(p, 256)[0]
        off = 1 << (prec - 200)
        powers = zeta_powers((re + off, im, r + off), p, prec)
        moved = balls._root_map_once(p, params.d, params.R, params.D, 256, powers)
        assert_balls_hold(moved, params, 256)

    @pytest.mark.parametrize("args", [(7, -2, 4), (11, -6, 15), (9, 7, 3), (7, 5, -3)])
    def test_balls_hold_with_moved_leaves(self, monkeypatch, args):
        # Every rational leaf moved by 2^-60 of itself, inside a radius grown
        # by as much: the enclosures of d, R, D, sqrt(D) and v are wide, and
        # the u_k balls must widen with them.
        params, _ = construct_example(*args)
        real = balls._leaf

        def moved(q, prec):
            m, r, e = real(q, prec)
            return m + (abs(m) >> 60), r + (abs(m) >> 60), e

        monkeypatch.setattr(balls, "_leaf", moved)
        assert_balls_hold(root_map_once(params, 256), params, 256)

    def test_moved_zeta_fails_the_gate(self, monkeypatch):
        # zeta moved by 2^-(B - 24) with the radius certified for the moved
        # point: some u_k radius then exceeds the tolerance 2^-(B - 16) (1 + |u|).
        B = 256
        real = numeric.zeta_two_ways

        def moved(p, bits):
            zeta, prec = real(p, bits)[0], bits + balls._GUARD
            point = (zeta[0] + (1 << (prec - B + 24)), zeta[1])
            zeta = balls._root_ball(point, (1 << prec, 0, 0), p, prec)
            return zeta, zeta_powers(zeta, p, prec)

        monkeypatch.setattr(numeric, "zeta_two_ways", moved)
        with pytest.raises(PrecisionError, match="radius exceeds"):
            verify_root_map(7, -2158, 4656966, B)


class TestHelpers:
    def test_decimal_str(self):
        assert decimal_str(F(1, 4)) == "0.25"

    @settings(max_examples=2000)
    @given(
        st.integers(-(2**64) + 1, 2**64 - 1),
        st.integers(-1100, 1100),
        st.sampled_from([20, 30, 6]),
    )
    def test_decimal_str_matches_nstr(self, man, exp, digits):
        # A numerator of at most 64 bits is exact at nstr's 80-bit conversion
        # (4 * digits bits for digits = 30), so nstr's digits are the value's.
        q = F(man) * F(2) ** exp
        with mp.workprec(max(80, 4 * digits)):
            assert decimal_str(q, digits) == mp.nstr(to_mpf(q), digits)

    @pytest.mark.parametrize(
        "q,text",
        [
            (F(0), "0.0"),
            (F(-3, 8), "-0.375"),
            (F(1, 2**200), "6.2230152778611417071e-61"),
            (F(10**20 - 1) / 10**20 * 2 - F(1, 10**21), "2.0"),
            (F(999999999999999999995, 10**21), "1.0"),
            (F(1, 10**6), "1.0e-6"),
            (F(1, 10**5), "0.00001"),
            (F(10**19), "10000000000000000000.0"),
            (F(10**20), "1.0e+20"),
            (F(1, 3**40000), "1.4119236522634404592e-19085"),
        ],
    )
    def test_decimal_str_layout_and_rounding(self, q, text):
        assert decimal_str(q) == text


# The gate accepts a value whose radius is at most 2^-(B - 16) (1 + |v|).
GATE_BITS = 256
GATE_CASES = pytest.mark.parametrize(
    "shift,raises", [(20, True), (12, False)], ids=["above-tolerance", "below-tolerance"]
)


class TestCheckAgreement:
    """The one precision gate, called directly on a Gaussian ball at the root
    map's working scale: a radius of 2^-(B - 16) (1 + |u|) times 1 + 2^-4
    raises, times 1 - 2^-4 passes."""

    @pytest.mark.parametrize("factor,raises", [(F(17, 16), True), (F(15, 16), False)])
    @pytest.mark.parametrize("magnitude", [F(0), F(1), F(2**100), F(1, 2**300)])
    @pytest.mark.parametrize("bits", [64, 256, 1024])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_threshold(self, kind, bits, magnitude, factor, raises):
        radius = F(1, 2 ** (bits - 16)) * (1 + magnitude) * factor
        # |u| = magnitude on the real axis or along (3 + 4i)/5.
        mid = (magnitude, F(0)) if kind == "real" else (magnitude * F(3, 5), magnitude * F(4, 5))
        prec = max(bits, 128) + balls._GUARD
        (re, im), r = at_scale(mid, prec), math.ceil(radius * 2**prec)
        args = (r, math.isqrt(re * re + im * im), -prec, bits)
        if raises:
            with pytest.raises(PrecisionError, match="radius exceeds"):
                numeric._check_radius(*args)
        else:
            numeric._check_radius(*args)


class TestAgreementGate:
    @GATE_CASES
    def test_eval_dual(self, monkeypatch, shift, raises):
        # eval_dual's bound is the gate's tolerance: widen the enclosure by
        # 2^-(B - shift) (1 + |v|), 16 times it for shift = 20, 1/16 for 12.
        tree = et.Sqrt(et.rat(2))
        expected = eval_dual(tree, GATE_BITS)
        real = numeric.eval_expression

        def widened(tree, bits):
            m, r, e = real(tree, bits)
            return m, r + (((1 << -e) + abs(m)) >> (GATE_BITS - shift)), e

        monkeypatch.setattr(numeric, "eval_expression", widened)
        if raises:
            with pytest.raises(PrecisionError, match="radius exceeds"):
                eval_dual(tree, GATE_BITS)
        else:
            assert eval_dual(tree, GATE_BITS) == expected

    @GATE_CASES
    def test_verify_root_map(self, monkeypatch, shift, raises):
        # The root map's bound is the same: widen every u_k's radius likewise.
        real = numeric._root_map_once

        def widened(p, d, R, D, bits, powers):
            one = 1 << (bits + balls._GUARD)
            return [
                (re, im, r + ((one + math.isqrt(re * re + im * im)) >> (GATE_BITS - shift)))
                for re, im, r in real(p, d, R, D, bits, powers)
            ]

        monkeypatch.setattr(numeric, "_root_map_once", widened)
        if raises:
            with pytest.raises(PrecisionError, match="radius exceeds"):
                verify_root_map(7, -2158, 4656966, GATE_BITS)
        else:
            assert verify_root_map(7, -2158, 4656966, GATE_BITS)["ok"]


def _stdout(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


SEPTIC = ("reduce", "--p", "7", "--d", "-2158", "--R", "4656966", "--numeric")


class TestCliOutputBytes:
    """stdout of the numeric commands, byte for byte as recorded when the
    residuals became certified upper bounds from one integer enclosure per
    branch."""

    @pytest.mark.parametrize(
        "bits,sha256,numeric_tail",
        [
            (
                256,
                "e1e12fc5d18a1d2e1e5b9abe6f8549647bbc1e977d733179dc1f4883787fc8e6",
                '  "numeric": {\n    "bits": 256,\n    "residuals": [\n'
                '      "6.7470066836675348636e-80",\n      "4.5542295114755860329e-78"\n'
                '    ],\n    "max_residual": "4.5542295114755860329e-78",\n'
                '    "residual_bound": "2^-200",\n    "residual_bound_ok": true,\n'
                '    "branch_signs_consistent": true\n  }\n}\n',
            ),
            (
                1024,
                "4987310bce6712403fb9d2dca26d26b4329b9936153c5ef84a7896d56d88cf97",
                '  "numeric": {\n    "bits": 1024,\n    "residuals": [\n'
                '      "4.3458473798968777013e-311",\n      "2.3793514404935405415e-309"\n'
                '    ],\n    "max_residual": "2.3793514404935405415e-309",\n'
                '    "residual_bound": "2^-968",\n    "residual_bound_ok": true,\n'
                '    "branch_signs_consistent": true\n  }\n}\n',
            ),
        ],
        ids=["256", "1024"],
    )
    def test_septic_reduce_numeric(self, capsys, bits, sha256, numeric_tail):
        out = _stdout(capsys, *SEPTIC, "--bits", str(bits))
        assert out.endswith(numeric_tail)
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_selftest(self, capsys):
        out = _stdout(capsys, "selftest", "--bits", "256")
        assert out == SELFTEST_256


class TestExactCliOutputBytes:
    """stdout of the exact identity and coefficient commands, byte for byte as
    recorded before the identity checks moved onto packed-integer kernels, and
    of `reduce` on each shape of branch tree, as recorded before the branch
    pair was built from one expression over the sign."""

    @pytest.mark.parametrize(
        "argv,sha256",
        [
            (
                ("verify", "--p-max", "61"),
                "06310289e89eda901f503e5952ade3ab996cb5b0f3afa6edf324aa970bcb93ec",
            ),
            (
                ("coeffs", "--p", "1001", "--family", "C"),
                "d8775eb60647defe8fdd042dc36be57d2836fde08e12d1d3b511da612a931adb",
            ),
            # Rational z and u, R > 0: exact branch values.
            (
                ("reduce", "--p", "3", "--d", "-7", "--R", "50"),
                "bbc81626b18cdfdfc8af4c9c1698adb5a63cf3e493678188b86b062aacfdc987",
            ),
            # Rational z, R < 0.
            (
                ("reduce", "--p", "3", "--d", "-23/16", "--R", "-1519/256"),
                "2b43b31e59a29ebff29a16badcc794e254377f9dfc0f59bd201f553cc70bd594",
            ),
            # Irrational z with three rational roots of f: z-power trees.
            (
                ("reduce", "--p", "3", "--d", "-10/7", "--R", "-243/49"),
                "208f9fca61832feb42c5fc7cbf645a64b0b8503cb25791b397ae65c6bcdd28a7",
            ),
            # Irrational u: no branches.
            (
                ("reduce", "--p", "5", "--d", "2", "--R", "5"),
                "1aa149d6b343a0a4fcbdcde1b871a0ab386c1e5ecdff5f396e026148a55cbd44",
            ),
        ],
    )
    def test_stdout_sha256(self, capsys, argv, sha256):
        out = _stdout(capsys, *argv)
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


SELFTEST_256 = """\
{
  "checks": [
    {
      "name": "quintic-exact",
      "pass": true,
      "detail": "g, f, A, z and rational-root scan for (5, 2, 5)"
    },
    {
      "name": "septic-exact",
      "pass": true,
      "detail": "g, D, u = 4 and irrational z for (7, -2158, 4656966)"
    },
    {
      "name": "septic-numeric-residual",
      "pass": true,
      "detail": "max residual 4.5542295114755860329e-78 < 6.2230152778611417071e-61"
    },
    {
      "name": "construction-roundtrip",
      "pass": true,
      "detail": "construct(7, -2, 4) gives d = -2158, R = 4656966 and reduce recovers u = 4"
    },
    {
      "name": "cubic-exact-denesting",
      "pass": true,
      "detail": "branch -1 + sqrt(2) cubes to -7 + sqrt(50), verified in Q(sqrt(50))"
    },
    {
      "name": "square-denesting",
      "pass": true,
      "detail": "sqrt(3 + sqrt(5)) = sqrt(5/2) + sqrt(1/2)"
    },
    {
      "name": "fourth-denesting",
      "pass": true,
      "detail": "(7 + sqrt(48))^(1/4) = sqrt(sqrt(1) + 1/2) + sqrt(sqrt(1) - 1/2)"
    }
  ],
  "ok": true
}
"""
