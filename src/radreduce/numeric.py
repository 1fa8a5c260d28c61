"""High-precision numeric validation of reduction results.

Expression trees are evaluated once, in the integer ball arithmetic of
`balls`, whose module docstring proves each radius rule.  `eval_dual` returns
the midpoint and raises PrecisionError if the radius exceeds
2^-(B - 16) (1 + |value|); the radius bounds the distance to the truth.
`verify_root_map` builds the root map of `balls` once, at max(B, 128) + 32
bits, and holds each radius to `eval_dual`'s tolerance.  Only `_to_mpf` (the
mpf that `eval_dual` returns) imports mpmath.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import combinations

from . import exprtree as et
from .balls import _GUARD, _add, _inv, _leaf, _mul, _pow, _root, _root_map_once, zeta_two_ways
from .construct import InstanceParams, trace_poly
from .exactnum import DEFAULT_BITS, PrecisionError, tolerance
from .poly import rational_roots

# Radii are accepted to 2^-(B - 16) (1 + |v|).
RADIUS_MARGIN_BITS = 16
# Largest p that verify_root_map accepts.
ROOT_MAP_MAX_P = 61


def decimal_str(q: Fraction, digits: int = 20) -> str:
    """Short decimal rendering of an exact value, for human-facing output:
    `q` rounded half up to `digits` significant digits in integers, laid out
    as mpmath's `nstr` lays out the same digits."""
    if q == 0:
        return "0.0"
    num, den = abs(q.numerator), q.denominator
    # From at most the decimal exponent of the leading digit, up to it.
    exp = math.floor((num.bit_length() - den.bit_length()) * math.log10(2)) - 1
    while True:
        shift = digits - 1 - exp
        top, bottom = (num * 10**shift, den) if shift >= 0 else (num, den * 10**-shift)
        man = (2 * top + bottom) // (2 * bottom)
        if man < 10**digits:
            break
        exp += 1
    text, split = str(man), 1
    if min(-(digits // 3), -5) < exp < digits:
        text, split, exp = ("0" * -exp + text, 1, 0) if exp < 0 else (text, exp + 1, 0)
    text = (text[:split] + "." + text[split:]).rstrip("0")
    text += "0" if text.endswith(".") else ""
    return ("-" if q < 0 else "") + text + (f"e{exp:+d}" if exp else "")


def _enclose(node: et.Expr, prec: int):
    if isinstance(node, et.Rat):
        return _leaf(node.value, prec)
    if isinstance(node, et.Sqrt):
        return _root(_enclose(node.arg, prec), 2, prec)
    if isinstance(node, et.NthRoot):
        return _root(_enclose(node.arg, prec), node.degree, prec)
    if isinstance(node, et.Add):
        return reduce(lambda a, t: _add(a, _enclose(t, prec), prec), node.terms, (0, 0, 0))
    if isinstance(node, et.Mul):
        return reduce(lambda a, f: _mul(a, _enclose(f, prec), prec), node.factors, (1, 0, 0))
    if isinstance(node, et.Pow):
        power = _pow(_enclose(node.base, prec), abs(node.exponent), prec)
        return _inv(power, prec) if node.exponent < 0 else power
    raise TypeError(f"unknown expression node: {node!r}")


def eval_expression(tree: et.Expr, bits: int = DEFAULT_BITS) -> tuple[int, int, int]:
    """Enclosure (m, r, e) of the tree's value, [(m - r) 2^e, (m + r) 2^e],
    with a (bits + 32)-bit midpoint."""
    return _enclose(tree, bits + _GUARD)


def _to_mpf(ball):
    """The midpoint of a ball as an mpf, exactly."""
    from mpmath import mp
    from mpmath.libmp import from_man_exp

    return mp.make_mpf(from_man_exp(ball[0], ball[2]))


def _complex_str(u: tuple[int, int], prec: int) -> str:
    """u = (re, im) at scale 2^prec to 30 digits, laid out as mpmath's `nstr`
    lays out a complex value: "(re + imj)", or "(re - |im|j)" when im < 0."""
    re, im = (decimal_str(Fraction(x, 1 << prec), 30) for x in u)
    return f"({re} - {im[1:]}j)" if im[0] == "-" else f"({re} + {im}j)"


def _check_radius(r: int, mag: int, e: int, bits: int) -> None:
    """The precision gate: raise PrecisionError unless a radius r 2^e is at
    most 2^-(bits - 16) (1 + mag 2^e), for mag 2^e the size of the value."""
    # Both sides times 2^(bits + s), so that no shift is negative.
    s = max(0, -e)
    if r << (bits + e + s) > ((1 << s) + (mag << (e + s))) << RADIUS_MARGIN_BITS:
        raise PrecisionError(f"precision-{bits} enclosure radius exceeds the tolerance")


def eval_dual(tree: et.Expr, bits: int = DEFAULT_BITS):
    """The tree's value as an mpf: the midpoint of one enclosure at `bits`,
    exactly.  Raises PrecisionError unless the radius is at most
    2^-(bits - 16) (1 + |midpoint|)."""
    m, r, e = ball = eval_expression(tree, bits)
    _check_radius(r, abs(m), e, bits)
    return _to_mpf(ball)


def branch_residuals(result, bits: int = DEFAULT_BITS) -> dict:
    """Certified upper bounds on |(v^p - d)^2 - R| for both reduction branches.

    From one enclosure of each branch value v at `bits`, w = v^p - d and
    w^2 - R are formed as balls; the residual is (|m| + r) 2^e of the last,
    and the sign of w, whose ball must exclude 0 (else PrecisionError), must
    be + on one branch and - on the other."""
    if result.branches is None:
        raise ValueError("no branch expressions: u is irrational for this instance")
    params, prec = result.params, bits + _GUARD
    minus_d, minus_R = _leaf(-params.d, prec), _leaf(-params.R, prec)
    residuals, signs = [], []
    for tree in result.branches:
        w = _add(_pow(eval_expression(tree, bits), params.p, prec), minus_d, prec)
        if abs(w[0]) <= w[1]:
            raise PrecisionError("branch sign undecided")
        signs.append(1 if w[0] > 0 else -1)
        m, r, e = _add(_mul(w, w, prec), minus_R, prec)
        residuals.append(Fraction(abs(m) + r) * Fraction(2) ** e)
    return {
        "residuals": residuals,
        "max_residual": max(residuals),
        "branch_signs_consistent": sorted(signs) == [-1, 1],
    }


def verify_root_map(p: int, d, R, bits: int = DEFAULT_BITS, tol_exp: int | None = None) -> dict:
    """Check that the p values u_k of the root map are p distinct zeros of
    the trace polynomial (numerically, from one pass of certified balls).

    The map runs once at P = max(bits, 128) + 32 bits, and PrecisionError is
    raised unless each u_k's radius is at most 2^-(bits - 16) (1 + |u_k|).
    `distinct` holds when the balls are pairwise disjoint (distance > r_j + r_k),
    which proves the p values distinct.  They always are: as
    u_j - u_k = (w_j - w_k)(1 - D/(w_j w_k)) and w_j != w_k for j != k,
    u_j = u_k forces w_j w_k = D, so beta^2 = D^p, that is
    (d + sqrt(R))^2 = D = d^2 - R, and sqrt(R) = -d would be rational.
    The other checks run on the midpoints and f's floored coefficients at scale
    2^P.  The relative residual, scaled by sum_i |c_i| max(1, |u|)^i, must be
    below `exactnum.tolerance` (by default 2^-(bits - 56)).  Values print to
    30 digits, with imaginary part exactly 0 where u_k is real by
    construction.  Limited to p <= ROOT_MAP_MAX_P = 61:
    construct_example(61, -5, 2), with zeta cached, takes about 43 ms at 256
    bits (34 ms of it the rational-root search) and 77 ms at 1024 on a 2-CPU Xeon.
    """
    if p > ROOT_MAP_MAX_P:
        raise ValueError(f"p = {p} exceeds ROOT_MAP_MAX_P = {ROOT_MAP_MAX_P}")
    params = InstanceParams.create(p, d, R)
    f = trace_poly(params)
    tol = tolerance(bits, tol_exp)

    work = max(bits, 128)
    prec, powers = work + _GUARD, zeta_two_ways(p, work)[1]
    us = _root_map_once(p, params.d, params.R, params.D, work, powers)
    one = 1 << prec
    coeffs = [(c.numerator << prec) // c.denominator for c in f.coeffs]
    max_rel, values = Fraction(0), []
    for ur, ui, r in us:
        size = math.isqrt(ur * ur + ui * ui)
        _check_radius(r, size, -prec, bits)
        mag = max(one, size)
        fr, fi, scale = coeffs[-1], 0, abs(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            fr, fi = ((fr * ur - fi * ui) >> prec) + c, (fr * ui + fi * ur) >> prec
            scale = (scale * mag >> prec) + abs(c)
        max_rel = max(max_rel, Fraction(math.isqrt(fr * fr + fi * fi) + 1, scale))
        values.append(_complex_str((ur, ui), prec))

    gaps = [((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2, a[2] + b[2]) for a, b in combinations(us, 2)]
    min_dist2 = min(g for g, _ in gaps)
    distinct = all(g > r * r for g, r in gaps)  # pairwise disjoint balls
    # Every rational zero of f must appear among the u_k.
    root_dists = {}
    for r in sorted(rational_roots(f)):
        rf = (r.numerator << prec) // r.denominator
        root_dists[str(r)] = Fraction(
            math.isqrt(min((ur - rf) ** 2 + ui * ui for ur, ui, _ in us)), one
        )

    return {
        "p": p,
        "values": values,
        "max_relative_residual": max_rel,
        "tolerance": tol,
        "min_pairwise_distance": Fraction(math.isqrt(min_dist2), one),
        "distinct": distinct,
        "rational_root_distances": root_dists,
        "ok": distinct and max_rel < tol,
    }
