"""High-precision numeric validation of reduction results.

Expression trees are evaluated once, in integer ball arithmetic (midpoint-
radius intervals; Johansson, "Arb: efficient arbitrary-precision midpoint-
radius interval arithmetic", IEEE Trans. Computers 66(8), 2017).  A ball
(m, r, e), r >= 0, is the interval [(m - r) 2^e, (m + r) 2^e].  Midpoints keep
P = bits + 32 bits; each radius rule covers every value the operands allow
(x within r of m, y within s of n, in units of 2^e):
* leaf q: m = floor(q 2^-e), r = 1 unless exact, as 0 <= q 2^-e - m < 1.
* truncation by 2^k: m = m' 2^k + t, 0 <= t < 2^k, so |x - m' 2^k| <= r + t
  and r' = ceil((r + t) / 2^k).  Add is exact on aligned exponents (radii add).
* mul: xy - mn = m (y - n) + n (x - m) + (x - m)(y - n): |m| s + |n| r + r s.
* integer power: square-and-multiply; a negative exponent takes the
  reciprocal, |1/x - 1/m| = |x - m| / (|x| |m|) <= r / (|m| (|m| - r)) for
  |m| > r, plus 1 for the floor of 2^k / m unless it is exact.
* square and odd real root (M = |m| > r; odd roots carry the sign): the floor
  root of M shifted to n P bits, by `math.isqrt` or `exactnum.integer_nth_root`,
  with radius ceil(r hi / (n (M - r))) + 1 for hi = floor root + 1, since
  |x^(1/n) - M^(1/n)| = |x - M| c^(1/n - 1) / n for some c >= M - r, and
  c^(1/n - 1) <= (M - r)^(1/n) / (M - r) <= hi / (M - r); the 1 is the floor.
`eval_dual` returns the midpoint and raises PrecisionError if the radius
exceeds 2^-(B - 16) (1 + |value|), the tolerance of the B/2B gate it replaces.
That gate accepted a value this close to a second one computed at 2B bits, so
it assumed the 2B value exact; the radius bounds the distance to the truth.

The root map computes one complex zero y of Z^p - (d + sqrt(R)), forms the p
sums u_k = z^((p-1)/2) (y zeta^k + y' zeta^-k) with a primitive p-th root of
unity zeta, and confirms they are p distinct zeros of the trace polynomial.
sqrt(R) and z are ball-root midpoints.  When d < 0 < R, d + sqrt(R) cancels,
so it is taken as D / (d - sqrt(R)), whose denominator adds two terms of one
sign.  zeta is computed two independent ways (Newton on w^p - 1 in Gaussian
fixed point, versus mpmath cosine/sine) and cross-checked.  mpmath forms the
u_k, keeping relative precision where y and y' differ by hundreds of bits;
their checks run in Gaussian fixed point behind a B/2B agreement gate.  Only
the root map and `eval_dual` import mpmath.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import combinations

from . import exprtree as et
from .construct import InstanceParams, trace_poly
from .exactnum import DEFAULT_BITS, PrecisionError, integer_nth_root, tolerance_exp
from .poly import rational_roots

# Values are accepted to 2^-(B - 16) (1 + |v|): enclosure radii and B/2B pairs.
AGREEMENT_MARGIN_BITS = 16
_GUARD = 32
# Largest p that verify_root_map accepts.
ROOT_MAP_MAX_P = 61


class EvalDomainError(ValueError):
    """Even root of a negative real requested in real mode."""


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


def _leaf(q: Fraction, prec: int) -> tuple[int, int, int]:
    """Ball of the rational q with a prec-bit midpoint."""
    if q == 0:
        return 0, 0, 0
    n, d = q.numerator, q.denominator
    e = n.bit_length() - d.bit_length() - prec
    m, rem = divmod(n << -e, d) if e <= 0 else divmod(n, d << e)
    return m, int(rem != 0), e


def _trunc(m: int, r: int, e: int, prec: int) -> tuple[int, int, int]:
    s = max(abs(m).bit_length(), r.bit_length()) - prec
    if s <= 0:
        return m, r, e
    return m >> s, -(-(r + (m & ((1 << s) - 1))) >> s), e + s


def _add(a, b, prec: int):
    if a[2] < b[2]:
        a, b = b, a
    s = a[2] - b[2]
    return _trunc((a[0] << s) + b[0], (a[1] << s) + b[1], b[2], prec)


def _mul(a, b, prec: int):
    (ma, ra, ea), (mb, rb, eb) = a, b
    return _trunc(ma * mb, abs(ma) * rb + abs(mb) * ra + ra * rb, ea + eb, prec)


def _pow(a, n: int, prec: int):
    """a^n for n >= 0, by square-and-multiply: (a^2)^(n // 2), times a if n is odd."""
    if n <= 1:
        return a if n else (1, 0, 0)
    half = _pow(_mul(a, a, prec), n >> 1, prec)
    return _mul(half, a, prec) if n & 1 else half


def _inv(a, prec: int):
    m, r, e = a
    if m == r == 0:
        raise ZeroDivisionError("zero base with negative exponent")
    big = abs(m)
    if big <= r:
        raise PrecisionError("reciprocal of an enclosure that holds 0")
    k = prec + big.bit_length()
    q, rem = divmod(1 << k, m)
    return q, -(-(r << k) // (big * (big - r))) + (rem != 0), -k - e


def _root(a, n: int, prec: int):
    """Real n-th root (n = 2, or odd n >= 3) of a ball."""
    m, r, e = a
    if m == r == 0:
        return a
    big = abs(m)
    if big <= r:
        raise PrecisionError(f"sign of a degree-{n} root's argument undecided")
    if m < 0 and n == 2:
        raise EvalDomainError("square root of a negative real in real mode")
    need = max(0, n * prec - big.bit_length())
    shift = need + (e - need) % n
    root = math.isqrt(big << shift) if n == 2 else integer_nth_root(big << shift, n)[0]
    radius = -(-(r * (root + 1)) // (n * (big - r))) + 1
    return (-root if m < 0 else root), radius, (e - shift) // n


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


def _fixed(x, prec: int) -> tuple[int, int]:
    """(re, im) of a finite mpf or mpc as floor(x 2^prec) integers, read off
    the mantissas and exponents with no mpmath arithmetic."""
    parts = x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, (0, 0, 0, 0))
    out = []
    for sign, man, exp, bc in parts:
        if bc < 0:
            raise ValueError(f"non-finite value {x}")
        man, shift = -man if sign else man, exp + prec
        out.append(man << shift if shift >= 0 else man >> -shift)
    return out[0], out[1]


def _gauss_pow(w: tuple[int, int], n: int, q: int) -> tuple[int, int]:
    """w^n (n >= 1) for a Gaussian fixed-point value w = (re, im) at scale 2^q."""
    a, b = w
    for _ in range(n - 1):
        a, b = (a * w[0] - b * w[1]) >> q, (a * w[1] + b * w[0]) >> q
    return a, b


def _check_agreement(low, high, bits: int) -> None:
    """The dual-precision gate for real and complex pairs: raise PrecisionError
    unless the values computed at `bits` and `2*bits` agree to
    2^-(bits - 16) * (1 + |high|), compared in integers at scale 2^(2 bits + 32)."""
    prec = 2 * bits + _GUARD
    lo, hi = _fixed(low, prec), _fixed(high, prec)
    dist2 = (lo[0] - hi[0]) ** 2 + (lo[1] - hi[1]) ** 2
    bound = (1 << prec) + math.isqrt(hi[0] ** 2 + hi[1] ** 2)
    # Both sides times 2^32, so that bits < 16 needs no negative shift.
    if dist2 << 2 * bits > bound * bound << 2 * AGREEMENT_MARGIN_BITS:
        raise PrecisionError(
            f"precision-{bits} and precision-{2 * bits} values disagree: "
            f"{low} vs {high}"
        )


def eval_dual(tree: et.Expr, bits: int = DEFAULT_BITS):
    """The tree's value as an mpf: the midpoint of one enclosure at `bits`,
    exactly.  Raises PrecisionError unless the radius is at most
    2^-(bits - 16) (1 + |midpoint|)."""
    m, r, e = ball = eval_expression(tree, bits)
    # Both sides times 2^(bits + s), so that no shift is negative.
    s = max(0, -e)
    if r << (bits + e + s) > ((1 << s) + (abs(m) << (e + s))) << AGREEMENT_MARGIN_BITS:
        raise PrecisionError(f"precision-{bits} enclosure radius exceeds the tolerance")
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


def zeta_two_ways(p: int, bits: int = DEFAULT_BITS):
    """Primitive p-th root of unity by two independent routes.

    Newton on w^p - 1 runs on Gaussian fixed-point integers at scale 2^prec,
    prec = bits + 32, from a 53-bit seed by stdlib `math.cos`/`math.sin`: one
    step per rung of a doubling precision ladder, then at full precision until
    the step converges; its residual |w^p - 1| must be at most 2^-(prec - 16).
    The other route is mpmath cosine/sine.  Compared in integers, they raise
    PrecisionError if they disagree beyond 2^-(bits - 16).
    """
    from mpmath import mp, mpc, mpf

    prec = bits + _GUARD
    angle = 2 * math.pi / p
    q = min(53, prec)
    w = (round(math.cos(angle) * 2**q), round(math.sin(angle) * 2**q))
    # Each step doubles the correct bits, so it runs at about twice the
    # precision its input is good to.
    rungs = [prec]
    while rungs[-1] > 128:
        rungs.append(rungs[-1] // 2 + 8)
    for rung in rungs[:0:-1] + [prec] * 64:
        w, q = (w[0] << rung - q, w[1] << rung - q), rung
        power = _gauss_pow(w, p - 1, q)
        num_re = ((power[0] * w[0] - power[1] * w[1]) >> q) - (1 << q)
        num_im = (power[0] * w[1] + power[1] * w[0]) >> q
        den = p * (power[0] ** 2 + power[1] ** 2)
        # (w^p - 1) / (p w^(p-1)), multiplied through by conj(w^(p-1)).
        sr = ((num_re * power[0] + num_im * power[1]) << q) // den
        si = ((num_im * power[0] - num_re * power[1]) << q) // den
        w = (w[0] - sr, w[1] - si)
        if q == prec and (sr * sr + si * si) << 2 * (prec - 8) <= w[0] ** 2 + w[1] ** 2:
            break
    resid = _gauss_pow(w, p, prec)
    if (resid[0] - (1 << prec)) ** 2 + resid[1] ** 2 > 1 << 32:
        raise PrecisionError("root-of-unity Newton iteration failed to converge")
    with mp.workprec(prec):
        angle = 2 * mp.pi / p
        series = mpc(mp.cos(angle), mp.sin(angle))
        newton = mpc(mpf((w[0], -prec)), mpf((w[1], -prec)))
    s = _fixed(series, prec)
    dist2 = (w[0] - s[0]) ** 2 + (w[1] - s[1]) ** 2
    diff = Fraction(math.isqrt(dist2), 1 << prec)
    if dist2 > 1 << 2 * (prec - bits + AGREEMENT_MARGIN_BITS):
        raise PrecisionError(
            f"root-of-unity routes disagree by {float(diff):.6g} at {bits} bits"
        )
    return newton, series, diff


def _root_map_once(params: InstanceParams, bits: int) -> list:
    """The p scaled conjugate sums u_k at one working precision."""
    from mpmath import mp, mpc

    p, prec = params.p, bits + _GUARD
    with mp.workprec(prec):
        root = _to_mpf(_root(_leaf(abs(params.R), prec), 2, prec))
        sqrtR = root if params.R > 0 else mpc(0, root)
        d = _to_mpf(_leaf(params.d, prec))
        if d < 0 < params.R:
            # d + sqrt(R) cancels; the norm form D / (d - sqrt(R)) is the same
            # number from two terms of one sign.
            w = _to_mpf(_leaf(params.D, prec)) / (d - sqrtR)
        else:
            w = d + sqrtR
        y = mp.exp(mp.log(mpc(w)) / p)  # principal complex p-th root
        z = _to_mpf(_root(_leaf(params.D, prec), p, prec))
        zeta, _, _ = zeta_two_ways(p, bits)
        y_conj = z / y
        zhalf = z ** ((p - 1) // 2)
        powers = [mpc(1)]
        for _ in range(p - 1):
            powers.append(powers[-1] * zeta)
        # zeta^-k = zeta^(p-k)
        return [zhalf * (y * powers[k] + y_conj * powers[-k]) for k in range(p)]


def root_map_values(p: int, d, R, bits: int = DEFAULT_BITS) -> list:
    """The p scaled conjugate sums u_k as complex values at `bits` precision."""
    return _root_map_once(InstanceParams.create(p, d, R), bits)


def verify_root_map(p: int, d, R, bits: int = DEFAULT_BITS, tol_exp: int | None = None) -> dict:
    """Check that the p scaled conjugate sums are p distinct zeros of the
    trace polynomial (numerically, at two precisions).

    After the B/2B gate the checks run on the 2B values and f's floored
    coefficients as Gaussian fixed-point integers at scale 2^(2 bits + 32).
    Relative residual tolerance defaults to 2^-(bits - 56); the residual is
    scaled by sum_i |c_i| max(1, |u|)^i.  Limited to p <= ROOT_MAP_MAX_P = 61:
    construct_example(61, -5, 2) takes about 60 ms at 256 bits (48 ms of it
    the rational-root search) and 160 ms at 1024 bits on a 2-CPU Xeon.

    A u_k with |Im u_k| at most the gate's tolerance 2^-(bits - 16) (1 + |u_k|)
    and below 2^-(bits//2 + 2) prints with imaginary part exactly 0, not its
    rounding noise.  That hides no non-real zero: f has real coefficients, so
    its conjugate, another u_j, lies within 2^-(bits//2 + 1): distinct: false.
    """
    from mpmath import mp
    from mpmath.libmp import fzero

    if p > ROOT_MAP_MAX_P:
        raise ValueError(f"p = {p} exceeds ROOT_MAP_MAX_P = {ROOT_MAP_MAX_P}")
    params = InstanceParams.create(p, d, R)
    f = trace_poly(params)
    tol = Fraction(1, 2 ** tolerance_exp(bits, tol_exp))

    u_low = _root_map_once(params, bits)
    u_high = _root_map_once(params, 2 * bits)
    for lo, hi in zip(u_low, u_high):
        _check_agreement(lo, hi, bits)

    prec = 2 * bits + _GUARD
    one = 1 << prec
    us = [_fixed(u, prec) for u in u_high]
    coeffs = [(c.numerator << prec) // c.denominator for c in f.coeffs]
    max_rel, values = Fraction(0), []
    for u, (ur, ui) in zip(u_high, us):
        mag = max(one, size := math.isqrt(ur * ur + ui * ui))
        fr, fi, scale = coeffs[-1], 0, abs(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            fr, fi = ((fr * ur - fi * ui) >> prec) + c, (fr * ui + fi * ur) >> prec
            scale = (scale * mag >> prec) + abs(c)
        max_rel = max(max_rel, Fraction(math.isqrt(fr * fr + fi * fi) + 1, scale))
        near_axis = abs(ui) << bits <= (one + size) << AGREEMENT_MARGIN_BITS
        if near_axis and abs(ui) << (bits // 2 + 2) < one:
            u = mp.make_mpc((u._mpc_[0], fzero))
        values.append(mp.nstr(u, 30))

    min_dist2 = min((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 for a, b in combinations(us, 2))
    distinct = min_dist2 > 1 << 2 * (prec - bits // 2)
    # Every rational zero of f must appear among the u_k.
    root_dists = {}
    for r in sorted(rational_roots(f)):
        rf = (r.numerator << prec) // r.denominator
        root_dists[str(r)] = Fraction(
            math.isqrt(min((ur - rf) ** 2 + ui * ui for ur, ui in us)), one
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
