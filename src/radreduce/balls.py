"""Certified integer ball arithmetic (midpoint-radius intervals; Johansson,
"Arb: efficient arbitrary-precision midpoint-radius interval arithmetic",
IEEE Trans. Computers 66(8), 2017), and on it the root of unity and the root
map of the trace polynomial.  Imports only the standard library and `exactnum`.

A ball (m, r, e), r >= 0, is the interval [(m - r) 2^e, (m + r) 2^e].
Midpoints keep P = bits + 32 bits; each radius rule covers every value the
operands allow (x within r of m, y within s of n, in units of 2^e):
* leaf q: m = floor(q 2^-e), r = 1 unless exact, as 0 <= q 2^-e - m < 1.
* truncation by 2^k: m = m' 2^k + t, 0 <= t < 2^k, so |x - m' 2^k| <= r + t
  and r' = ceil((r + t) / 2^k).  Add is exact on aligned exponents (radii add).
* mul: xy - mn = m (y - n) + n (x - m) + (x - m)(y - n): |m| s + |n| r + r s.
* integer power: square-and-multiply (`exactnum.power`); a negative exponent
  takes the reciprocal, |1/x - 1/m| = |x - m| / (|x| |m|) <= r / (|m| (|m| - r))
  for |m| > r, plus 1 for the floor of 2^k / m unless it is exact.
* square and odd real root (M = |m| > r; odd roots carry the sign): the floor
  root of M shifted to n P bits, by `math.isqrt` or `exactnum.integer_nth_root`,
  with radius ceil(r hi / (n (M - r))) + 1 for hi = floor root + 1, since
  |x^(1/n) - M^(1/n)| = |x - M| c^(1/n - 1) / n for some c >= M - r, and
  c^(1/n - 1) <= (M - r)^(1/n) / (M - r) <= hi / (M - r); the 1 is the floor.

The root map gives the p zeros of the trace polynomial as u_k = w_k + D/w_k,
w_k = z^h y zeta^k, so that w_k^p = beta = D^h (d + sqrt(R)), h = (p-1)/2, for
the principal p-th root y of d + sqrt(R), the real p-th root z of D and
zeta = e^(2 pi i/p); each u_k is a Gaussian ball (re, im, r) at scale 2^(B + 32),
the disk of radius r about re + i im.
If R > 0, w_k = w zeta^k' for the real ball root w of beta (taken as
D^(h+1) / (d - sqrt(R)) when d < 0, where d + sqrt(R) cancels), with k' = k,
or k + h + 1 when d + sqrt(R) < 0 and y is its real root times zeta^(h+1):
u_k = (w + D/w) cos(2 pi k'/p) + i (w - D/w) sin(2 pi k'/p), real exactly at
k' = 0.  If R < 0, then D > 0 and d + i sqrt(-R) = sqrt(D) v with |v| = 1, so
w_k = sqrt(D) e zeta^k for the principal root e of w^p - v, found by Newton,
and every u_k = w_k + conj(w_k) is real.  zeta is the Newton root of w^p - 1.
Two more radius rules:
* Gaussian mul: the mul rule with |m| <= isqrt(re^2 + im^2) + 1, plus 1 for
  each part's floor.  A part of a Gaussian ball is a real ball of the same
  radius, as |Re z|, |Im z| <= |z|.
* root location: a degree-p polynomial F has a zero within p |F(w)| / |F'(w)|
  of any w, as |F'/F| = |sum_i 1/(w - r_i)| <= p / min_i |w - r_i|.  For
  F = x^p - v, v within r_v of its midpoint, and t the floored w^p, within E
  of it: rho = (|t - v| + E + r_v) / |w|^(p-1).  When |v| = 1 the zeros are
  2 sin(pi/p) apart, so a disk of radius below sin(pi/p) holds exactly one;
  2^-9 < sin(pi/1001) (about 2^-8.32), so below 2^-9 it does for p <= 1001.
Which zero a Newton ball holds is decided from the balls of its powers:
* zeta: the ball holds one zero w = e^(2 pi i j/p), 0 <= j < p, and the power
  balls hold w^k.  Im zeta - r > 0 gives 1 <= j < p/2.  If g = gcd(j, p) > 1,
  k = p/g is in [2, p - 2] and Re w^k = 1; if g = 1 and j > 1, k = j^-1 mod p
  is in [2, p - 2] and Re w^k = cos(2 pi/p) >= Re w.  Both contradict
  Re zeta - r > Re zeta^k + r_k for 2 <= k <= p - 2, so j = 1.  For p = 3
  that range is empty, and Im > 0 alone decides.
* e: the principal root has argument theta/p with |theta| < pi (theta = pi
  would need v = -1, that is d^2 = D, so R = 0).  Every other e zeta^k has
  |argument| > pi/p, so a smaller real part: Re e - r > Re(e zeta^k) + r_k
  for 1 <= k <= p - 1 decides e.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exactnum import DEFAULT_BITS, PrecisionError, integer_nth_root, power

_GUARD = 32


class EvalDomainError(ValueError):
    """Even root of a negative real requested in real mode."""


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
    """a^n for n >= 0, by `exactnum.power`."""
    return power(a, n, lambda x, y: _mul(x, y, prec), (1, 0, 0))


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


def _shift(n: int, s: int) -> int:
    """floor(n 2^s)."""
    return n << s if s >= 0 else n >> -s


def _gauss(x, y, q: int) -> tuple[int, int, int]:
    """The Gaussian ball x + iy at scale 2^q for real balls x and y: each part
    floored, and the radii rounded up plus one unit each for the floors."""
    (a, ra, ea), (b, rb, eb) = x, y
    return _shift(a, ea + q), _shift(b, eb + q), 2 - _shift(-ra, ea + q) - _shift(-rb, eb + q)


def _gmul(x, y, q: int) -> tuple[int, int, int]:
    """Product of Gaussian balls (re, im, r) at scale 2^q."""
    (a, b, r), (c, d, s) = x, y
    spread = (math.isqrt(a * a + b * b) + 1) * s + (math.isqrt(c * c + d * d) + 1) * r + r * s
    # One unit for rounding the radius up, and one for each part's floor.
    return (a * c - b * d) >> q, (a * d + b * c) >> q, (spread >> q) + 3


def _gpow(x, n: int, q: int) -> tuple[int, int, int]:
    """x^n for n >= 0, by `exactnum.power`."""
    return power(x, n, lambda a, b: _gmul(a, b, q), (1 << q, 0, 0))


def _newton_powers(w: tuple[int, int], p: int, q: int):
    """The Gaussian balls of w^(p-1) and w^p for w = (re, im) at scale 2^q."""
    below = _gpow((*w, 0), p - 1, q)
    return below, _gmul(below, (*w, 0), q)


def _root_ball(w: tuple[int, int], v, p: int, q: int) -> tuple[int, int, int]:
    """w = (re, im) at scale 2^q with the radius rho of the module docstring:
    a zero of x^p - v lies within rho of w, for v a Gaussian ball at scale 2^q."""
    below, top = _newton_powers(w, p, q)
    defect = math.isqrt((top[0] - v[0]) ** 2 + (top[1] - v[1]) ** 2) + 1 + top[2] + v[2]
    low = math.isqrt(below[0] ** 2 + below[1] ** 2) - below[2]
    if low <= 0:
        raise PrecisionError(f"|w^{p - 1}| undecided at {q} bits")
    return (*w, -(-(defect << q) // low))


def _unit_root(v, p: int, prec: int, angle: float) -> tuple[int, int, int]:
    """The zero of w^p - v nearest e^(i angle), for a Gaussian ball v about
    the unit circle, as a Gaussian ball at scale 2^prec: Newton from a 53-bit
    seed by stdlib `math.cos`/`math.sin`, one step per rung of a doubling
    precision ladder, then at full precision until the step converges; the
    radius by `_root_ball`.  PrecisionError unless the radius is below 2^-9."""
    q = min(53, prec)
    w = (round(math.cos(angle) * 2**q), round(math.sin(angle) * 2**q))
    # Each step doubles the correct bits, so it runs at about twice the
    # precision its input is good to.
    rungs = [prec]
    while rungs[-1] > 128:
        rungs.append(rungs[-1] // 2 + 8)
    for rung in rungs[:0:-1] + [prec] * 64:
        w, q = (w[0] << rung - q, w[1] << rung - q), rung
        below, top = _newton_powers(w, p, q)
        num_re, num_im = top[0] - (v[0] >> prec - q), top[1] - (v[1] >> prec - q)
        den = p * (below[0] ** 2 + below[1] ** 2)
        # (w^p - v) / (p w^(p-1)), multiplied through by conj(w^(p-1)).
        sr = ((num_re * below[0] + num_im * below[1]) << q) // den
        si = ((num_im * below[0] - num_re * below[1]) << q) // den
        w = (w[0] - sr, w[1] - si)
        if q == prec and (sr * sr + si * si) << 2 * (prec - 8) <= w[0] ** 2 + w[1] ** 2:
            break
    ball = _root_ball(w, v, p, prec)
    if ball[2] >> (prec - 9):
        raise PrecisionError(f"Newton iteration on w^{p} - v failed to converge")
    return ball


def _check_real_max(x, rivals, ks, claim: str, p: int, bits: int) -> None:
    """Raise PrecisionError, stating `claim` for the first k in ks that fails,
    unless Re x - r > Re rivals[k] + r_k: the rule of the module docstring."""
    for k in ks:
        if x[0] - x[2] <= rivals[k][0] + rivals[k][2]:
            raise PrecisionError(f"{claim.format(k=k)} undecided for p = {p} at {bits} bits")


@lru_cache(maxsize=16)
def zeta_two_ways(p: int, bits: int = DEFAULT_BITS):
    """(zeta, powers): e^(2 pi i/p) at scale 2^(bits + 32) as a Gaussian ball
    (re, im, r), by `_unit_root` on w^p - 1, and the tuple of its powers
    zeta^0 .. zeta^(p-1) by `_gmul`.  Raises PrecisionError, naming the power,
    unless the balls decide that zeta is e^(2 pi i/p) (module docstring)."""
    prec = bits + _GUARD
    zeta, powers = _unit_root((1 << prec, 0, 0), p, prec, 2 * math.pi / p), [(1 << prec, 0, 0)]
    for _ in range(p - 1):
        powers.append(_gmul(powers[-1], zeta, prec))
    if zeta[1] <= zeta[2]:
        raise PrecisionError(f"Im zeta^1 > 0 undecided for p = {p} at {bits} bits")
    _check_real_max(zeta, powers, range(2, p - 1), "Re zeta^1 > Re zeta^{k}", p, bits)
    return zeta, tuple(powers)


def _root_map_once(p: int, d: Fraction, R: Fraction, D: Fraction, bits: int, powers):
    """The p values u_k = w_k + D / w_k of the module docstring, as Gaussian
    balls (re, im, r) at scale 2^(bits + 32), for D = d^2 - R and the powers
    of zeta that `zeta_two_ways(p, bits)` returns."""
    prec = bits + _GUARD
    if R < 0:
        # u_k = 2 sqrt(D) Re(e zeta^k) for e^p = v = (d + i sqrt(-R)) / sqrt(D).
        m, r, ex = root = _root(_leaf(D, prec), 2, prec)
        v_re = _mul(_leaf(d, prec), _inv(root, prec), prec)
        v = _gauss(v_re, _root(_leaf(-R / D, prec), 2, prec), prec)
        e = _unit_root(v, p, prec, math.atan2(v[1] / (1 << prec), v[0] / (1 << prec)) / p)
        rotated = [_gmul(e, zk, prec) for zk in powers]
        _check_real_max(e, rotated, range(1, p), "Re e > Re e zeta^{k}", p, bits)
        # The radius of e zeta^k bounds the error of its real part.
        two_root = (m, r, ex + 1)
        return [_gauss(_mul(two_root, (g[0], g[2], -prec), prec), (0, 0, 0), prec) for g in rotated]
    h, root = (p - 1) // 2, _root(_leaf(R, prec), 2, prec)
    if d < 0:
        # beta = D^h D / (d - sqrt(R)): no cancellation.
        den = _inv(_add(_leaf(d, prec), (-root[0], root[1], root[2]), prec), prec)
        beta = _mul(_leaf(D ** (h + 1), prec), den, prec)
    else:
        beta = _mul(_leaf(D**h, prec), _add(_leaf(d, prec), root, prec), prec)
    w = _root(beta, p, prec)
    m, r, e = _mul(_leaf(D, prec), _inv(w, prec), prec)
    re, im = _add(w, (m, r, e), prec), _add(w, (-m, r, e), prec)
    k0 = h + 1 if d < 0 < D else 0  # d + sqrt(R) < 0: k' = k + h + 1
    rotated = powers[k0:] + powers[:k0]
    # The radius of zeta^k' bounds the error of each of its parts.
    return [
        _gauss(_mul(re, (c, rz, -prec), prec), _mul(im, (s, rz, -prec), prec), prec)
        for c, s, rz in rotated
    ]
