"""High-precision numeric validation of reduction results.

Expression trees are evaluated with real square and odd p-th roots, all
taken from one integer floor-root kernel (`exactnum.integer_nth_root`, and
`math.isqrt` for square roots) applied to the shifted mantissa.
Error control is by dual-precision agreement: every published value is
computed once at B and once at 2B bits, and one gate accepts the pair only if
they agree to 2^-(B - 16) relative to the 2B value; disagreement raises,
never passes silently.  The gate compares real and complex values alike as
(re, im) integer pairs at the fixed scale 2^(2B + 32).  Branch residuals and
signs are read off the same two values.

The root-map check computes one complex zero y of Z^p - (d + sqrt(R)), forms
the p scaled conjugate sums u_k = z^((p-1)/2) (y zeta^k + y' zeta^-k) with a
primitive p-th root of unity zeta, and confirms they are p distinct zeros of
the trace polynomial.  When d < 0 < R the sum d + sqrt(R) would cancel, so it
is taken in the norm form D / (d - sqrt(R)), equal to it because
(d + sqrt(R))(d - sqrt(R)) = D, whose denominator adds two terms of one sign.
zeta itself is computed two independent ways (Newton on w^p - 1 at doubling
precision, in Gaussian fixed point, versus mpmath cosine/sine) and
cross-checked.  mpmath forms the u_k, keeping relative precision where y and
y' differ by hundreds of bits; the checks on them run in Gaussian fixed point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from mpmath import mp, mpc, mpf

from . import exprtree as et
from .construct import InstanceParams, trace_poly
from .exactnum import DEFAULT_BITS, PrecisionError, integer_nth_root, tolerance_exp
from .poly import rational_roots

# Dual-precision agreement margin: B and 2B runs must agree to 2^-(B - 16).
AGREEMENT_MARGIN_BITS = 16
_GUARD = 32
# Largest p that verify_root_map accepts.
ROOT_MAP_MAX_P = 13


class EvalDomainError(ValueError):
    """Even root of a negative real requested in real mode."""


def decimal_str(q: Fraction, digits: int = 20) -> str:
    """Short decimal rendering of an exact bound, for human-facing output."""
    with mp.workprec(max(64, digits * 4)):
        return mp.nstr(_from_fraction(q), digits)


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a finite mpf (every mpf is dyadic)."""
    if isinstance(x, mpc):
        raise ValueError("complex value has no rational magnitude; take abs first")
    if not mp.isfinite(x):
        raise ValueError(f"non-finite value {x}")
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def _from_fraction(q: Fraction):
    return mpf(q.numerator) / mpf(q.denominator)


def _real_root(x, n: int):
    """Real n-th root of x (n = 2, or odd n >= 3) at the ambient precision,
    from the one integer floor-root kernel: the floor root of the mantissa
    shifted to n * (prec + 2) bits or more, by a shift congruent to the
    exponent mod n, rounded to nearest.  Odd n takes x < 0 by sign symmetry;
    n = 2 rejects it."""
    if x == 0:
        return mpf(0)
    negative = x < 0
    if negative and n == 2:
        raise EvalDomainError("square root of a negative real in real mode")
    ax = -x if negative else x
    _, man, exp, bc = ax._mpf_
    need = max(0, n * (mp.prec + 2) - bc)
    shift = need + (exp - need) % n
    big = man << shift
    root = math.isqrt(big) if n == 2 else integer_nth_root(big, n)[0]
    r = mpf((root, (exp - shift) // n))
    if abs(r**n - ax) > abs(ax) * mpf(2) ** (-(mp.prec - 16)):
        raise PrecisionError(f"degree-{n} root residual above 2^-{mp.prec - 16}")
    return -r if negative else r


def _eval(node: et.Expr):
    if isinstance(node, et.Rat):
        return _from_fraction(node.value)
    if isinstance(node, et.Sqrt):
        return _real_root(_eval(node.arg), 2)
    if isinstance(node, et.NthRoot):
        return _real_root(_eval(node.arg), node.degree)
    if isinstance(node, et.Add):
        total = mpf(0)
        for term in node.terms:
            total += _eval(term)
        return total
    if isinstance(node, et.Mul):
        prod = mpf(1)
        for factor in node.factors:
            prod *= _eval(factor)
        return prod
    if isinstance(node, et.Pow):
        base = _eval(node.base)
        if node.exponent < 0:
            if base == 0:
                raise ZeroDivisionError("zero base with negative exponent")
            return 1 / base ** (-node.exponent)
        return base**node.exponent
    raise TypeError(f"unknown expression node: {node!r}")


def eval_expression(tree: et.Expr, bits: int = DEFAULT_BITS):
    """Evaluate at `bits` working precision (single pass, no dual check)."""
    with mp.workprec(bits + _GUARD):
        return _eval(tree)


def _fixed(x, prec: int) -> tuple[int, int]:
    """(re, im) of a finite mpf or mpc as floor(x 2^prec) integers, read off
    the mantissas and exponents with no mpmath arithmetic."""
    parts = x._mpc_ if isinstance(x, mpc) else (x._mpf_, (0, 0, 0, 0))
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
    """Evaluate at bits and 2*bits; raise PrecisionError on disagreement.

    Returns the value computed at `bits`.
    """
    low = eval_expression(tree, bits)
    _check_agreement(low, eval_expression(tree, 2 * bits), bits)
    return low


def branch_residuals(result, bits: int = DEFAULT_BITS) -> dict:
    """Residuals |(v^p - d)^2 - R| for both reduction branches.

    Each branch value v is evaluated once at `bits` and once at `2*bits`, and
    the pair must pass the agreement gate.  The residual and the sign of
    v^p - d are taken at both precisions from those same values; the larger
    residual is reported, and the sign must not change.  Also verifies that
    one branch has v^p - d matching +sqrt(R) and the other -sqrt(R).
    """
    if result.branches is None:
        raise ValueError("no branch expressions: u is irrational for this instance")
    params = result.params
    residuals = []
    signs = []
    for tree in result.branches:
        low = eval_expression(tree, bits)
        high = eval_expression(tree, 2 * bits)
        _check_agreement(low, high, bits)
        resids, branch_signs = [], set()
        for v, prec_bits in ((low, bits), (high, 2 * bits)):
            with mp.workprec(prec_bits + _GUARD):
                w = v**params.p - _from_fraction(params.d)
                resids.append(mpf_to_fraction(abs(w * w - _from_fraction(params.R))))
                branch_signs.add(1 if w > 0 else -1)
        if len(branch_signs) != 1:
            raise PrecisionError("branch sign unstable between precisions")
        residuals.append(max(resids))
        signs.append(branch_signs.pop())
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
    p = params.p
    with mp.workprec(bits + _GUARD):
        if params.R > 0:
            sqrtR = _real_root(_from_fraction(params.R), 2)
        else:
            sqrtR = mpc(0, _real_root(_from_fraction(-params.R), 2))
        d = _from_fraction(params.d)
        if d < 0 < params.R:
            # d + sqrt(R) cancels; the norm form D / (d - sqrt(R)) is the same
            # number from two terms of one sign.
            w = _from_fraction(params.D) / (d - sqrtR)
        else:
            w = d + sqrtR
        y = mp.exp(mp.log(mpc(w)) / p)  # principal complex p-th root
        z = _real_root(_from_fraction(params.D), p)
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
    scaled by sum_i |c_i| max(1, |u|)^i.  Limited to p <= ROOT_MAP_MAX_P:
    the check is O(p^2) at high precision.
    """
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
    max_rel = Fraction(0)
    for ur, ui in us:
        mag = max(one, math.isqrt(ur * ur + ui * ui))
        fr, fi, scale = coeffs[-1], 0, abs(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            fr, fi = ((fr * ur - fi * ui) >> prec) + c, (fr * ui + fi * ur) >> prec
            scale = (scale * mag >> prec) + abs(c)
        max_rel = max(max_rel, Fraction(math.isqrt(fr * fr + fi * fi) + 1, scale))

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
        "values": [mp.nstr(u, 30) for u in u_high],
        "max_relative_residual": max_rel,
        "tolerance": tol,
        "min_pairwise_distance": Fraction(math.isqrt(min_dist2), one),
        "distinct": distinct,
        "rational_root_distances": root_dists,
        "ok": distinct and max_rel < tol,
    }
