"""High-precision numeric validation of reduction results.

Expression trees are evaluated with real square and odd p-th roots, all
taken from one integer floor-root kernel (`exactnum.integer_nth_root`, and
`math.isqrt` for square roots) applied to the shifted mantissa.
Error control is by dual-precision agreement: every published value is
computed once at B and once at 2B bits, and one gate accepts the pair only if
they agree to 2^-(B - 16) relative to the 2B value; disagreement raises,
never passes silently.  Branch residuals and signs are read off the same two
values.

The root-map check computes one complex zero y of Z^p - (d + sqrt(R)), forms
the p scaled conjugate sums u_k = z^((p-1)/2) (y zeta^k + y' zeta^-k) with a
primitive p-th root of unity zeta, and confirms they are p distinct zeros of
the trace polynomial.  When d < 0 < R the sum d + sqrt(R) would cancel, so it
is taken in the norm form D / (d - sqrt(R)), equal to it because
(d + sqrt(R))(d - sqrt(R)) = D, whose denominator adds two terms of one sign.
zeta itself is computed two independent ways (Newton on w^p - 1 at doubling
precision versus high-precision cosine/sine) and cross-checked.
"""

from __future__ import annotations

import math
from fractions import Fraction

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


def _check_agreement(low, high, bits: int) -> None:
    """The dual-precision gate: raise PrecisionError unless the values computed
    at `bits` and `2*bits` agree to 2^-(bits - 16) * (1 + |high|)."""
    with mp.workprec(2 * bits + _GUARD):
        tol = mpf(2) ** (-(bits - AGREEMENT_MARGIN_BITS)) * (1 + abs(high))
        if abs(low - high) > tol:
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

    zeta is complex, so unlike the real roots it does not come from the one
    integer floor-root kernel.  Newton on w^p - 1 from a 53-bit seed runs at
    doubling precision, then at full precision until the step converges,
    versus cosine/sine at full precision.  Raises PrecisionError if they
    disagree beyond 2^-(bits-16).
    """
    with mp.workprec(bits + _GUARD):
        with mp.workprec(53):
            angle = 2 * mp.pi / p
            w = mpc(mp.cos(angle), mp.sin(angle))
        # Each step doubles the correct bits, so it runs at about twice the
        # precision its input is good to.
        rungs = [mp.prec]
        while rungs[-1] > 128:
            rungs.append(rungs[-1] // 2 + 8)
        eps = mpf(2) ** (-(mp.prec - 8))
        for prec in rungs[:0:-1] + [mp.prec] * 64:
            with mp.workprec(prec):
                power = w ** (p - 1)
                step = (power * w - 1) / (p * power)
                w = w - step
            if prec == mp.prec and abs(step) <= abs(w) * eps:
                break
        if abs(w**p - 1) > mpf(2) ** (-(mp.prec - 16)):
            raise PrecisionError("root-of-unity Newton iteration failed to converge")
        angle = 2 * mp.pi / p
        series = mpc(mp.cos(angle), mp.sin(angle))
        diff = abs(w - series)
        if diff > mpf(2) ** (-(bits - AGREEMENT_MARGIN_BITS)):
            raise PrecisionError(
                f"root-of-unity routes disagree by {diff} at {bits} bits"
            )
    return w, series, mpf_to_fraction(diff)


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

    Relative residual tolerance defaults to 2^-(bits - 56); the residual is
    scaled by sum_i |c_i| max(1, |u|)^i.  Limited to p <= ROOT_MAP_MAX_P:
    the check is O(p^2) at high precision.
    """
    if p > ROOT_MAP_MAX_P:
        raise ValueError(f"p = {p} exceeds ROOT_MAP_MAX_P = {ROOT_MAP_MAX_P}")
    params = InstanceParams.create(p, d, R)
    f = trace_poly(params)
    tol_e = tolerance_exp(bits, tol_exp)

    u_low = _root_map_once(params, bits)
    u_high = _root_map_once(params, 2 * bits)
    for lo, hi in zip(u_low, u_high):
        _check_agreement(lo, hi, bits)

    with mp.workprec(2 * bits + _GUARD):
        tol = mpf(2) ** (-tol_e)
        f_num = f.map(_from_fraction)
        abs_coeffs = [abs(c) for c in f_num.coeffs]
        max_rel = mpf(0)
        for u in u_high:
            mag = max(mpf(1), abs(u))
            scale = mpf(0)
            for c in reversed(abs_coeffs):
                scale = scale * mag + c
            rel = abs(f_num.evaluate(u)) / scale
            max_rel = max(max_rel, rel)

        diffs = (u_high[i] - u_high[j] for i in range(p) for j in range(i + 1, p))
        min_dist = mp.sqrt(min(w.real * w.real + w.imag * w.imag for w in diffs))
        distinct = min_dist > mpf(2) ** (-(bits // 2))
        value_strs = [mp.nstr(u, 30) for u in u_high]
        # Every rational zero of f must appear among the u_k.
        root_dists = {
            str(r): mpf_to_fraction(
                min(abs(u - _from_fraction(r)) for u in u_high)
            )
            for r in sorted(rational_roots(f))
        }

    return {
        "p": p,
        "values": value_strs,
        "max_relative_residual": mpf_to_fraction(max_rel),
        "tolerance": Fraction(1, 2**tol_e),
        "min_pairwise_distance": mpf_to_fraction(min_dist),
        "distinct": bool(distinct),
        "rational_root_distances": root_dists,
        "ok": bool(distinct and max_rel < tol),
    }
