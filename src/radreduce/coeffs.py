"""Closed-form coefficient families of the reduction polynomials.

For odd p >= 3 and h = (p-1)/2, the trace polynomial f, the sqrt-part
polynomial A and the cofactor polynomial f' of the fundamental identity
4*D^2*A^2*R = f*f' + Z^2 - 4*D are Dickson polynomials D_n(Z, D) plus a
d-term (Lidl, Mullen and Turnwald, *Dickson Polynomials*, 1993): f is
D_p - 2 d D^h, and the cleared numerators of A and f' are
(-1)^h (D_{p-1} - d D^(h-1) Z) and D_{p-2} - 2 d D^(h-1).  `dickson` states
the coefficient of D_n once, and `family(p, tag)` states each family as
(indices, values), the rows that `radreduce coeffs --family tag` prints:

* c_{2k+1} ("c")      - odd-degree coefficients of f, from D_p
* a_{2k}   ("a")      - even-degree coefficients of A (cleared), from D_{p-1}
* c'_{2j+1} ("cprime") - odd-degree coefficients of f', from D_{p-2}
* C_{p-2k} ("C")      - coefficients of the expansion of X^p + 1 in the
                         basis X^k (X+1)^(p-2k), solved from their triangular
                         system as the digits of (1+X)^-p in powers of
                         X/(1+X)^2: c again, by another route
* u_k      ("u")      - closed form of both convolution sums s_k, t_k, from
                         D_{2p-2}

All values are ``int``; the division in the Dickson term is checked to leave
no remainder.
"""

from __future__ import annotations

from math import comb

from .exactnum import check_p


def binom(m: int, n: int) -> int:
    """Binomial coefficient with the extended convention: 0 for n < 0 or n > m."""
    if n < 0 or n > m:
        return 0
    return comb(m, n)


def dickson(n: int, j: int) -> int:
    """(-1)^j (n/(n-j)) binom(n-j, j), the coefficient of D^j Z^(n-2j) in the
    Dickson polynomial D_n(Z, D), for n >= 1; 0 outside 0 <= 2j <= n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if j < 0 or 2 * j > n:
        return 0
    q, r = divmod(n * comb(n - j, j), n - j)
    if r:
        raise ArithmeticError(f"closed form {n}*binom({n - j}, {j})/{n - j} is not an integer")
    return -q if j % 2 else q


def system_C(p: int) -> list[int]:
    """Expansion coefficients [C_p, C_{p-2}, ..., C_1] of X^p + 1 over the
    basis X^k (X+1)^(p-2k), solved from the system by radix conversion.

    Write c_k = C_{p-2k} and h = (p-1)/2.  The rows j <= h of the system say
    sum_k c_k X^k (1+X)^(p-2k) = 1 mod X^(h+1).  Dividing by the unit (1+X)^p
    gives sum_k c_k T^k = (1+X)^-p with T = X/(1+X)^2, and since T is X times a
    unit the c_k are the unique digits of (1+X)^-p in powers of T:
    c_k = U_k(0), with U_0 = (1+X)^-p and U_{k+1} = (U_k - c_k) (1+X)^2 / X.

    Each series is packed as one integer at X = 2^n, n = p + 2, starting from
    the binomials (-1)^i binom(p-1+i, i) of U_0 (c_0 = 1 is its constant
    term).  A step is three shifts, two additions and a mask to the n (h-k)
    bits still read; carries move only upward, so every step is exact modulo
    that power of 2, and the signed low n bits are c_k whenever |c_k| < 2^(n-1).
    They are: Lagrange inversion gives c_k = [T^k] (1+X)^-p
    = -(p/k) [X^(k-1)] (1+X)^(2k-p-1) = dickson(p, k), and the |dickson(p, k)|
    sum to the Lucas number D_p(1, -1) = L_p < 2^p.  The system has one
    solution, so `identity.verify_expansion`, which rebuilds X^p + 1 from
    these values with its own slot width, would catch a misread digit.
    """
    check_p(p)
    h, n = (p - 1) // 2, p + 2
    half = 1 << (n - 1)
    full = 2 * half - 1
    b = -p
    v = b << n  # U_0 - c_0
    for i in range(2, h + 1):
        b = -b * (p + i - 1) // i
        v += b << n * i
    out = [1]
    mask = (1 << n * h) - 1
    for _ in range(h):
        u = ((v >> n) + (v << 1) + (v << n)) & mask  # v (1+X)^2 / X
        c = ((u & full) ^ half) - half
        out.append(c)
        v = u - c
        mask >>= n
    return out


def family(p: int, tag: str) -> tuple[list[int], list[int]]:
    """The coefficient family `tag` at p as (indices, values), in the order
    `radreduce coeffs --family tag` prints them.

    For "c", "a" and "cprime" the indices are the Z-exponents e of D_n of n's
    parity, ascending, and the values sign * dickson(n, (n - e) // 2), for
    (n, sign) = (p, 1), (p - 1, (-1)^h) and (p - 2, 1), h = (p-1)/2.  For "C"
    they are p, p-2, ..., 1 and `system_C(p)`; for "u", k = 1, ..., p-1 and
    u_k = ((-1)^k (p-1) / k) * binom(p+k-2, 2k-1), the coefficient of
    D^(p-1-k) Z^(2k) in D_{2p-2}.
    """
    check_p(p)
    if tag == "C":
        return list(range(p, 0, -2)), system_C(p)
    if tag == "u":
        indices = list(range(1, p))
        return indices, [dickson(2 * p - 2, p - 1 - k) for k in indices]
    dickson_rows = {"c": (p, 1), "a": (p - 1, (-1) ** ((p - 1) // 2)), "cprime": (p - 2, 1)}
    if tag not in dickson_rows:
        raise ValueError(f"unknown coefficient family {tag!r}")
    n, sign = dickson_rows[tag]
    indices = list(range(n % 2, n + 1, 2))
    return indices, [sign * dickson(n, (n - e) // 2) for e in indices]


def conv_s(p: int, k: int) -> int:
    """s_k = sum_j a_{2j} * a_{2(k-j)}: the even-coefficient convolution of the
    sqrt-part polynomial with itself, over the j where both factors exist."""
    a = family(p, "a")[1]
    if not 1 <= k <= p - 1:
        raise ValueError(f"k must satisfy 1 <= k <= p-1, got k={k}, p={p}")
    h = (p - 1) // 2
    return sum(a[j] * a[k - j] for j in range(max(0, k - h), min(k, h) + 1))


def conv_t(p: int, k: int) -> int:
    """t_k = sum_j c_{2j+1} * c'_{2(k-j-1)+1}: the even-coefficient convolution
    of the trace polynomial with the cofactor polynomial, over the j where both
    factors exist."""
    c, cp = family(p, "c")[1], family(p, "cprime")[1]
    if not 2 <= k <= p - 1:
        raise ValueError(f"k must satisfy 2 <= k <= p-1, got k={k}, p={p}")
    h = (p - 1) // 2
    return sum(c[j] * cp[k - 1 - j] for j in range(max(0, k - h), min(k - 1, h) + 1))


def vanishing_sum(p: int, j: int) -> int:
    """The alternating binomial sum that the expansion coefficients satisfy:

        sum_{k=0}^{j} (-1)^k (p/(p-k)) binom(p-k, k) binom(p-2k, j-k)

    equals 1 for j = 0 and vanishes for 1 <= j <= (p-1)/2.
    """
    check_p(p)
    if j < 0 or j > (p - 1) // 2:
        raise ValueError(f"j must satisfy 0 <= j <= (p-1)/2, got j={j}, p={p}")
    return sum(dickson(p, k) * binom(p - 2 * k, j - k) for k in range(j + 1))


# Recurrence certificates.  Both convolution families satisfy linear
# recurrences with these polynomial coefficients in (p, k).


def s_recurrence_coeffs(p: int, k: int) -> tuple[int, int]:
    """(A, B) with A*s_{k+1} + B*s_k = 0 for 1 <= k <= p-2."""
    return 4 * k * k + 6 * k + 2, -k * k - 2 * p + 1 + p * p


def t_recurrence_coeffs(p: int, k: int) -> tuple[int, int, int]:
    """(a, b, c) with a*t_{k+2} + b*t_{k+1} + c*t_k = 0 for 2 <= k <= p-3."""
    a = 16 * k**3 + 64 * k**2 + 76 * k + 24
    b = -8 * k**3 - 12 * k**2 - 8 * p * k + 4 * p * p * k + 2 * p * p - 4 * p + 2
    c = k**3 - k**2 - p * p * k + 2 * p * k - k + p * p - 2 * p + 1
    return a, b, c
