#!/usr/bin/env python3
"""The coefficient families and their recurrence certificates, at p = 11.

All five families are integers given by binomial closed forms.  The even
coefficients of the squared sqrt-part polynomial (s_k) and of the product
f*f' (t_k) collapse to the same closed form u_k, which satisfies a two-term
recurrence; t_k additionally satisfies a three-term recurrence.  These are
the certified facts that prove the fundamental identity degreewise.
"""

from radreduce.coeffs import conv_s, conv_t, family, s_recurrence_coeffs

p = 11
values = {tag: [str(v) for v in family(p, tag)[1]] for tag in ("c", "a", "cprime", "C")}

print(f"p = {p}")
print(f"trace polynomial odd coefficients c_(2k+1):  {values['c']}")
print(f"sqrt-part even coefficients a_(2k):          {values['a']}")
print(f"cofactor odd coefficients c'_(2j+1):         {values['cprime']}")
print(f"expansion coefficients C_p..C_1 (system):    {values['C']}")
print()

print(" k   s_k = t_k = u_k")
for k, u in zip(*family(p, "u")):
    s = conv_s(p, k)
    t = conv_t(p, k) if k >= 2 else None
    tag = "" if (s == u and (t is None or t == u)) else "   MISMATCH"
    print(f"{k:2d}   {s}{tag}")

print()
print("two-term recurrence (4k^2+6k+2) s_(k+1) + (p^2 - 2p + 1 - k^2) s_k = 0:")
for k in range(1, 4):
    ca, cb = s_recurrence_coeffs(p, k)
    total = ca * conv_s(p, k + 1) + cb * conv_s(p, k)
    print(f"  k = {k}: {ca} * {conv_s(p, k + 1)} + {cb} * {conv_s(p, k)} = {total}")
