#!/usr/bin/env python3
"""Tour of the symbolic identity checks behind the reduction.

Two structural identities make the whole construction work, and both are
verified by exact coefficient comparison for any odd p:

* the expansion X^p + 1 = sum_k C_{p-2k} X^k (X+1)^(p-2k), whose
  coefficients come out of a triangular linear system *and* a binomial
  closed form;
* the fundamental identity 4 D^2 A^2 R = f*f' + Z^2 - 4D in Q[d, D][Z],
  which is what makes the two branch formulas land on zeros of the
  defining polynomial.

Corrupting any single coefficient must break the check, and the report
names the first offending monomial.
"""

from radreduce import verify_expansion, verify_fundamental_identity, verify_recurrences
from radreduce.construct import trace_poly_symbolic
from radreduce.identity import fundamental_identity_sides
from radreduce.poly import ParamPoly, Poly

for p in (3, 5, 7, 11, 21):
    e = verify_expansion(p)
    f = verify_fundamental_identity(p)
    line = f"p = {p:3d}: expansion {'ok' if e.ok else 'FAIL'}, fundamental identity {'ok' if f.ok else 'FAIL'}"
    if p >= 5:
        r = verify_recurrences(p)
        line += f", recurrences {'ok' if r.ok else 'FAIL'}"
    print(line)

print()
print("sabotage: add 1 to the Z^2 coefficient of the symbolic trace polynomial (p = 5)")
broken = list(trace_poly_symbolic(5).coeffs)
broken[2] = broken[2] + ParamPoly.const(1)
report = verify_fundamental_identity(5, trace=Poly(broken))
for check in report.checks:
    status = "ok" if check.passed else f"FAIL ({check.witness})"
    print(f"  {check.name}: {status}")

print()
# The sides are flat maps {(z, deg_d, deg_D): coefficient} with no zero entries.
lhs, rhs = fundamental_identity_sides(5)
print(f"for the record, both sides have degree {max(z for z, _, _ in lhs)} = 2p - 2 in Z")
print(f"and agree coefficient-by-coefficient: {lhs == rhs}")
