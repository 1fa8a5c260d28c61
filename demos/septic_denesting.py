#!/usr/bin/env python3
"""Build a denestable 7th-root instance from scratch and verify it numerically.

Prescribing the norm D = -2 and the trace-polynomial zero u = 4 determines
d = -2158 and R = d^2 - D = 6 * 881^2.  The radical

    y = (-2158 + 881*sqrt(6))^(1/7)

then denests: both branches are 2^(4/7) * (-1 +- sqrt(6)/2).  The residual
|(v^7 - d)^2 - R| measures how exactly a branch value v satisfies the
defining equation; its certified upper bound, read off one integer enclosure
of each branch at 256 working bits, sits far below 2^-200.
"""

from radreduce import construct_example, reduce_radical
from radreduce.numeric import branch_residuals, decimal_str, eval_dual
from mpmath import mp

params, g = construct_example(7, -2, 4)
print(f"constructed instance: d = {params.d}, R = {params.R} = 6*881^2")
print(f"defining polynomial g = {g}")
print()

r = reduce_radical(params.p, params.d, params.R)
print(f"rational zero of the trace polynomial: u = {r.u}")
print(f"z is {r.z_description}")
print()
print("branches y_pm = z^4 * (u/(2D) +- A(u) sqrt(R)):")
for branch in r.branches:
    value = eval_dual(branch, 256)
    with mp.workprec(60):
        print(f"  {branch}  ~=  {mp.nstr(value, 20)}")
print()

res = branch_residuals(r, bits=256)
bound = decimal_str(res["max_residual"])
print(f"max residual |(v^7 - d)^2 - R| at 256 bits, certified bound: {bound}")
print(f"one branch matches +sqrt(R), the other -sqrt(R): {res['branch_signs_consistent']}")
print()
print("equivalent quadratic-equation form y_pm = (u +- sqrt(u^2 - 4D)) / (2 z^3):")
qf = r.quadratic_form
print(f"  u = {qf.u}, discriminant u^2 - 4D = {qf.discriminant}")
