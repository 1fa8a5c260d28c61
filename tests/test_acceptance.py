"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single pass line (visible with `pytest -s` or -rA); any
assertion failure marks the criterion red.  Exact criteria use zero
tolerance; numeric criteria state their residual bound explicitly.
"""

import time
from fractions import Fraction

from mpmath import mp

from radreduce import exprtree as et
from radreduce.cli import GOLDEN
from radreduce.coeffs import (
    conv_s,
    conv_t,
    family,
    s_recurrence_coeffs,
    t_recurrence_coeffs,
    vanishing_sum,
)
from radreduce.construct import (
    cofactor_symbolic,
    sqrt_part_symbolic,
    trace_poly_symbolic,
)
from radreduce.exactnum import QuadExt
from radreduce.identity import verify_expansion, verify_fundamental_identity
from radreduce.numeric import branch_residuals, eval_dual, verify_root_map
from radreduce.poly import ParamPoly, Poly
from radreduce.reduction import construct_example, euclid_biquadratic, euclid_denest, reduce_radical

F = Fraction

BOUND_200 = F(1, 2**200)
BOUND_180 = F(1, 2**180)


def assert_golden(call, obj):
    """`obj`, the JSON of `call`, holds every field the golden table fixes."""
    fields = GOLDEN[call]
    assert {name: obj[name] for name in fields} == fields


def test_criterion_1_quintic_instance_exact():
    t0 = time.perf_counter()
    r = reduce_radical(5, 2, 5)
    # D, g, f, A, z = -1 and no rational root of f
    assert_golden(("reduce_radical", 5, 2, 5), r.to_json())
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 1 (quintic instance, exact): PASS ({elapsed:.3f}s)")


def test_criterion_2_septic_instance_exact_and_numeric():
    t0 = time.perf_counter()
    r = reduce_radical(7, -2158, 4656966)
    # D, g, u = 4 and irrational z
    assert_golden(("reduce_radical", 7, -2158, 4656966), r.to_json())

    # Branches must equal 2^(4/7) * (-1 +- sqrt(6)/2), built independently.
    targets = [
        et.mul(
            et.Pow(et.NthRoot(et.rat(2), 7), 4),
            et.add(et.rat(-1), et.mul(et.rat(F(sign, 2)), et.Sqrt(et.rat(6)))),
        )
        for sign in (1, -1)
    ]
    with mp.workprec(300):
        got = sorted(eval_dual(b, 256) for b in r.branches)
        want = sorted(eval_dual(t, 256) for t in targets)
        for g_val, w_val in zip(got, want):
            assert abs(g_val - w_val) < mp.mpf(2) ** -200

    res = branch_residuals(r, 256)
    assert res["max_residual"] < BOUND_200
    assert res["branch_signs_consistent"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 2 (septic instance, exact + numeric): PASS ({elapsed:.3f}s)")


def test_criterion_3_construction_reproduction():
    params, _ = construct_example(7, -2, 4)
    assert_golden(("construct_example", 7, -2, 4), {"d": str(params.d), "R": str(params.R)})
    assert params.R == 6 * 881**2
    roundtrip = reduce_radical(params.p, params.d, params.R)
    assert roundtrip.u == 4 and roundtrip.u_roots == (F(4),)
    print("criterion 3 (construction roundtrip, exact): PASS")


def test_criterion_4_fundamental_identity_sweep():
    t0 = time.perf_counter()
    for p in range(3, 62, 2):
        report = verify_fundamental_identity(p)
        assert report.ok, f"p={p}: {[c.witness for c in report.checks if not c.passed]}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 4 (fundamental identity, odd p in [3, 61]): PASS ({elapsed:.1f}s)")


def test_criterion_5_expansion_sweep():
    t0 = time.perf_counter()
    for p in range(3, 200, 2):
        report = verify_expansion(p)
        assert report.ok, f"p={p}: {[c.witness for c in report.checks if not c.passed]}"
        names = [c.name for c in report.checks]
        assert "system-solution-matches-closed-form" in names
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 5 (expansion of X^p + 1, odd p in [3, 199]): PASS ({elapsed:.1f}s)")


def test_criterion_6_hypergeometric_suite():
    t0 = time.perf_counter()
    for p in range(5, 100, 2):
        for j in range(1, (p - 1) // 2 + 1):
            assert vanishing_sum(p, j) == 0
        s = {k: conv_s(p, k) for k in range(1, p)}
        t = {k: conv_t(p, k) for k in range(2, p)}
        u = dict(zip(*family(p, "u")))
        assert all(s[k] == u[k] for k in range(1, p))
        assert all(t[k] == u[k] for k in range(2, p))
        for k in range(1, p - 1):
            ca, cb = s_recurrence_coeffs(p, k)
            assert ca * s[k + 1] + cb * s[k] == 0
        for k in range(2, p - 2):
            ca, cb, cc = t_recurrence_coeffs(p, k)
            assert ca * t[k + 2] + cb * t[k + 1] + cc * t[k] == 0
        assert u[1] == -((p - 1) ** 2)
        assert t[2] == F(p * (p - 1) ** 2 * (p - 2), 12)
        assert t[3] == -F(p * (p - 1) ** 2 * (p - 2) * (p - 3) * (p + 1), 360)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 6 (hypergeometric suite, odd p in [5, 99]): PASS ({elapsed:.1f}s)")


def test_criterion_7_cubic_golden_instance():
    r = reduce_radical(3, -7, 50)
    # u = 2, z = -1 and the branch values -1 +- sqrt(2)
    assert_golden(("reduce_radical", 3, -7, 50), r.to_json())
    plus = r.branch_values[0]
    # exact symbolic cube: (sqrt(2) - 1)^3 = 5 sqrt(2) - 7 = -7 + sqrt(50)
    assert plus**3 == QuadExt(-7, 1, 50)
    print("criterion 7 (cubic golden instance, exact QuadExt): PASS")


def test_criterion_8_euclid_formulas():
    sq = euclid_denest(3, 5)
    assert_golden(("euclid_denest", 3, 5), sq.to_json())
    assert sq.certify(3, 5)

    fourth = euclid_biquadratic(7, 48)
    assert_golden(("euclid_biquadratic", 7, 48), fourth.to_json())
    assert fourth.certify(7, 48)

    with mp.workprec(300):
        # numeric agreement of the denested and nested forms at 256 bits
        lhs = eval_dual(sq.expr(), 256)
        rhs = eval_dual(et.Sqrt(et.add(et.rat(3), et.Sqrt(et.rat(5)))), 256)
        assert abs(lhs - rhs) < mp.mpf(2) ** -200

        lhs4 = eval_dual(fourth.expr(), 256)
        nested = eval_dual(et.add(et.rat(7), et.Sqrt(et.rat(48))), 256)
        assert abs(lhs4**4 - nested) < mp.mpf(2) ** -200
    print("criterion 8 (classical denestings, exact + numeric): PASS")


def test_criterion_9_root_map_bijection():
    for (p, d, R) in [(3, -7, 50), (5, 2, 5), (7, -2158, 4656966)]:
        rep = verify_root_map(p, d, R, 256, tol_exp=180)
        assert rep["distinct"], f"({p}, {d}, {R}): values not pairwise distinct"
        assert rep["max_relative_residual"] < BOUND_180, f"({p}, {d}, {R})"
        assert rep["ok"]
    print("criterion 9 (root map: p distinct trace-poly zeros): PASS")


def test_criterion_10_mutation_sanity():
    def perturb(poly, index):
        coeffs = list(poly.coeffs) + [ParamPoly()] * (index + 1 - len(poly.coeffs))
        coeffs[index] = coeffs[index] + ParamPoly.const(1)
        return Poly(coeffs)

    cases = 0
    for p in (3, 5, 7):
        sources = {
            "trace": trace_poly_symbolic(p),
            "sqrt_num": sqrt_part_symbolic(p).numerator,
            "cofactor_num": cofactor_symbolic(p).numerator,
        }
        for which, original in sources.items():
            for index in range(original.degree + 1):
                report = verify_fundamental_identity(p, **{which: perturb(original, index)})
                failing = [c for c in report.checks if not c.passed]
                assert failing, f"p={p}: perturbing {which}[{index}] went undetected"
                assert any(c.witness and "Z^" in c.witness for c in failing)
                cases += 1
    print(f"criterion 10 (mutation sanity, {cases} perturbations detected): PASS")
