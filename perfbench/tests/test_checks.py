"""Each independent check accepts the program's real output and rejects a
corrupted copy of it.

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from mpmath import mp  # noqa: E402
from radreduce import coeffs, construct, identity, numeric, poly, reduction  # noqa: E402

SEPTIC = (7, Fraction(-2158), Fraction(4656966))  # u = 4 planted, D = -2


def run_cli(*args) -> bytes:
    out = subprocess.run(
        [sys.executable, "-m", "radreduce.cli", *map(str, args)],
        capture_output=True,
        env=workloads.child_env(),
        check=True,
    )
    return out.stdout


class IdentityChecks(unittest.TestCase):
    def test_report_with_every_check_passes(self):
        self.assertIsNone(checks.check_report(identity.verify_all(7), 7, "all"))
        self.assertIsNone(checks.check_report(identity.verify_expansion(65), 65, "expansion"))

    def test_report_missing_a_check_is_rejected(self):
        report = identity.verify_all(7)
        report.checks.pop()
        self.assertIsNotNone(checks.check_report(report, 7, "all"))

    def test_report_with_a_failed_check_is_rejected(self):
        report = identity.verify_all(7)
        report.checks[0] = replace(report.checks[0], passed=False)
        self.assertIsNotNone(checks.check_report(report, 7, "all"))

    def test_trace_poly_is_the_dickson_form(self):
        for p in (3, 5, 11, 61):
            self.assertIsNone(checks.check_trace_symbolic(p, construct.trace_poly_symbolic(p)))

    def test_flipped_trace_coefficient_is_rejected(self):
        f = construct.trace_poly_symbolic(9)
        cs = list(f.coeffs)
        cs[3] = -cs[3]
        self.assertIsNotNone(checks.check_trace_symbolic(9, poly.Poly(cs)))

    def test_system_C_rebuilds_the_expansion(self):
        self.assertIsNone(checks.check_system_C(199, coeffs.system_C(199)))
        values = coeffs.system_C(11)
        values[2] = -values[2]
        self.assertIsNotNone(checks.check_system_C(11, values))


class ReduceChecks(unittest.TestCase):
    def test_planted_root_is_accepted(self):
        p, d, R = SEPTIC
        result = reduction.reduce_radical(p, d, R)
        self.assertIsNone(checks.check_reduction(result, p, d, d * d - R, planted=4))

    def test_dropped_root_is_rejected(self):
        p, d, R = SEPTIC
        result = reduction.reduce_radical(p, d, R)
        dropped = replace(result, u_roots=(), u=None)
        self.assertIsNotNone(checks.check_reduction(dropped, p, d, d * d - R, planted=4))

    def test_dropped_root_differs_from_sympy(self):
        roots = checks.sympy_rational_roots(7, Fraction(-2158), Fraction(-2))
        if roots is None:
            self.skipTest("sympy not importable")
        self.assertEqual(roots, {Fraction(4)})

    def test_non_root_is_rejected(self):
        p, d, R = SEPTIC
        result = reduction.reduce_radical(p, d, R)
        bad = replace(result, u_roots=(Fraction(4), Fraction(5)))
        self.assertIsNotNone(checks.check_reduction(bad, p, d, d * d - R))

    def test_flipped_f_coefficient_is_rejected(self):
        p, d, R = SEPTIC
        result = reduction.reduce_radical(p, d, R)
        cs = list(result.f.coeffs)
        cs[1] = -cs[1]
        bad = replace(result, f=poly.Poly(cs))
        self.assertIsNotNone(checks.check_reduction(bad, p, d, d * d - R))

    def test_wrong_z_is_rejected(self):
        result = reduction.reduce_radical(3, -7, 50)  # D = -1, z = -1
        self.assertIsNone(checks.check_reduction(result, 3, -7, -1))
        self.assertIsNotNone(checks.check_reduction(replace(result, z=Fraction(1)), 3, -7, -1))
        self.assertIsNotNone(checks.check_reduction(replace(result, z=None), 3, -7, -1))

    def test_classification(self):
        for p, d, R in [(7, -2158, 4656966), (5, 3, 20), (3, 2, -12), (9, 2, 3)]:
            report = reduction.classify(p, d, R)
            self.assertIsNone(checks.check_classification(report, p, d, R))
            if report.applicable:
                flipped = replace(report, prop2_field_equal=not report.prop2_field_equal)
                self.assertIsNotNone(checks.check_classification(flipped, p, d, R))


class NumericChecks(unittest.TestCase):
    def setUp(self):
        p, d, R = SEPTIC
        self.result = reduction.reduce_radical(p, d, R)
        self.values = [numeric.eval_dual(tree, 256) for tree in self.result.branches]

    def test_branch_values_are_the_real_roots(self):
        p, d, R = SEPTIC
        self.assertIsNone(checks.check_branch_values(mp, self.values, p, d, R, 256))

    def test_branch_value_off_by_2_to_the_minus_40_is_rejected(self):
        p, d, R = SEPTIC
        for i in range(2):
            bad = list(self.values)
            bad[i] = bad[i] * (1 + mp.mpf(2) ** -40)
            self.assertIsNotNone(checks.check_branch_values(mp, bad, p, d, R, 256))

    def test_residuals(self):
        R = SEPTIC[2]
        res = numeric.branch_residuals(self.result, 256)
        self.assertIsNone(checks.check_residuals(res, R, 256))
        self.assertIsNotNone(checks.check_residuals(dict(res, max_residual=R * Fraction(1, 2**100)), R, 256))

    def test_root_map_must_hold_the_planted_root(self):
        p, d, R = SEPTIC
        out = numeric.verify_root_map(p, d, R, 256)
        self.assertIsNone(checks.check_root_map(mp, out, p, 4))
        self.assertIsNotNone(checks.check_root_map(mp, out, p, Fraction(4) + Fraction(1, 2**40)))


class CliChecks(unittest.TestCase):
    def test_non_json_stdout_is_rejected(self):
        self.assertIsInstance(checks.parse_stdout(b"error: nothing\n"), str)
        wl = workloads.CliCold(1)
        self.assertIsNotNone(wl.ops[0].check(b"Traceback (most recent call last):\n"))

    def test_reduce_f_must_be_the_dickson_form(self):
        obj = json.loads(run_cli("reduce", "--p", 7, "--d", -2158, "--R", 4656966))
        self.assertIsNone(checks.check_cli_reduce(obj, *SEPTIC, False))
        obj["f"][3] = str(-Fraction(obj["f"][3]))
        self.assertIsNotNone(checks.check_cli_reduce(obj, *SEPTIC, False))

    def test_coefficient_families(self):
        families = {
            fam: json.loads(run_cli("coeffs", "--p", 11, "--family", fam))
            for fam in ("c", "a", "cprime", "C", "u")
        }
        self.assertIsNone(checks.check_cli_coeffs(families, 11))
        for fam in families:
            bad = copy.deepcopy(families)
            bad[fam]["values"][1] = str(-Fraction(bad[fam]["values"][1]))
            self.assertIsNotNone(checks.check_cli_coeffs(bad, 11), fam)

    def test_euclid(self):
        obj = json.loads(run_cli("euclid", "--d", 3, "--R", 5))
        self.assertIsNone(checks.check_cli_euclid(obj, 3, 5, False))
        obj["denesting"]["x1"] = "3"
        self.assertIsNotNone(checks.check_cli_euclid(obj, 3, 5, False))
        obj = json.loads(run_cli("euclid", "--d", 7, "--R", 48, "--fourth"))
        self.assertIsNone(checks.check_cli_euclid(obj, 7, 48, True))
        obj["denesting"]["half_k"] = "1"
        self.assertIsNotNone(checks.check_cli_euclid(obj, 7, 48, True))

    def test_verify_and_selftest(self):
        obj = json.loads(run_cli("verify", "--p-max", 7))
        self.assertIsNone(checks.check_cli_verify(obj, 7))
        obj[1]["checks"][0]["pass"] = False
        self.assertIsNotNone(checks.check_cli_verify(obj, 7))
        obj = json.loads(run_cli("selftest"))
        self.assertIsNone(checks.check_cli_selftest(obj))
        obj["ok"] = False
        self.assertIsNotNone(checks.check_cli_selftest(obj))


class Workloads(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in ("reduce-search", "numeric-crosscheck", "cli-cold"):
            a, b = workloads.WORKLOADS[name](7), workloads.WORKLOADS[name](7)
            self.assertEqual([op.name for op in a.ops], [op.name for op in b.ops])

    def test_op_counts_do_not_depend_on_the_seed(self):
        for name, cls in workloads.WORKLOADS.items():
            self.assertEqual(len(cls(1).ops), len(cls(2).ops), name)

    def test_benchmark_json_lists_every_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], workloads.LAYER_METRICS
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_parse_importtime(self):
        stderr = (
            b"import time: self [us] | cumulative | imported package\n"
            b"import time:       500 |        600 |   encodings.aliases\n"
            b"import time:      1500 |      34000 | site\n"
            b"import time:      2000 |      25000 |   mpmath\n"
            b"import time:      3000 |      28000 | radreduce.numeric\n"
            b"import time:       200 |       1800 | argparse\n"
        )
        self.assertEqual(workloads.parse_importtime(stderr), (29.8, 25.0))

    def test_fails_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp,
                capture_output=True,
                timeout=180,
            )
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, b"")


if __name__ == "__main__":
    unittest.main()
