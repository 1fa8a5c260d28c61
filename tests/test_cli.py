import json
from fractions import Fraction as F

import pytest

from radreduce.cli import GOLDEN, MAX_BITS, MAX_P, MAX_P_MAX, build_parser, main

SEPTIC_NUMERIC = ["reduce", "--p", "7", "--d", "-2158", "--R", "4656966", "--numeric"]
# construct_example(11, -2, 20): residual about 4e-60, about 4e-85 relative to R.
LARGE_R_NUMERIC = [
    "reduce", "--p", "11", "--d", "-3379550910110",
    "--R", "11421364354025329300212102", "--numeric",
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestReduceCommand:
    def test_quintic_golden_output(self, capsys):
        code, out = run(capsys, "reduce", "--p", "5", "--d", "2", "--R", "5")
        assert code == 0
        obj = json.loads(out)
        golden = GOLDEN["reduce_radical", 5, 2, 5]
        assert {name: obj[name] for name in golden} == golden
        assert obj["u"] == "irrational"

    def test_divisor_rich_norm(self, capsys):
        # D = 720720 = 2^4 3^2 5 7 11 13 gives the root search many divisor pairs.
        code, out = run(capsys, "reduce", "--p", "9", "--d", "1", "--R", "-720719")
        assert code == 0
        obj = json.loads(out)
        assert obj["D"] == "720720"
        assert obj["u"] == "irrational"

    def test_numeric_flag(self, capsys):
        code, out = run(
            capsys, "reduce", "--p", "7", "--d", "-2158", "--R", "4656966",
            "--numeric", "--bits", "256", "--tolerance-exp", "200",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["u"] == "4"
        assert obj["numeric"]["residual_bound_ok"] is True
        assert obj["numeric"]["branch_signs_consistent"] is True
        assert obj["numeric"]["residual_bound"] == "2^-200"

    def test_residual_bound_is_relative_to_R(self, capsys):
        code, out = run(capsys, *LARGE_R_NUMERIC)
        assert code == 0
        num = json.loads(out)["numeric"]
        assert num["residual_bound"] == "2^-200"
        assert num["residual_bound_ok"] is True

    @pytest.mark.parametrize(
        "factor,ok", [(2, False), (F(1, 2), True)], ids=["twice-bound", "half-bound"]
    )
    def test_residual_against_scaled_bound(self, capsys, monkeypatch, factor, ok):
        import radreduce.numeric as numeric_mod

        real = numeric_mod.branch_residuals
        # max(1, d^2, |R|) = R = 4656966 for the septic instance.
        bound = F(4656966, 2**200)

        def scaled(*args, **kwargs):
            res = real(*args, **kwargs)
            return {**res, "max_residual": factor * bound}

        monkeypatch.setattr(numeric_mod, "branch_residuals", scaled)
        code, out = run(capsys, *SEPTIC_NUMERIC)
        assert code == 0
        assert json.loads(out)["numeric"]["residual_bound_ok"] is ok

    def test_numeric_flag_without_branches(self, capsys):
        code, out = run(capsys, "reduce", "--p", "5", "--d", "2", "--R", "5", "--numeric")
        assert code == 0
        assert "no branch expressions" in json.loads(out)["numeric"]["note"]

    def test_square_R_is_domain_error(self, capsys):
        code = main(["reduce", "--p", "3", "--d", "3", "--R", "4"])
        err = capsys.readouterr().err
        assert code == 2
        assert "square" in err and "irrational" in err

    def test_negative_fraction_flag_values(self, capsys):
        code, out = run(capsys, "reduce", "--p", "3", "--d", "-13/9", "--R", "-560/81")
        assert code == 0
        obj = json.loads(out)
        assert obj["u"] == "1" and obj["D"] == "9"

    def test_numeric_note_for_negative_R(self, capsys):
        code, out = run(
            capsys, "reduce", "--p", "3", "--d", "-13/9", "--R", "-560/81", "--numeric"
        )
        assert code == 0
        assert "non-real" in json.loads(out)["numeric"]["note"]


class TestConstructCommand:
    def test_septic_construction(self, capsys):
        code, out = run(capsys, "construct", "--p", "7", "--D", "-2", "--u", "4")
        assert code == 0
        obj = json.loads(out)
        assert obj["d"] == "-2158"
        assert obj["R"] == "4656966"

    def test_degenerate_rejected(self, capsys):
        code = main(["construct", "--p", "3", "--D", "4", "--u", "4"])
        assert code == 2
        assert "R = 0" in capsys.readouterr().err


class TestEuclidCommand:
    def test_square_denesting(self, capsys):
        code, out = run(capsys, "euclid", "--d", "3", "--R", "5")
        assert code == 0
        obj = json.loads(out)
        assert obj["criterion_holds"] and obj["certified"]
        assert obj["denesting"]["x1"] == "5/2"
        assert obj["denesting"]["x2"] == "1/2"

    def test_fourth_denesting(self, capsys):
        code, out = run(capsys, "euclid", "--d", "7", "--R", "48", "--fourth")
        assert code == 0
        obj = json.loads(out)
        assert obj["criterion_holds"] and obj["certified"]
        assert obj["denesting"]["inner"] == "1"
        assert obj["denesting"]["half_k"] == "1/2"

    def test_criterion_fails(self, capsys):
        code, out = run(capsys, "euclid", "--d", "1", "--R", "1/2")
        assert code == 0
        obj = json.loads(out)
        assert obj["criterion_holds"] is False and obj["denesting"] is None


class TestClassifyCommand:
    def test_septic(self, capsys):
        code, out = run(capsys, "classify", "--p", "7", "--d", "-2158", "--R", "4656966")
        assert code == 0
        obj = json.loads(out)
        assert obj["prop2_field_equal"] is False
        assert obj["prop3_case"] == "b"

    def test_R_beyond_trial_division(self, capsys):
        # R = (10^9 + 7)(10^9 + 9); the field test is one square test of 5R.
        code, out = run(capsys, "classify", "--p", "5", "--d", "1", "--R", "1000000016000000063")
        assert code == 0
        assert json.loads(out)["prop2_field_equal"] is False


class TestCoeffsCommand:
    @pytest.mark.parametrize(
        "family,indices,values",
        [
            ("c", [1, 3, 5], ["5", "-5", "1"]),
            ("a", [0, 2, 4], ["2", "-4", "1"]),
            ("cprime", [1, 3], ["-3", "1"]),
            ("C", [5, 3, 1], ["1", "-5", "5"]),
            ("u", [1, 2, 3, 4], ["-16", "20", "-8", "1"]),
        ],
    )
    def test_families_at_p5(self, capsys, family, indices, values):
        code, out = run(capsys, "coeffs", "--p", "5", "--family", family)
        assert code == 0
        obj = json.loads(out)
        assert obj["indices"] == indices
        assert obj["values"] == values


class TestVerifyCommand:
    def test_smallest_sweep(self, capsys):
        code, out = run(capsys, "verify", "--p-max", "3")
        assert code == 0
        reports = json.loads(out)
        assert [r["p"] for r in reports] == [3]
        assert all(r["ok"] for r in reports)

    def test_sweep_to_nine(self, capsys):
        code, out = run(capsys, "verify", "--p-max", "9")
        assert code == 0
        assert [r["p"] for r in json.loads(out)] == [3, 5, 7, 9]

    def test_failing_check_yields_exit_1(self, capsys, monkeypatch):
        import radreduce.identity as identity_mod
        from radreduce.identity import VerificationReport

        def broken(p):
            report = VerificationReport(p)
            report.add("forced-failure", False, "Z^0: injected")
            return report

        monkeypatch.setattr(identity_mod, "verify_all", broken)
        code, out = run(capsys, "verify", "--p-max", "3")
        assert code == 1
        assert json.loads(out)[0]["ok"] is False


class TestSelftestCommand:
    def test_passes(self, capsys):
        code, out = run(capsys, "selftest")
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True
        names = {c["name"] for c in obj["checks"]}
        assert {"quintic-exact", "septic-exact", "septic-numeric-residual",
                "construction-roundtrip", "cubic-exact-denesting",
                "square-denesting", "fourth-denesting"} <= names


    @pytest.mark.parametrize(
        "fault,failing",
        [
            (
                "no-rational-roots",
                {"septic-exact", "septic-numeric-residual", "construction-roundtrip",
                 "cubic-exact-denesting"},
            ),
            ("sqrt-part-off-by-one", {"quintic-exact", "septic-numeric-residual",
                                      "cubic-exact-denesting"}),
        ],
    )
    def test_library_fault_fails_checks(self, capsys, monkeypatch, fault, failing):
        import radreduce.reduction as reduction_mod
        from radreduce.poly import Poly

        if fault == "no-rational-roots":
            monkeypatch.setattr(reduction_mod, "rational_roots", lambda f: set())
        else:
            original = reduction_mod.sqrt_part_poly

            def shifted(params):
                A = original(params)
                return Poly([A.coeffs[0] + 1, *A.coeffs[1:]])

            monkeypatch.setattr(reduction_mod, "sqrt_part_poly", shifted)
        code, out = run(capsys, "selftest")
        assert code == 1
        obj = json.loads(out)
        assert obj["ok"] is False
        assert len(obj["checks"]) == 7
        assert {c["name"] for c in obj["checks"] if not c["pass"]} == failing


class TestCliContract:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--p", "5", "--d", "2"])  # missing --R
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--p", "5", "--d", "2", "--R", "5", "--frobnicate"])
        assert exc.value.code == 2

    def test_even_p_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--p", "4", "--d", "2", "--R", "5"])
        assert exc.value.code == 2

    def test_non_rational_input_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--p", "5", "--d", "2.5", "--R", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            SEPTIC_NUMERIC + ["--bits", "8"],
            SEPTIC_NUMERIC + ["--bits", "56"],
            SEPTIC_NUMERIC + ["--bits", "0"],
            SEPTIC_NUMERIC + ["--tolerance-exp", "-1"],
            ["selftest", "--bits", "8"],
            ["selftest", "--tolerance-exp", "-3"],
        ],
    )
    def test_numeric_flags_out_of_range_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--p-max", str(MAX_P_MAX)],
            SEPTIC_NUMERIC + ["--bits", str(MAX_BITS)],
            ["selftest", "--bits", str(MAX_BITS)],
            ["reduce", "--p", str(MAX_P), "--d", "2", "--R", "5"],
            ["construct", "--p", str(MAX_P), "--D", "-2", "--u", "4"],
            ["classify", "--p", str(MAX_P), "--d", "2", "--R", "5"],
            ["coeffs", "--p", str(MAX_P), "--family", "C"],
        ],
    )
    def test_upper_limits_accepted(self, argv):
        # Parsed only: running these takes seconds.
        build_parser().parse_args(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--p-max", str(MAX_P_MAX + 1)],
            SEPTIC_NUMERIC + ["--bits", str(MAX_BITS + 1)],
            ["selftest", "--bits", str(MAX_BITS + 1)],
            ["reduce", "--p", str(MAX_P + 2), "--d", "2", "--R", "5"],
            ["construct", "--p", str(MAX_P + 2), "--D", "-2", "--u", "4"],
            ["classify", "--p", str(MAX_P + 2), "--d", "2", "--R", "5"],
            ["coeffs", "--p", str(MAX_P + 2), "--family", "C"],
            SEPTIC_NUMERIC + ["--tolerance-exp", str(MAX_BITS + 1)],
            ["selftest", "--tolerance-exp", str(MAX_BITS + 1)],
        ],
    )
    def test_above_upper_limits_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "must be <=" in captured.err

    @pytest.mark.parametrize(
        "argv,code",
        [
            (SEPTIC_NUMERIC + ["--tolerance-exp", str(MAX_BITS)], 0),
            (["selftest", "--tolerance-exp", str(MAX_BITS)], 1),
        ],
        ids=["reduce", "selftest"],
    )
    def test_largest_tolerance_exp_runs(self, capsys, argv, code):
        # No residual at the default 256 bits is below 2^-65536: reduce reports
        # the bound missed and exits 0, selftest fails its residual check.
        assert main(argv) == code
        out = capsys.readouterr().out
        if argv[0] == "reduce":
            numeric = json.loads(out)["numeric"]
            assert numeric["residual_bound"] == f"2^-{MAX_BITS}"
            assert numeric["residual_bound_ok"] is False
        else:
            failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
            assert failed == ["septic-numeric-residual"]

    def test_failed_residual_check_states_a_true_inequality(self, capsys):
        # The septic residual at 256 bits, about 2^-257, is not below 2^-260.
        assert main(["selftest", "--tolerance-exp", "260"]) == 1
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["septic-numeric-residual"] == {
            "name": "septic-numeric-residual",
            "pass": False,
            "detail": "max residual 4.5542295114755860329e-78 >= 5.3976053469340278909e-79",
        }

    def test_failed_residual_check_names_inconsistent_signs(self, capsys, monkeypatch):
        import radreduce.numeric as numeric_mod

        real = numeric_mod.branch_residuals

        def same_signs(*args, **kwargs):
            return {**real(*args, **kwargs), "branch_signs_consistent": False}

        monkeypatch.setattr(numeric_mod, "branch_residuals", same_signs)
        assert main(["selftest"]) == 1
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["septic-numeric-residual"] == {
            "name": "septic-numeric-residual",
            "pass": False,
            "detail": "max residual 4.5542295114755860329e-78 < 6.2230152778611417071e-61; "
            "branch signs inconsistent: v^p - d is not + on one branch and - on the other",
        }

    # Not the text format, though int() or Fraction() accepts most of these.
    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce", "--p", "5", "--d", "\u0663", "--R", "5"],
            ["reduce", "--p", "5", "--d", "2", "--R", "5\n"],
            ["reduce", "--p", "1_1", "--d", "2", "--R", "5"],
            ["classify", "--p", "\u0663", "--d", "2", "--R", "5"],
            ["coeffs", "--p", "+5", "--family", "c"],
            ["coeffs", "--p", " 5", "--family", "c"],
            ["coeffs", "--p", "15/3", "--family", "c"],
            ["verify", "--p-max", "1_1"],
            SEPTIC_NUMERIC + ["--bits", "2\u0665\u0666"],
            SEPTIC_NUMERIC + ["--tolerance-exp", "10\n"],
            ["selftest", "--bits", "25_6"],
        ],
        ids=[
            "d-arabic-indic", "R-newline", "p-underscore", "p-arabic-indic", "p-plus",
            "p-space", "p-fraction", "p-max-underscore", "bits-arabic-indic",
            "tolerance-exp-newline", "selftest-bits-underscore",
        ],
    )
    def test_non_canonical_literal_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_smallest_accepted_bits(self, capsys):
        code, out = run(capsys, *SEPTIC_NUMERIC, "--bits", "57", "--tolerance-exp", "0")
        assert code == 0
        assert json.loads(out)["numeric"]["residual_bound"] == "2^-0"

    @pytest.mark.parametrize("argv", [SEPTIC_NUMERIC, ["selftest"]])
    def test_precision_error_exits_2(self, capsys, monkeypatch, argv):
        import radreduce.numeric as numeric_mod
        from radreduce.numeric import PrecisionError

        def unstable(*args, **kwargs):
            raise PrecisionError("branch sign unstable between precisions")

        monkeypatch.setattr(numeric_mod, "branch_residuals", unstable)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: branch sign unstable between precisions\n"

    def test_output_is_byte_deterministic(self, capsys):
        _, first = run(capsys, "reduce", "--p", "7", "--d", "-2158", "--R", "4656966")
        _, second = run(capsys, "reduce", "--p", "7", "--d", "-2158", "--R", "4656966")
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce", "--p", "5", "--d", "2", "--R", "5"],
            ["reduce", "--p", "7", "--d", "-2158", "--R", "4656966"],
            ["construct", "--p", "7", "--D", "-2", "--u", "4"],
            ["euclid", "--d", "3", "--R", "5"],
            ["classify", "--p", "5", "--d", "2", "--R", "5"],
            ["coeffs", "--p", "9", "--family", "u"],
            ["verify", "--p-max", "5"],
            ["selftest"],
        ],
    )
    def test_json_roundtrips_byte_identically(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out
