"""Command-line interface: exact reduction results as deterministic JSON.

Subcommands:

* reduce    - full reduction record for (p, d, R), optionally with numeric
              branch residuals (--numeric, --bits, --tolerance-exp)
* construct - build an instance from a prescribed (p, D, u)
* euclid    - classical square-root denesting of sqrt(d + sqrt(R)), or the
              fourth-root variant with --fourth
* classify  - quadratic-field / p-th-power case report
* coeffs    - one coefficient family as an exact JSON array
* verify    - symbolic identity sweep for all odd p up to --p-max
* selftest  - golden-instance acceptance checks, nonzero exit on mismatch

All rational inputs and outputs use the exact text format '-2158' / '6/11'
(ASCII digits, an optional leading '-'; integer flags take no '/');
JSON output is byte-deterministic for identical inputs.  Exit codes: 0 ok,
1 verification failure, 2 usage or domain error.

Each subcommand imports the modules it runs when it runs, so a process loads
only what its command needs; none loads mpmath.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .exactnum import (
    DEFAULT_BITS,
    ZERO_MARGIN_BITS,
    PrecisionError,
    QuadExt,
    parse_rational,
    tolerance,
    tolerance_exp,
)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _integer(text: str) -> int:
    """An integer in the rational text format, without a denominator."""
    try:
        value = parse_rational(text)
    except ValueError:
        value = None
    if value is None or "/" in text:
        raise argparse.ArgumentTypeError(f"not an integer literal: {text!r}")
    return int(value)


def _int_in_range(low: int, high: int | None = None):
    def parse(text: str) -> int:
        value = _integer(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    return parse


# Residuals are required below 2^-(bits - 56) by default, so fewer bits have no
# bound.  The upper limits bound the time of `coeffs`, `verify`, `--bits` and
# `--tolerance-exp` (README, "Command-line interface"); they do not bound
# `reduce`, whose time grows with the number of divisors of D.
MAX_P = 1001
MAX_BITS = 65536
MAX_P_MAX = 401
_p_in_range = _int_in_range(3, MAX_P)
_bits = _int_in_range(ZERO_MARGIN_BITS + 1, MAX_BITS)
_tolerance_exp = _int_in_range(0, MAX_BITS)


def _odd_p(text: str) -> int:
    value = _p_in_range(text)
    if value % 2 == 0:
        raise argparse.ArgumentTypeError(f"must be odd, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Parser of the command and, through `add_subparsers`, of each subcommand:
    negative rationals like -13/9 are option values rather than flags, and a
    usage error is one line on stderr with exit code 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="radreduce",
        description="Exact degree reduction and denesting of radicals (d + sqrt(R))^(1/p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_reduce = sub.add_parser("reduce", help="reduce (d + sqrt(R))^(1/p)")
    p_reduce.add_argument("--p", type=_odd_p, required=True)
    p_reduce.add_argument("--d", type=_rational, required=True)
    p_reduce.add_argument("--R", type=_rational, required=True)
    p_reduce.add_argument("--numeric", action="store_true", help="add branch residuals")
    p_reduce.add_argument("--bits", type=_bits, default=DEFAULT_BITS)
    p_reduce.add_argument(
        "--tolerance-exp",
        type=_tolerance_exp,
        default=None,
        help="residual bound exponent E: require residual < 2^-E * max(1, d^2, |R|) "
        "(default bits - 56)",
    )

    p_construct = sub.add_parser("construct", help="build an instance from (p, D, u)")
    p_construct.add_argument("--p", type=_odd_p, required=True)
    p_construct.add_argument("--D", type=_rational, required=True)
    p_construct.add_argument("--u", type=_rational, required=True)

    p_euclid = sub.add_parser("euclid", help="denest sqrt(d + sqrt(R))")
    p_euclid.add_argument("--d", type=_rational, required=True)
    p_euclid.add_argument("--R", type=_rational, required=True)
    p_euclid.add_argument(
        "--fourth", action="store_true", help="fourth-root variant (d + sqrt(R))^(1/4)"
    )

    p_classify = sub.add_parser("classify", help="quadratic-field / p-th-power cases")
    p_classify.add_argument("--p", type=_odd_p, required=True)
    p_classify.add_argument("--d", type=_rational, required=True)
    p_classify.add_argument("--R", type=_rational, required=True)

    p_coeffs = sub.add_parser("coeffs", help="emit one coefficient family")
    p_coeffs.add_argument("--p", type=_odd_p, required=True)
    p_coeffs.add_argument(
        "--family", choices=("c", "a", "cprime", "C", "u"), required=True
    )

    p_verify = sub.add_parser("verify", help="symbolic identity sweep")
    p_verify.add_argument("--p-max", type=_int_in_range(3, MAX_P_MAX), required=True)

    p_self = sub.add_parser("selftest", help="golden-instance acceptance checks")
    p_self.add_argument("--bits", type=_bits, default=DEFAULT_BITS)
    p_self.add_argument("--tolerance-exp", type=_tolerance_exp, default=None)
    return parser


def cmd_reduce(args) -> int:
    from .reduction import reduce_radical

    result = reduce_radical(args.p, args.d, args.R)
    obj = result.to_json()
    if args.numeric:
        tol_exp = tolerance_exp(args.bits, args.tolerance_exp)
        if result.branches is None:
            obj["numeric"] = {
                "bits": args.bits,
                "note": "u is irrational; no branch expressions to evaluate",
            }
        elif result.params.R < 0:
            obj["numeric"] = {
                "bits": args.bits,
                "note": "branch values are non-real (R < 0); real-mode residuals unavailable",
            }
        else:
            from .numeric import branch_residuals, decimal_str

            res = branch_residuals(result, args.bits)
            # Relative to the size of the terms that cancel in (v^p - d)^2 - R.
            d, R = result.params.d, result.params.R
            bound = tolerance(args.bits, tol_exp) * max(1, d * d, abs(R))
            obj["numeric"] = {
                "bits": args.bits,
                "residuals": [decimal_str(r) for r in res["residuals"]],
                "max_residual": decimal_str(res["max_residual"]),
                "residual_bound": f"2^-{tol_exp}",
                "residual_bound_ok": bool(res["max_residual"] < bound),
                "branch_signs_consistent": res["branch_signs_consistent"],
            }
    _emit(obj)
    return 0


def cmd_construct(args) -> int:
    from .reduction import construct_example

    params, g = construct_example(args.p, args.D, args.u)
    _emit(
        {
            "p": params.p,
            "d": str(params.d),
            "R": str(params.R),
            "D": str(params.D),
            "u": str(Fraction(args.u)),
            "g": g.to_json_coeffs(),
        }
    )
    return 0


def cmd_euclid(args) -> int:
    from .reduction import euclid_biquadratic, euclid_denest

    if args.fourth:
        denesting = euclid_biquadratic(args.d, args.R)
        kind = "fourth"
    else:
        denesting = euclid_denest(args.d, args.R)
        kind = "square"
    obj = {
        "kind": kind,
        "d": str(Fraction(args.d)),
        "R": str(Fraction(args.R)),
        "criterion_holds": denesting is not None,
    }
    if denesting is None:
        obj["detail"] = (
            "d^2 - R is not a rational fourth power"
            if args.fourth
            else "d^2 - R is not a rational square"
        )
        obj["denesting"] = None
    else:
        obj["denesting"] = denesting.to_json()
        obj["certified"] = denesting.certify(args.d, args.R)
    _emit(obj)
    return 0


def cmd_classify(args) -> int:
    from .reduction import classify

    _emit(classify(args.p, args.d, args.R).to_json())
    return 0


def cmd_coeffs(args) -> int:
    from .coeffs import family

    indices, values = family(args.p, args.family)
    _emit(
        {
            "p": args.p,
            "family": args.family,
            "indices": indices,
            "values": [str(v) for v in values],
        }
    )
    return 0


def cmd_verify(args) -> int:
    from .identity import verify_all

    reports = [verify_all(p).to_json() for p in range(3, args.p_max + 1, 2)]
    _emit(reports)
    return 0 if all(r["ok"] for r in reports) else 1


# The paper's worked instances: for each golden library call, written as
# (function name, *arguments), the output fields the paper fixes, as the
# strings `to_json()` prints.  `selftest` and the acceptance suite check
# against this one table.
GOLDEN = {
    ("reduce_radical", 5, 2, 5): {
        "D": "-1",
        "g": ["-1", "0", "0", "0", "0", "-4", "0", "0", "0", "0", "1"],
        "f": ["-4", "5", "0", "5", "0", "1"],
        "A": ["1/5", "1/5", "2/5", "0", "1/10"],
        "z": "-1",
        "u_roots": [],
    },
    ("reduce_radical", 7, -2158, 4656966): {
        "D": "-2",
        "g": ["-2"] + ["0"] * 6 + ["4316"] + ["0"] * 6 + ["1"],
        "z": "irrational",
        "u": "4",
    },
    ("reduce_radical", 3, -7, 50): {
        "z": "-1",
        "u": "2",
        # -1 +- sqrt(2), since (1/5) sqrt(50) = sqrt(2)
        "branch_values": [{"a": "-1", "b": "1/5", "R": "50"}, {"a": "-1", "b": "-1/5", "R": "50"}],
    },
    ("construct_example", 7, -2, 4): {"d": "-2158", "R": "4656966"},
    ("euclid_denest", 3, 5): {"x1": "5/2", "x2": "1/2"},
    ("euclid_biquadratic", 7, 48): {"inner": "1", "half_k": "1/2"},
}


def _matches_golden(call: tuple, obj: dict) -> bool:
    """Whether `obj`, the JSON of `call`, holds every field GOLDEN fixes for it."""
    return {name: obj.get(name) for name in GOLDEN[call]} == GOLDEN[call]


def _selftest_checks(bits: int, tol_exp: int | None) -> list[dict]:
    from . import reduction
    from .numeric import branch_residuals, decimal_str

    # Each golden call runs once, in table order.
    quintic, septic, cubic, construction, square, fourth = GOLDEN
    r5, r7, r3, (params, _), sq, fourth_root = (
        getattr(reduction, name)(*args) for name, *args in GOLDEN
    )

    tol = tolerance(bits, tol_exp)
    if r7.branches is None:
        residual_ok, residual_detail = False, "u is irrational: no branches to evaluate"
    else:
        res = branch_residuals(r7, bits)
        below = res["max_residual"] < tol
        residual_ok = below and res["branch_signs_consistent"]
        relation = "<" if below else ">="
        residual_detail = f"max residual {decimal_str(res['max_residual'])} {relation} {decimal_str(tol)}"
        if not res["branch_signs_consistent"]:
            residual_detail += "; branch signs inconsistent: v^p - d is not + on one branch and - on the other"

    checks = [
        (
            "quintic-exact",
            _matches_golden(quintic, r5.to_json()),
            "g, f, A, z and rational-root scan for (5, 2, 5)",
        ),
        (
            "septic-exact",
            _matches_golden(septic, r7.to_json()),
            "g, D, u = 4 and irrational z for (7, -2158, 4656966)",
        ),
        ("septic-numeric-residual", residual_ok, residual_detail),
        (
            "construction-roundtrip",
            # The constructed instance is the septic one: r7 must recover its u.
            _matches_golden(construction, {"d": str(params.d), "R": str(params.R)})
            and (params.p, params.d, params.R) == septic[1:]
            and r7.u == construction[3],
            "construct(7, -2, 4) gives d = -2158, R = 4656966 and reduce recovers u = 4",
        ),
        (
            "cubic-exact-denesting",
            _matches_golden(cubic, r3.to_json())
            and r3.branch_values[0] ** 3 == QuadExt(r3.params.d, 1, r3.params.R),
            "branch -1 + sqrt(2) cubes to -7 + sqrt(50), verified in Q(sqrt(50))",
        ),
        (
            "square-denesting",
            sq is not None and _matches_golden(square, sq.to_json()) and sq.certify(*square[1:]),
            "sqrt(3 + sqrt(5)) = sqrt(5/2) + sqrt(1/2)",
        ),
        (
            "fourth-denesting",
            fourth_root is not None
            and _matches_golden(fourth, fourth_root.to_json())
            and fourth_root.certify(*fourth[1:]),
            "(7 + sqrt(48))^(1/4) = sqrt(sqrt(1) + 1/2) + sqrt(sqrt(1) - 1/2)",
        ),
    ]
    return [{"name": name, "pass": bool(ok), "detail": detail} for name, ok, detail in checks]


def cmd_selftest(args) -> int:
    checks = _selftest_checks(args.bits, args.tolerance_exp)
    ok = all(c["pass"] for c in checks)
    _emit({"checks": checks, "ok": ok})
    return 0 if ok else 1


_DISPATCH = {
    "reduce": cmd_reduce,
    "construct": cmd_construct,
    "euclid": cmd_euclid,
    "classify": cmd_classify,
    "coeffs": cmd_coeffs,
    "verify": cmd_verify,
    "selftest": cmd_selftest,
}


# Exit code for each exception `main` reports as a one-line error; any other
# exception is a fault of the program and keeps its traceback.  ReductionError
# is a ValueError.
_EXIT_CODES = {ValueError: 2, ZeroDivisionError: 2, PrecisionError: 2}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
