"""The four benchmark workloads: fixed, seeded lists of calls into radreduce.

Each workload builds its whole operation list from the seed before anything
is timed, and a run repeats that list.  The seed only picks values inside
fixed shapes (which primes, which small norm, which order), so every seed asks
for the same kinds and amounts of work and the figures of two seeds can be
compared.  Every operation's output is checked by `checks`, outside the timed
region.

The functions of the program are always looked up through their module at
call time, so that the traced run sees the wrappers `instrument` installs.
"""

from __future__ import annotations

import math
import os
import random
import selectors
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Trial division in radreduce.exactnum.factorize reaches 10^6, so it factors
# completely every integer below 10^12 and every integer without a prime
# factor above 10^6.  Generated instances are built from known small primes,
# or keep every integer the rational-root search factors below this limit;
# larger ones are the fault that the fixed always-failing reduce-search
# operation stands for.
FACTOR_LIMIT = 10**12
# Bits lost to cancellation in d + sqrt(R) (d < 0 < R) that generated numeric
# instances may have; radreduce.numeric carries 32 guard bits.
CANCEL_LIMIT_BITS = 16


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi) if checks.is_prime(n)]


# Narrow windows keep the sizes of generated numbers, and so the cost of exact
# arithmetic on them, nearly the same for every seed.
SMALL_PRIMES = primes(53, 100)
MID_PRIMES = primes(503, 1000)
BIG_PRIMES = primes(5003, 10000)


def cleared_max(coeffs: list[Fraction]) -> int:
    """Largest coefficient of the primitive integer multiple of a polynomial."""
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    return max(abs(c) for c in ints) // g


def factorable(p: int, d: Fraction, D: Fraction) -> bool:
    """The integers the rational-root search factors for f and g are below
    FACTOR_LIMIT."""
    g = [D] + [Fraction(0)] * (p - 1) + [-2 * d] + [Fraction(0)] * (p - 1) + [Fraction(1)]
    return max(cleared_max(checks.trace_coeffs(p, d, D)), cleared_max(g)) < FACTOR_LIMIT


def planted(p: int, D: Fraction, u: Fraction) -> Fraction | None:
    """The d for which u is a zero of f: D_p(u, D) = 2 d D^((p-1)/2).
    None for a degenerate instance (d = 0, or R = d^2 - D zero or a square)."""
    value = sum(c * u**i * D**j for (i, j), c in checks.dickson(p).items())
    d = Fraction(value) / (2 * D ** ((p - 1) // 2))
    return d if valid(d, D) else None


def valid(d: Fraction, D: Fraction) -> bool:
    """d, D and R = d^2 - D are nonzero and sqrt(R) is irrational."""
    R = d * d - D
    return d != 0 and D != 0 and R != 0 and not checks.is_rational_square(R)


class InProcess:
    """A workload that calls the library in the benchmark's own process."""

    def instrument(self, tracer) -> None:
        instrument(tracer)

    def uninstrument(self, tracer) -> None:
        tracer.restore()

    def final_checks(self, outputs) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# identity-sweep


class IdentitySweep(InProcess):
    """`verify_all(p)` for odd p in 3..61 and `verify_expansion(p)` for odd p in
    63..199; the seed only shuffles the order."""

    name = "identity-sweep"
    min_rounds = 3

    def __init__(self, seed: int):
        from radreduce import identity

        jobs = [("all", p) for p in range(3, 62, 2)] + [("expansion", p) for p in range(63, 200, 2)]
        random.Random(seed).shuffle(jobs)
        self.ops = []
        for kind, p in jobs:
            fn = "verify_all" if kind == "all" else "verify_expansion"
            self.ops.append(
                Op(
                    f"{fn}({p})",
                    lambda fn=fn, p=p: getattr(identity, fn)(p),
                    lambda out, p=p, kind=kind: checks.check_report(out, p, kind),
                )
            )

    def final_checks(self, outputs) -> list[str]:
        from radreduce import coeffs, construct

        errors = [checks.check_trace_symbolic(p, construct.trace_poly_symbolic(p)) for p in range(3, 62, 2)]
        errors += [checks.check_system_C(p, coeffs.system_C(p)) for p in range(3, 200, 2)]
        return [e for e in errors if e]


# ---------------------------------------------------------------------------
# reduce-search

# (p, prime pool, primes in num(d), den(d), num(D), den(D)).  With distinct
# primes above 13 the divisor counts the rational-root search walks through
# depend only on the shape, not on which primes the seed picks, and every
# integer it factors has only prime factors below 10^4.
REDUCE_SHAPES = (
    [(p, SMALL_PRIMES, 1, 0, 2, 0) for p in (3, 5, 7, 9, 11, 13) for _ in range(3)]
    + [(p, MID_PRIMES, 2, 0, 3, 0) for p in (3, 5, 7)]
    + [(p, SMALL_PRIMES, 1, 1, 1, 1) for p in (3, 5, 7, 9) for _ in range(2)]
    + [(p, BIG_PRIMES, 2, 0, 2, 0) for p in (3, 5)]
)
# Divisor-rich norm D = 720720 = 2^4 3^2 5 7 11 13, fixed.
DIVISOR_RICH = [(5, 1, -720719), (7, 1, -720719)]
# Valid input on which reduce_radical raises FactorizationError every time:
# D = d^2 - 3 has the cofactor (10^9 + 7)(10^9 + 9), beyond trial division.
ALWAYS_FAILS_REDUCE = (5, 1000000016000000063, 3)


class ReduceSearch(InProcess):
    """`reduce_radical` and `classify` over generated and fixed instances."""

    name = "reduce-search"
    # Ten rounds put the tail percentile at p98, which falls on the fixed
    # divisor-rich operation at p = 5 rather than on a seeded one.
    min_rounds = 10

    def __init__(self, seed: int):
        from radreduce import reduction

        rng = random.Random(seed)
        self.instances = []  # (p, d, D, planted u or None)
        for p, pool, dn, dd, Dn, Dd in REDUCE_SHAPES:
            while True:
                ps = rng.sample(pool, dn + dd + Dn + Dd)
                d = Fraction(math.prod(ps[:dn]), math.prod(ps[dn : dn + dd])) * rng.choice((1, -1))
                D = Fraction(math.prod(ps[dn + dd : dn + dd + Dn]), math.prod(ps[dn + dd + Dn :]))
                D *= rng.choice((1, -1))
                if valid(d, D):
                    break
            self.instances.append((p, d, D, None))
        for p in (3, 5, 7, 9, 11, 13):
            while True:
                # A prime |D| keeps the divisor counts of g's scan, about
                # (p + 2)^2 candidate pairs, nearly the same for every seed.
                D = Fraction(rng.choice((3, 5, 7))) * rng.choice((1, -1))
                u = Fraction(2 * rng.choice((1, -1)))
                d = planted(p, D, u)
                if d is not None and factorable(p, d, D):
                    break
            self.instances.append((p, d, D, u))
        for p, d, R in DIVISOR_RICH + [ALWAYS_FAILS_REDUCE]:
            d, R = Fraction(d), Fraction(R)
            self.instances.append((p, d, d * d - R, None))

        self.classify = []  # (p, d, R)
        for p in (3, 5, 7, 9, 11, 13):
            sign = -1 if ((p - 1) // 2) % 2 else 1
            shapes = ["differs", "p-th power norm"] + (["equal"] if checks.is_prime(p) else [])
            for shape in shapes:
                while True:
                    d = Fraction(rng.choice(MID_PRIMES)) * rng.choice((1, -1))
                    if shape == "equal":
                        R = Fraction(sign * p * rng.choice(SMALL_PRIMES) ** 2)
                    elif shape == "differs":
                        R = Fraction(math.prod(rng.sample(BIG_PRIMES, 2)) * rng.choice((1, -1)))
                    else:
                        R = d * d - 2**p * rng.choice((1, -1))
                    if valid(d, d * d - R) and abs(R) < FACTOR_LIMIT:
                        break
                self.classify.append((p, d, R))

        self.ops = [
            Op(
                f"reduce_radical({p}, {d}, {d * d - D})",
                lambda p=p, d=d, D=D: reduction.reduce_radical(p, d, d * d - D),
                lambda out, p=p, d=d, D=D, u=u: checks.check_reduction(out, p, d, D, u),
            )
            for p, d, D, u in self.instances
        ] + [
            Op(
                f"classify({p}, {d}, {R})",
                lambda p=p, d=d, R=R: reduction.classify(p, d, R),
                lambda out, p=p, d=d, R=R: checks.check_classification(out, p, d, R),
            )
            for p, d, R in self.classify
        ]

    def final_checks(self, outputs) -> list[str]:
        """Completeness of every reported root list, by sympy when present."""
        errors = []
        for (p, d, D, _), out in zip(self.instances, outputs):
            if isinstance(out, Exception):
                continue
            want = checks.sympy_rational_roots(p, d, D)
            if want is None:
                print("reduce-search: sympy not importable, completeness unchecked", file=sys.stderr)
                break
            if set(out.u_roots) != want:
                errors.append(f"(p={p}, d={d}, D={D}): roots {out.u_roots}, sympy {sorted(want)}")
        return errors


# ---------------------------------------------------------------------------
# numeric-crosscheck

# construct_example(11, -6, 15): d + sqrt(R) loses about 56 bits to
# cancellation and verify_root_map raises PrecisionError every time.
ALWAYS_FAILS_NUMERIC = (11, -6, 15)


def numeric_instance(rng, p: int, positive_R: bool):
    """A planted (p, d, D, u) with small prime |D| whose numerics stay within
    the guard bits.  D < 0 forces R > 0; D > 0 with |u| < 2 sqrt(D) forces
    R < 0 (then u = 2 sqrt(D) cos t and d^2 = D cos(p t)^2 < D)."""
    while True:
        D = Fraction(rng.choice((2, 3, 5, 7, 11, 13)))
        if positive_R:
            D = -D
            u = Fraction(rng.randint(1, 5))
        else:
            u = Fraction(rng.randint(1, math.isqrt(4 * int(D) - 1)))
        u *= rng.choice((1, -1))
        d = planted(p, D, u)
        if d is None or not factorable(p, d, D) or (d * d - D > 0) != positive_R:
            continue
        if d < 0 and d * d > abs(D) * 2**CANCEL_LIMIT_BITS:
            continue
        return d, D, u


class NumericCrosscheck(InProcess):
    """Per instance: reduce_radical, then for R > 0 branch_residuals at 256
    and 1024 bits and the branch values by eval_dual at 256 bits, then
    verify_root_map at 256 bits."""

    name = "numeric-crosscheck"
    min_rounds = 10

    def __init__(self, seed: int):
        from mpmath import mp

        from radreduce import numeric, reduction

        self.mp = mp
        rng = random.Random(seed)
        self.instances = []
        for p in (3, 5, 7, 9, 11, 13):
            for positive_R in (True, True, True, True, False, False):
                self.instances.append((p, *numeric_instance(rng, p, positive_R)))
        p, D, u = ALWAYS_FAILS_NUMERIC
        self.instances.append((p, planted(p, Fraction(D), Fraction(u)), Fraction(D), Fraction(u)))

        def run(p, d, R):
            result = reduction.reduce_radical(p, d, R)
            out = {"result": result}
            if R > 0:
                out["res256"] = numeric.branch_residuals(result, 256)
                out["res1024"] = numeric.branch_residuals(result, 1024)
                out["values"] = [numeric.eval_dual(tree, 256) for tree in result.branches]
            out["root_map"] = numeric.verify_root_map(p, d, R, 256)
            return out

        self.ops = [
            Op(
                f"numeric({p}, {d}, {d * d - D})",
                lambda p=p, d=d, D=D: run(p, d, d * d - D),
                lambda out, p=p, d=d, D=D, u=u: self.check(out, p, d, D, u),
            )
            for p, d, D, u in self.instances
        ]

    def check(self, out, p, d, D, u):
        R = d * d - D
        err = checks.check_reduction(out["result"], p, d, D, u)
        if not err and R > 0:
            err = (
                checks.check_residuals(out["res256"], R, 256)
                or checks.check_residuals(out["res1024"], R, 1024)
                or checks.check_branch_values(self.mp, out["values"], p, d, R, 256)
            )
        return err or checks.check_root_map(self.mp, out["root_map"], p, u)


# ---------------------------------------------------------------------------
# cli-cold


@dataclass
class Child:
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], timeout: float = 60.0) -> Child:
    """Run one child to its end, collecting stdout, stderr and its own peak
    resident memory; kill it after `timeout` seconds."""
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = perf_counter() + timeout
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - perf_counter()
            if left <= 0:
                proc.kill()
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        proc.returncode,
        b"".join(chunks[proc.stdout]),
        b"".join(chunks[proc.stderr]),
        usage.ru_maxrss / 1024,
    )


def parse_importtime(stderr: bytes) -> tuple[float, float]:
    """(ms importing after interpreter start-up, ms importing mpmath) from
    `-X importtime` output.  Start-up ends with the top-level `site` import."""
    total = mpmath_us = 0
    after_site = False
    for line in stderr.decode("utf-8", "replace").splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:") :].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        top = not name.startswith("  ")
        name = name.strip()
        if name == "mpmath" and not mpmath_us:
            mpmath_us = int(cumulative)
        if top and after_site:
            total += int(cumulative)
        after_site = after_site or (top and name == "site")
    return total / 1000, mpmath_us / 1000


GOLDEN = [(5, 2, 5, False), (7, -2158, 4656966, True), (3, -7, 50, False)]
VERIFY_P_MAX = 11


class ChildFailed(RuntimeError):
    """A CLI call exited with a code other than 0."""


class CliCold:
    """One fresh `python -m radreduce.cli` process per operation, one at a
    time."""

    name = "cli-cold"
    min_rounds = 5

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.tracer = None
        self.peak_rss_mb = 0.0
        self.families: dict = {}
        self.ops = []
        for p, d, R, numeric in GOLDEN:
            args = ["reduce", "--p", p, "--d", d, "--R", R] + (["--numeric"] if numeric else [])
            self._add(args, lambda obj, p=p, d=d, R=R, n=numeric: checks.check_cli_reduce(obj, p, d, R, n))

        while True:
            p, D = rng.choice((3, 5, 7)), Fraction(rng.choice((2, 3, 5, 6))) * rng.choice((1, -1))
            u = Fraction(rng.randint(1, 4)) * rng.choice((1, -1))
            if planted(p, D, u) is not None:
                break
        self._add(
            ["construct", "--p", p, "--D", D, "--u", u],
            lambda obj, p=p, D=D, u=u: checks.check_cli_construct(obj, p, D, u),
        )

        while True:  # sqrt(d + sqrt(R)) = sqrt(x1) + sqrt(x2), x1 x2 not a square
            x1, x2 = rng.sample(range(1, 40), 2)
            if not checks.is_rational_square(Fraction(x1 * x2)):
                break
        d, R = x1 + x2, 4 * x1 * x2
        self._add(["euclid", "--d", d, "--R", R], lambda obj, d=d, R=R: checks.check_cli_euclid(obj, d, R, False))
        while True:  # d^2 - R = k^4
            k = rng.randint(1, 3)
            d = rng.randint(k * k + 1, k * k + 40)
            R = d * d - k**4
            if not checks.is_rational_square(Fraction(R)):
                break
        self._add(
            ["euclid", "--d", d, "--R", R, "--fourth"],
            lambda obj, d=d, R=R: checks.check_cli_euclid(obj, d, R, True),
        )

        while True:
            p, d = rng.choice((3, 5, 7, 11, 13)), rng.randint(2, 60) * rng.choice((1, -1))
            R = rng.choice((rng.randint(2, 3000), -p * rng.randint(1, 30) ** 2))
            if valid(Fraction(d), Fraction(d * d - R)):
                break
        self._add(
            ["classify", "--p", p, "--d", d, "--R", R],
            lambda obj, p=p, d=d, R=R: checks.check_classification(obj, p, d, R),
        )

        p = rng.choice((5, 7, 9, 11, 13, 15))
        for fam in ("c", "a", "cprime", "C", "u"):
            self._add(["coeffs", "--p", p, "--family", fam], lambda obj, fam=fam, p=p: self._family(fam, obj, p))
        self._add(["verify", "--p-max", VERIFY_P_MAX], lambda obj: checks.check_cli_verify(obj, VERIFY_P_MAX))
        self._add(["selftest"], checks.check_cli_selftest)

    def _add(self, args, check) -> None:
        args = [str(a) for a in args]

        def run():
            flags = ["-X", "importtime"] if self.tracer is not None else []
            child = run_child([sys.executable, *flags, "-m", "radreduce.cli", *args])
            self.peak_rss_mb = max(self.peak_rss_mb, child.maxrss_mb)
            if child.returncode != 0:
                tail = child.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
                raise ChildFailed(f"{' '.join(args)}: exit {child.returncode} {tail}")
            if self.tracer is not None:
                import_ms, mpmath_ms = parse_importtime(child.stderr)
                self.tracer.count("cli.import_ms", import_ms)
                self.tracer.count("cli.import_mpmath_ms", mpmath_ms)
                self.tracer.count("cli.stdout_bytes", len(child.stdout))
            return child.stdout

        def check_stdout(stdout: bytes):
            obj = checks.parse_stdout(stdout)
            return obj if isinstance(obj, str) else check(obj)

        self.ops.append(Op(" ".join(args), run, check_stdout))

    def _family(self, fam: str, obj: dict, p: int):
        """Collect the five coefficient families of a round (c comes first and
        u last) and check them together."""
        if fam == "c":
            self.families = {}
        self.families[fam] = obj
        if fam != "u":
            return None
        if len(self.families) < 5:
            return f"coeffs: only families {sorted(self.families)} succeeded"
        return checks.check_cli_coeffs(self.families, p)

    def warm_up(self) -> None:
        """One untimed call, so the timed ones find the bytecode cache filled."""
        run_child([sys.executable, "-m", "radreduce.cli", "selftest"])

    def instrument(self, tracer) -> None:
        """Trace the next round: children run under `-X importtime`, and the
        interpreter's own start is timed with `python -c pass`."""
        starts = []
        for _ in range(3):
            t0 = perf_counter()
            run_child([sys.executable, "-c", "pass"])
            starts.append(perf_counter() - t0)
        tracer.count("cli.interp_start_ms", sorted(starts)[1] * 1000)
        self.tracer = tracer

    def uninstrument(self, tracer) -> None:
        self.tracer = None

    def final_checks(self, outputs) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# The traced run

# (name, unit, better) of every per-layer metric, in the order they are printed.
LAYER_METRICS = [
    ("identity.expansion_ms", "ms", "lower"),
    ("identity.fundamental_ms", "ms", "lower"),
    ("identity.recurrences_ms", "ms", "lower"),
    ("construct.symbolic_ms", "ms", "lower"),
    ("coeffs.ms", "ms", "lower"),
    ("coeffs.calls", "count", "lower"),
    ("poly.poly_mul_calls", "count", "lower"),
    ("poly.parampoly_mul_calls", "count", "lower"),
    ("poly.rational_roots_ms", "ms", "lower"),
    ("poly.rational_roots_candidates", "count", "lower"),
    ("poly.rational_roots_found", "count", "higher"),
    ("poly.rational_roots_yield", "ratio", "higher"),
    ("exactnum.factorize_ms", "ms", "lower"),
    ("exactnum.factorize_calls", "count", "lower"),
    ("exactnum.divisors_ms", "ms", "lower"),
    ("exactnum.divisors_listed", "count", "lower"),
    ("construct.concrete_ms", "ms", "lower"),
    ("reduction.self_ms", "ms", "lower"),
    ("reduction.classify_ms", "ms", "lower"),
    ("numeric.eval_ms", "ms", "lower"),
    ("numeric.eval_calls", "count", "lower"),
    ("numeric.eval_bits_total", "bits", "lower"),
    ("numeric.zeta_ms", "ms", "lower"),
    ("numeric.zeta_calls", "count", "lower"),
    ("numeric.root_map_ms", "ms", "lower"),
    ("numeric.residuals_ms", "ms", "lower"),
    ("cli.interp_start_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.import_mpmath_ms", "ms", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

COEFF_FAMILIES = (
    "coeff_a",
    "coeff_c",
    "coeff_cprime",
    "coeff_u",
    "conv_s",
    "conv_t",
    "system_C",
    "s_recurrence_coeffs",
    "t_recurrence_coeffs",
)


def instrument(t) -> None:
    """Install spans and counters around the calls from one module of the
    library into another, where the calling module looks them up."""
    from radreduce import construct, exactnum, identity, numeric, poly, reduction

    t.span(identity, "verify_expansion", "identity.expansion")
    t.span(identity, "verify_fundamental_identity", "identity.fundamental")
    t.span(identity, "verify_recurrences", "identity.recurrences")
    for fn in ("trace_poly_symbolic", "sqrt_part_symbolic", "cofactor_symbolic"):
        t.span(identity, fn, "construct.symbolic")
    for module in (construct, identity, reduction):
        for fn in COEFF_FAMILIES:
            if hasattr(module, fn):
                t.span(module, fn, "coeffs", on_call=lambda a, k: t.count("coeffs.calls"))
    t.counter(poly.Poly, "__mul__", "poly.poly_mul_calls")
    t.counter(poly.ParamPoly, "__mul__", "poly.parampoly_mul_calls")
    t.counter(poly.ParamPoly, "__rmul__", "poly.parampoly_mul_calls")

    t.span(reduction, "reduce_radical", "reduction.reduce")
    t.span(reduction, "classify", "reduction.classify")
    for module in (reduction, numeric):
        for fn in ("trace_poly", "sqrt_part_poly", "defining_polys"):
            if hasattr(module, fn):
                t.span(module, fn, "construct.concrete")
        t.span(
            module,
            "rational_roots",
            "poly.rational_roots",
            on_result=lambda roots: t.count("poly.rational_roots_found", len(roots)),
        )
    # rational_roots confirms each candidate with one exact evaluation.
    t.counter(poly.Poly, "evaluate", "poly.rational_roots_candidates", inside="poly.rational_roots")
    t.span(poly, "divisors", "exactnum.divisors", on_result=lambda ds: t.count("exactnum.divisors_listed", len(ds)))
    t.span(exactnum, "factorize", "exactnum.factorize", on_call=lambda a, k: t.count("exactnum.factorize_calls"))

    def eval_bits(args, kwargs):
        t.count("numeric.eval_calls")
        t.count("numeric.eval_bits_total", kwargs.get("bits", args[1] if len(args) > 1 else numeric.DEFAULT_BITS))

    t.span(numeric, "eval_expression", "numeric.eval", on_call=eval_bits)
    t.span(numeric, "zeta_two_ways", "numeric.zeta", on_call=lambda a, k: t.count("numeric.zeta_calls"))
    t.span(numeric, "verify_root_map", "numeric.root_map")
    t.span(numeric, "branch_residuals", "numeric.residuals")


# Span name behind each per-layer time.
SPAN_OF = {
    "identity.expansion_ms": "identity.expansion",
    "identity.fundamental_ms": "identity.fundamental",
    "identity.recurrences_ms": "identity.recurrences",
    "construct.symbolic_ms": "construct.symbolic",
    "coeffs.ms": "coeffs",
    "poly.rational_roots_ms": "poly.rational_roots",
    "exactnum.factorize_ms": "exactnum.factorize",
    "exactnum.divisors_ms": "exactnum.divisors",
    "construct.concrete_ms": "construct.concrete",
    "reduction.self_ms": "reduction.reduce",
    "reduction.classify_ms": "reduction.classify",
    "numeric.eval_ms": "numeric.eval",
    "numeric.zeta_ms": "numeric.zeta",
    "numeric.root_map_ms": "numeric.root_map",
    "numeric.residuals_ms": "numeric.residuals",
}


def layer_metrics(t, rounds: int, overhead_pct: float) -> dict[str, float]:
    """Per-layer figures per round of the operation list: span self times in
    ms, counters as counted."""
    self_s = t.self_seconds()
    out = {}
    for name, _, _ in LAYER_METRICS:
        if name in SPAN_OF:
            out[name] = self_s.get(SPAN_OF[name], 0.0) * 1000 / rounds
        else:
            out[name] = t.counts.get(name, 0) / rounds
    tried = t.counts.get("poly.rational_roots_candidates", 0)
    out["poly.rational_roots_yield"] = t.counts.get("poly.rational_roots_found", 0) / tried if tried else 0.0
    out["trace.overhead_pct"] = overhead_pct
    return out


WORKLOADS = {w.name: w for w in (IdentitySweep, ReduceSearch, NumericCrosscheck, CliCold)}
