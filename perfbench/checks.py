"""Independent output checks for the benchmark, in the benchmark's own arithmetic.

Nothing here imports radreduce.  Each check takes an output of the program
(an object it returned, or the JSON a CLI call printed) and recomputes what the
output must be from first principles:

* the trace polynomial is the Dickson polynomial shifted by a constant,
  f(Z) = D_p(Z, D) - 2 d D^((p-1)/2), with D_0 = 2, D_1 = Z and
  D_n = Z D_(n-1) - D D_(n-2), computed here in plain integers;
* the expansion coefficients C must rebuild X^p + 1 over the basis
  X^k (X+1)^(p-2k);
* root, square and field statements are decided with integer roots.

A check returns None when the output is correct and a one-line description
of the first disagreement otherwise, so a run can report what went wrong.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# Names of the checks each identity report must carry; a report that omits one
# could pass vacuously.
EXPANSION_CHECKS = frozenset(
    {
        "system-solution-matches-closed-form",
        "expansion-reconstructs-with-system-coefficients",
        "expansion-reconstructs-with-closed-form-coefficients",
    }
)
FUNDAMENTAL_CHECKS = frozenset({"fundamental-identity", "left-side-degree"})
RECURRENCE_CHECKS = frozenset(
    {
        "s-equals-closed-form",
        "t-equals-closed-form",
        "s-two-term-recurrence",
        "t-three-term-recurrence",
        "closed-form-satisfies-recurrence",
        "s-symbolic-extraction",
        "t-symbolic-extraction",
    }
)


def expected_check_names(p: int, kind: str) -> frozenset:
    """Check names of a `verify_expansion` ("expansion") or `verify_all`
    ("all") report at p."""
    if kind == "expansion":
        return EXPANSION_CHECKS
    names = EXPANSION_CHECKS | FUNDAMENTAL_CHECKS
    return names | RECURRENCE_CHECKS if p >= 5 else names


# ---------------------------------------------------------------------------
# Integer arithmetic the checks rest on


def int_root(n: int, k: int) -> tuple[int, bool]:
    """Floor k-th root of n >= 0 by bisection, and whether it is exact."""
    lo, hi = 0, 1
    while hi**k <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo, lo**k == n


def is_rational_square(q: Fraction) -> bool:
    if q < 0:
        return False
    return all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


def rational_odd_root(q: Fraction, p: int) -> Fraction | None:
    """The rational z with z^p == q for odd p, or None."""
    rn, ok_n = int_root(abs(q.numerator), p)
    rd, ok_d = int_root(q.denominator, p)
    if not (ok_n and ok_d):
        return None
    return Fraction(rn if q > 0 else -rn, rd)


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def dickson(p: int) -> dict[tuple[int, int], int]:
    """D_p(Z, D) as {(power of Z, power of D): integer coefficient}."""
    prev, cur = {(0, 0): 2}, {(1, 0): 1}
    for _ in range(p - 1):
        nxt: dict[tuple[int, int], int] = {}
        for (i, j), c in cur.items():
            nxt[(i + 1, j)] = nxt.get((i + 1, j), 0) + c
        for (i, j), c in prev.items():
            nxt[(i, j + 1)] = nxt.get((i, j + 1), 0) - c
        prev, cur = cur, {k: v for k, v in nxt.items() if v}
    return cur


def trace_coeffs(p: int, d: Fraction, D: Fraction) -> list[Fraction]:
    """Coefficients of f(Z) = D_p(Z, D) - 2 d D^((p-1)/2), ascending in Z."""
    out = [Fraction(0)] * (p + 1)
    for (i, j), c in dickson(p).items():
        out[i] += c * D**j
    out[0] -= 2 * d * D ** ((p - 1) // 2)
    return out


def horner(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def expansion_residue(p: int, cs: list) -> list[Fraction]:
    """sum_k cs[k] X^k (X+1)^(p-2k) - (X^p + 1), ascending in X."""
    total = [Fraction(0)] * (p + 1)
    total[0] -= 1
    total[p] -= 1
    for k, c in enumerate(cs):
        m = p - 2 * k
        row = 1  # binom(m, i), stepped along the row
        for i in range(m + 1):
            total[k + i] += c * row
            row = row * (m - i) // (i + 1)
    return total


# ---------------------------------------------------------------------------
# identity-sweep


def check_report(report, p: int, kind: str) -> str | None:
    """A VerificationReport passes every check and carries the full set."""
    names = [c.name for c in report.checks]
    if report.p != p:
        return f"report for p={report.p}, expected p={p}"
    if set(names) != expected_check_names(p, kind) or len(names) != len(set(names)):
        return f"p={p}: check names {sorted(names)}"
    bad = [c.name for c in report.checks if not c.passed]
    if bad or not report.ok:
        return f"p={p}: failed checks {bad}"
    return None


def check_trace_symbolic(p: int, poly) -> str | None:
    """`trace_poly_symbolic(p)` equals D_p(Z, D) - 2 d D^((p-1)/2).

    The program's coefficients are maps {(power of d, power of D): value}.
    """
    want: dict[int, dict] = {}
    for (i, j), c in dickson(p).items():
        want.setdefault(i, {})[(0, j)] = c
    want.setdefault(0, {})[(1, (p - 1) // 2)] = -2
    if len(poly.coeffs) != p + 1:
        return f"p={p}: degree {len(poly.coeffs) - 1}"
    for i, coeff in enumerate(poly.coeffs):
        got = dict(getattr(coeff, "terms", {}))
        if got != want.get(i, {}):
            return f"p={p}: Z^{i} coefficient {got}, Dickson {want.get(i, {})}"
    return None


def check_system_C(p: int, values) -> str | None:
    """[C_p, C_(p-2), ..., C_1] are integers that rebuild X^p + 1."""
    cs = [Fraction(v) for v in values]
    if len(cs) != (p + 1) // 2 or any(c.denominator != 1 for c in cs):
        return f"p={p}: C family {values[:4]}..."
    residue = expansion_residue(p, cs)
    if any(residue):
        i = next(i for i, r in enumerate(residue) if r)
        return f"p={p}: expansion misses X^{i} by {residue[i]}"
    return None


# ---------------------------------------------------------------------------
# reduce-search


def check_reduction(result, p: int, d, D, planted=None) -> str | None:
    """A ReductionResult against the Dickson trace polynomial of (p, d, D)."""
    d, D = Fraction(d), Fraction(D)
    f = trace_coeffs(p, d, D)
    got_f = [Fraction(c) for c in result.f.coeffs]
    if got_f != f:
        return f"(p={p}, d={d}, D={D}): f differs from the Dickson form"
    for r in result.u_roots:
        if horner(f, Fraction(r)) != 0:
            return f"(p={p}, d={d}, D={D}): reported root {r} is not a zero of f"
    if list(result.u_roots) != sorted(set(result.u_roots)):
        return f"(p={p}, d={d}, D={D}): roots {result.u_roots} not ascending"
    if (result.u is None) != (not result.u_roots) or (
        result.u_roots and result.u != result.u_roots[0]
    ):
        return f"(p={p}, d={d}, D={D}): u={result.u} against roots {result.u_roots}"
    if planted is not None and Fraction(planted) not in result.u_roots:
        return f"(p={p}, d={d}, D={D}): planted root {planted} not reported"
    if result.conditions.g_rational_roots:
        return f"(p={p}, d={d}, D={D}): g has rational roots {result.conditions.g_rational_roots}"
    z = rational_odd_root(D, p)
    if result.z is None and z is not None:
        return f"(p={p}, d={d}, D={D}): z reported irrational, but {z}^{p} == D"
    if result.z is not None and Fraction(result.z) ** p != D:
        return f"(p={p}, d={d}, D={D}): z={result.z} and z^p != D"
    return None


def field_equal(p: int, R: Fraction) -> bool:
    """Q(sqrt(R)) == Q(sqrt((-1)^((p-1)/2) p)): R (-1)^((p-1)/2) p is a square."""
    sign = -1 if ((p - 1) // 2) % 2 else 1
    return is_rational_square(Fraction(R) * sign * p)


def check_classification(report, p: int, d, R) -> str | None:
    """A CaseReport (or its JSON) against integer tests on (p, d, R)."""
    rep = report if isinstance(report, dict) else report.to_json()
    R = Fraction(R)
    D = Fraction(d) ** 2 - R
    if rep["applicable"] != is_prime(p):
        return f"(p={p}, R={R}): applicable={rep['applicable']}"
    if not is_prime(p):
        return None if rep["prop2_field_equal"] is None else f"p={p}: composite p classified"
    if rep["prop2_field_equal"] != field_equal(p, R):
        return f"(p={p}, R={R}): field equality {rep['prop2_field_equal']}"
    case = "a" if rational_odd_root(D, p) is not None else "b"
    if rep["prop3_case"] != case:
        return f"(p={p}, D={D}): case {rep['prop3_case']}, expected {case}"
    return None


def sympy_rational_roots(p: int, d, D) -> set[Fraction] | None:
    """Rational zeros of the Dickson f by sympy's root finder, or None when
    sympy cannot be imported."""
    try:
        import sympy
    except ImportError:
        return None
    z = sympy.Symbol("z")
    coeffs = trace_coeffs(p, Fraction(d), Fraction(D))
    poly = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
        z,
        domain="QQ",
    )
    return {Fraction(int(r.p), int(r.q)) for r in poly.ground_roots()}


# ---------------------------------------------------------------------------
# numeric-crosscheck


def real_root(mp, x, p: int):
    """Real p-th root of a real mpf for odd p."""
    r = mp.root(abs(x), p)
    return r if x >= 0 else -r


def check_branch_values(mp, values, p: int, d, R, bits: int) -> str | None:
    """Branch values are the real roots (d + sqrt(R))^(1/p) and
    (d - sqrt(R))^(1/p), in either order, to 2^-(bits - 32) relative.

    The radicands are formed without cancellation: the smaller one in
    magnitude is D divided by the larger.
    """
    d, R = Fraction(d), Fraction(R)
    with mp.workprec(2 * bits + 64):
        dd = mp.mpf(d.numerator) / d.denominator
        s = mp.sqrt(mp.mpf(R.numerator) / R.denominator)
        D = dd * dd - mp.mpf(R.numerator) / R.denominator
        big = dd + s if dd > 0 else dd - s
        small = D / big
        roots = [real_root(mp, big, p), real_root(mp, small, p)]
        tol = mp.mpf(2) ** -(bits - 32)
        for order in (roots, roots[::-1]):
            if all(abs(v - r) <= tol * abs(r) for v, r in zip(values, order)):
                return None
        return f"(p={p}, d={d}, R={R}): branch values {[mp.nstr(v, 20) for v in values]}"


def check_residuals(res: dict, R, bits: int) -> str | None:
    """Relative residual |(v^p - d)^2 - R| / R below 2^-(bits - 32), and the
    branches land on +sqrt(R) and -sqrt(R)."""
    R = Fraction(R)
    rel = Fraction(res["max_residual"]) / abs(R)
    if not rel < Fraction(1, 2 ** (bits - 32)):
        return f"R={R}: relative residual {float(rel):.3e} at {bits} bits"
    if not res["branch_signs_consistent"]:
        return f"R={R}: branch signs inconsistent at {bits} bits"
    return None


def check_root_map(mp, out: dict, p: int, planted) -> str | None:
    """`verify_root_map` reports p distinct zeros and one lies on the planted u."""
    if not (out["ok"] and out["distinct"]) or len(out["values"]) != p:
        return f"p={p}: root map ok={out['ok']} distinct={out['distinct']}"
    u = Fraction(planted)
    with mp.workprec(128):
        target = mp.mpf(u.numerator) / u.denominator
        # The values are printed to 30 significant digits.
        near = min(abs(mp.mpmathify(v) - target) for v in out["values"])
        if near > mp.mpf(10) ** -25 * max(1, abs(target)):
            return f"p={p}: planted u={u} is {mp.nstr(near, 5)} from every u_k"
    return None


# ---------------------------------------------------------------------------
# cli-cold


def parse_stdout(stdout: bytes):
    """The JSON document a CLI call printed, or an error string."""
    try:
        return json.loads(stdout.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        return f"stdout is not JSON: {exc}"


def check_cli_reduce(obj: dict, p: int, d, R, numeric: bool) -> str | None:
    d, R = Fraction(d), Fraction(R)
    D = d * d - R
    if Fraction(obj["D"]) != D:
        return f"reduce: D={obj['D']}, expected {D}"
    f = trace_coeffs(p, d, D)
    if [Fraction(c) for c in obj["f"]] != f:
        return f"reduce (p={p}, d={d}, R={R}): f differs from the Dickson form"
    for r in obj["u_roots"]:
        if horner(f, Fraction(r)) != 0:
            return f"reduce: root {r} is not a zero of f"
    if numeric:
        num = obj["numeric"]
        if not (num.get("residual_bound_ok") and num.get("branch_signs_consistent")):
            return f"reduce --numeric: {num}"
    return None


def check_cli_construct(obj: dict, p: int, D, u) -> str | None:
    d, R, D = Fraction(obj["d"]), Fraction(obj["R"]), Fraction(D)
    if Fraction(obj["D"]) != D or d * d - R != D:
        return f"construct: d={d}, R={R} do not have norm {D}"
    if horner(trace_coeffs(p, d, D), Fraction(u)) != 0:
        return f"construct: u={u} is not a zero of the Dickson f"
    return None


def check_cli_euclid(obj: dict, d, R, fourth: bool) -> str | None:
    d, R = Fraction(d), Fraction(R)
    den = obj.get("denesting")
    if not obj.get("criterion_holds") or den is None:
        return f"euclid (d={d}, R={R}): criterion reported false"
    if fourth:
        inner, h = Fraction(den["inner"]), Fraction(den["half_k"])
        # y = sqrt(sqrt(inner) + h) + sqrt(sqrt(inner) - h) has
        # y^4 = (8 inner - 4 h^2) + sqrt(64 inner (inner - h^2)).
        if 8 * inner - 4 * h * h != d or 64 * inner * (inner - h * h) != R:
            return f"euclid --fourth (d={d}, R={R}): inner={inner}, half_k={h}"
        return None
    x1, x2 = Fraction(den["x1"]), Fraction(den["x2"])
    if x1 + x2 != d or 4 * x1 * x2 != R:
        return f"euclid (d={d}, R={R}): x1={x1}, x2={x2}"
    return None


def check_cli_coeffs(families: dict, p: int) -> str | None:
    """The five families at one p: c is the Dickson family, C rebuilds
    X^p + 1, and both convolutions s_k (of a) and t_k (of c with c') equal u_k.
    """
    half = (p - 1) // 2
    vals = {}
    for fam, obj in families.items():
        if obj["p"] != p or obj["family"] != fam:
            return f"coeffs: header {obj['p']}/{obj['family']}"
        vals[fam] = dict(zip(obj["indices"], (Fraction(v) for v in obj["values"])))
    for (i, j), c in dickson(p).items():
        if vals["c"].get(i) != c or j != (p - i) // 2:
            return f"coeffs --family c: Z^{i} coefficient {vals['c'].get(i)}, Dickson {c}"
    if len(vals["c"]) != half + 1:
        return f"coeffs --family c: {len(vals['c'])} values"
    err = check_system_C(p, [vals["C"][p - 2 * k] for k in range(half + 1)])
    if err:
        return f"coeffs --family C: {err}"
    a = [vals["a"][2 * k] for k in range(half + 1)]
    c = [vals["c"][2 * k + 1] for k in range(half + 1)]
    cp = [vals["cprime"][2 * j + 1] for j in range((p - 3) // 2 + 1)]
    u = vals["u"]

    def at(seq, i):
        return seq[i] if 0 <= i < len(seq) else 0

    for k in range(1, p):
        s = sum(at(a, j) * at(a, k - j) for j in range(k + 1))
        if s != u[k]:
            return f"coeffs: s_{k}={s} from family a, u_{k}={u[k]}"
        if k >= 2:
            t = sum(at(c, j) * at(cp, k - j - 1) for j in range(k))
            if t != u[k]:
                return f"coeffs: t_{k}={t} from families c, cprime, u_{k}={u[k]}"
    return None


def check_cli_verify(obj, p_max: int) -> str | None:
    ps = [r["p"] for r in obj]
    if ps != list(range(3, p_max + 1, 2)):
        return f"verify: reports for p={ps}"
    for r in obj:
        names = {c["name"] for c in r["checks"]}
        if not r["ok"] or names != expected_check_names(r["p"], "all"):
            return f"verify: report for p={r['p']} ok={r['ok']}"
        if not all(c["pass"] for c in r["checks"]):
            return f"verify: report for p={r['p']} has a failed check"
    return None


def check_cli_selftest(obj: dict) -> str | None:
    if not obj["ok"] or not obj["checks"] or not all(c["pass"] for c in obj["checks"]):
        return f"selftest: ok={obj['ok']}"
    return None
