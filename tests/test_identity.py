from fractions import Fraction

import pytest

from radreduce.construct import (
    InstanceParams,
    cofactor_poly,
    cofactor_symbolic,
    sqrt_part_poly,
    sqrt_part_symbolic,
    trace_poly,
    trace_poly_symbolic,
)
from radreduce.identity import (
    fundamental_identity_sides,
    verify_all,
    verify_expansion,
    verify_fundamental_identity,
    verify_recurrences,
)
from radreduce.poly import ParamPoly, Poly

F = Fraction


def fpoly(*coeffs):
    return Poly([F(c) for c in coeffs])


class TestExpansion:
    def test_cubic_by_hand(self):
        # (X+1)^3 - 3X(X+1) = X^3 + 1, checked with direct polynomial arithmetic.
        x_plus_1 = fpoly(1, 1)
        lhs = x_plus_1**3 - fpoly(0, 3) * x_plus_1
        assert lhs == fpoly(1, 0, 0, 1)
        assert verify_expansion(3).ok

    def test_quintic_by_hand(self):
        x_plus_1 = fpoly(1, 1)
        lhs = x_plus_1**5 - fpoly(0, 5) * x_plus_1**3 + fpoly(0, 0, 5) * x_plus_1
        assert lhs == fpoly(1, 0, 0, 0, 0, 1)
        assert verify_expansion(5).ok

    @pytest.mark.parametrize("p", list(range(3, 30, 2)) + [199])
    def test_sweep(self, p):
        report = verify_expansion(p)
        assert report.ok, [c for c in report.checks if not c.passed]


    def test_closed_form_is_cross_checked(self, monkeypatch):
        import radreduce.identity as identity_mod

        real = identity_mod.coeff_c
        monkeypatch.setattr(identity_mod, "coeff_c", lambda p, k: real(p, k) + (k == 2))
        check = verify_expansion(9).checks[0]
        assert check.name == "system-solution-matches-closed-form"
        assert not check.passed
        assert check.witness == "index k=2: system 27, closed form 28"

    def test_system_solution_is_cross_checked(self, monkeypatch):
        import radreduce.identity as identity_mod

        real = identity_mod.system_C
        monkeypatch.setattr(
            identity_mod, "system_C", lambda p: [c + (k == 2) for k, c in enumerate(real(p))]
        )
        # C_5 = 27 becomes 28, which adds X^2 (X+1)^5 to the expansion.
        assert _failing(verify_expansion(9)) == {
            "system-solution-matches-closed-form": "index k=2: system 28, closed form 27",
            "expansion-reconstructs-with-system-coefficients": "X^2: left 1, right 0",
        }


class TestFundamentalIdentity:
    @pytest.mark.parametrize("p", range(3, 30, 2))
    def test_symbolic(self, p):
        report = verify_fundamental_identity(p)
        assert report.ok, [c for c in report.checks if not c.passed]

    @pytest.mark.parametrize(
        "p,d,R", [(3, -7, 50), (5, 2, 5), (7, -2158, 4656966), (5, F(1, 2), F(-3, 4))]
    )
    def test_concrete_cross_check(self, p, d, R):
        # Independent route: build f, A, f' with plain rational coefficients
        # and check 4 D^2 R A^2 = f*f' + Z^2 - 4D as concrete polynomials.
        params = InstanceParams.create(p, d, R)
        f = trace_poly(params)
        A = sqrt_part_poly(params)
        fp = cofactor_poly(params)
        lhs = A * A * (4 * params.D**2 * params.R)
        rhs = f * fp + fpoly(-4 * params.D, 0, 1)
        assert lhs == rhs

    def test_substitution_cross_check(self):
        # Substitute the quintic golden parameters into both symbolic sides.
        # The sides are flat {(z, deg_d, deg_D): value} maps; substitute per z.
        lhs, rhs = fundamental_identity_sides(5)
        d0, D0 = F(2), F(-1)

        def at_golden(side):
            out = {}
            for (z, a, b), v in side.items():
                out[z] = out.get(z, 0) + v * d0**a * D0**b
            return {z: v for z, v in out.items() if v}

        assert at_golden(lhs) == at_golden(rhs)

    def test_left_degree(self):
        lhs, _ = fundamental_identity_sides(9)
        assert max(z for z, _, _ in lhs) == 2 * 9 - 2


class TestRecurrenceReport:
    @pytest.mark.parametrize("p", range(5, 30, 2))
    def test_sweep(self, p):
        report = verify_recurrences(p)
        assert report.ok, [c for c in report.checks if not c.passed]

    def test_requires_p_at_least_5(self):
        with pytest.raises(ValueError):
            verify_recurrences(3)

    def test_check_names(self):
        names = {c.name for c in verify_recurrences(7).checks}
        assert "s-symbolic-extraction" in names
        assert "t-symbolic-extraction" in names


def _perturb(poly: Poly, index: int) -> Poly:
    coeffs = list(poly.coeffs) + [ParamPoly()] * (index + 1 - len(poly.coeffs))
    coeffs[index] = coeffs[index] + ParamPoly.const(1)
    return Poly(coeffs)


class TestMutationDetection:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_any_single_coefficient_perturbation_fails(self, p):
        builders = {
            "trace": trace_poly_symbolic(p),
            "sqrt_num": sqrt_part_symbolic(p).numerator,
            "cofactor_num": cofactor_symbolic(p).numerator,
        }
        for which, original in builders.items():
            for index in range(original.degree + 1):
                mutated = _perturb(original, index)
                kwargs = {which: mutated}
                report = verify_fundamental_identity(p, **kwargs)
                failing = [c for c in report.checks if not c.passed]
                assert failing, f"perturbing {which}[{index}] at p={p} went undetected"
                assert any(
                    c.witness and "Z^" in c.witness for c in failing
                ), "failure must name a witness monomial"

    def test_witness_names_the_monomial(self):
        mutated = _perturb(trace_poly_symbolic(3), 2)
        report = verify_fundamental_identity(3, trace=mutated)
        bad = [c for c in report.checks if not c.passed][0]
        assert "Z^" in bad.witness and ("d^" in bad.witness or "D^" in bad.witness)


def _bumped(poly: Poly, index: int, bump: ParamPoly) -> Poly:
    coeffs = list(poly.coeffs) + [ParamPoly()] * (index + 1 - len(poly.coeffs))
    coeffs[index] = coeffs[index] + bump
    return Poly(coeffs)


def _failing(report) -> dict:
    return {c.name: c.witness for c in report.checks if not c.passed}


class TestWitnessText:
    """Failing reports name their witness exactly as the Poly-of-ParamPoly
    implementation of these checks did; the literals are copied from it."""

    def test_sabotaged_trace_plus_one(self):
        trace = _bumped(trace_poly_symbolic(5), 2, ParamPoly.const(1))
        assert _failing(verify_fundamental_identity(5, trace=trace)) == {
            "fundamental-identity": "Z^2: coefficient of d^1*D^1: left 0, right -2"
        }

    def test_sabotaged_trace_negative_fraction(self):
        trace = _bumped(trace_poly_symbolic(5), 2, ParamPoly.monomial(F(-7, 3), 1, 2))
        assert _failing(verify_fundamental_identity(5, trace=trace)) == {
            "fundamental-identity": "Z^2: coefficient of d^2*D^3: left 0, right 14/3"
        }

    def test_left_side_degree(self):
        at = _bumped(sqrt_part_symbolic(5).numerator, 5, ParamPoly.const(1))
        assert _failing(verify_fundamental_identity(5, sqrt_num=at)) == {
            "fundamental-identity": "Z^5: coefficient of d^0*D^2: left 4, right 0",
            "left-side-degree": "degree 10, expected 8",
        }

    def test_s_extraction_with_patched_a(self, monkeypatch):
        import radreduce.identity as identity_mod

        real = identity_mod.coeff_a
        monkeypatch.setattr(identity_mod, "coeff_a", lambda p, k: real(p, k) + (k == 1))
        assert _failing(verify_recurrences(9)) == {
            "s-equals-closed-form": "k=1: s=-60, closed form -64",
            "s-two-term-recurrence": "fails at k=1",
            "s-symbolic-extraction": "Z^4: extracted 336*D^6, expected 305*D^6",
        }

    def test_t_extraction_with_patched_c(self, monkeypatch):
        import radreduce.identity as identity_mod

        real = identity_mod.coeff_c
        monkeypatch.setattr(identity_mod, "coeff_c", lambda p, k: real(p, k) + (k == 1))
        assert _failing(verify_recurrences(9)) == {
            "t-equals-closed-form": "k=2: t=329, closed form 336",
            "t-three-term-recurrence": "fails at k=2",
            "t-symbolic-extraction": "Z^4: extracted 336*D^6, expected 329*D^6",
        }

    def test_extraction_slot_with_an_extra_term(self):
        at = _bumped(sqrt_part_symbolic(9).numerator, 4, ParamPoly.monomial(F(-1, 2), 1, 0))
        sides = fundamental_identity_sides(9, sqrt_num=at)
        assert _failing(verify_recurrences(9, sides)) == {
            "s-symbolic-extraction": "Z^4: extracted 336*D^6 - 2*d*D^4, expected 336*D^6"
        }

    def test_extraction_slot_with_a_cancelled_term(self):
        coeffs = list(cofactor_symbolic(9).numerator.coeffs)
        coeffs[3] = ParamPoly()
        sides = fundamental_identity_sides(9, cofactor_num=Poly(coeffs))
        assert _failing(verify_recurrences(9, sides)) == {
            "t-symbolic-extraction": "Z^4: extracted 210*D^6, expected 336*D^6"
        }


class TestNoPolyProducts:
    def test_verify_all_multiplies_no_poly_or_parampoly(self, monkeypatch):
        # The identity sides are multiplied as flat maps and the construct
        # denominators are literals, so no Poly/ParamPoly product runs.
        calls = []
        for owner, name in ((Poly, "__mul__"), (ParamPoly, "__mul__"), (ParamPoly, "__rmul__")):
            real = getattr(owner, name)
            monkeypatch.setattr(
                owner,
                name,
                lambda *args, real=real, label=f"{owner.__name__}.{name}": (
                    calls.append(label) or real(*args)
                ),
            )
        assert verify_all(9).ok
        assert calls == []


class TestCombinedReport:
    def test_merges_all_checks(self):
        report = verify_all(7)
        assert report.ok
        names = [c.name for c in report.checks]
        assert "fundamental-identity" in names
        assert "expansion-reconstructs-with-system-coefficients" in names
        assert "s-two-term-recurrence" in names

    def test_small_p_skips_recurrences(self):
        names = [c.name for c in verify_all(3).checks]
        assert "s-two-term-recurrence" not in names

    @pytest.mark.parametrize("p", range(3, 22, 2))
    def test_shared_products_match_standalone_checks(self, p):
        checks = verify_expansion(p).to_json()["checks"]
        checks += verify_fundamental_identity(p).to_json()["checks"]
        if p >= 5:
            checks += verify_recurrences(p).to_json()["checks"]
        assert verify_all(p).to_json() == {"p": p, "ok": True, "checks": checks}

    def test_report_json_shape(self):
        obj = verify_all(5).to_json()
        assert obj["p"] == 5 and obj["ok"] is True
        assert all(set(c) == {"name", "pass", "witness"} for c in obj["checks"])
