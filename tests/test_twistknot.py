"""Twist-knot family: polynomials, parametrization, reference table."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from optlim import assemble_V, assemble_W, build_system, builtin, evaluate
from optlim.twistknot import (DEFINING_POLYNOMIALS, REFERENCE_TOL, TwistError, defining_poly,
                              fixtures_json, match_reference_row, parametrize, poly_roots,
                              reproduce_reference_table)

from oracles import (eval_poly, recurrence_closure, recurrence_polynomial, reference_rows,
                     region_closed_form, twist_potential)


class TestDefiningPolynomials:
    def test_exact_coefficients(self):
        assert defining_poly(1) == [16, -12, 3]
        assert defining_poly(3) == [256, -448, 336, -120, 17]
        assert defining_poly(5) == [4096, -11264, 14080, -9984, 4192, -980, 99]

    def test_out_of_range(self):
        for n in (0, 6, -1):
            with pytest.raises(TwistError):
                defining_poly(n)

    def test_degree_matches_row_count(self):
        for n in range(1, 6):
            assert len(defining_poly(n)) - 1 == len(reference_rows(n))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_table_is_the_closure_of_the_recurrence(self, n):
        # The printed table holds the primitive polynomial times its content.
        content = 2 if n == 4 else 1
        assert math.gcd(*DEFINING_POLYNOMIALS[n]) == content
        assert DEFINING_POLYNOMIALS[n] == [content * c for c in recurrence_polynomial(n)]

    def test_leading_and_constant_coefficients(self):
        leads = []
        for n in range(1, 6):
            p = DEFINING_POLYNOMIALS[n]
            content = math.gcd(*p)
            assert p[-1] > 0
            leads.append(p[-1] // content)
            assert p[0] == content * (-4) ** (n + 1)
        assert leads == [3, 7, 17, 41, 99]
        assert all(a == 2 * b + c for a, b, c in zip(leads[2:], leads[1:], leads))


class TestPolyRoots:
    def test_quadratic(self):
        roots = poly_roots([16, -12, 3])
        expected = 2 + 2 / math.sqrt(3) * 1j
        assert min(abs(r - expected) for r in roots) < 1e-12
        assert min(abs(r - expected.conjugate()) for r in roots) < 1e-12

    def test_cubic_real_root(self):
        roots = poly_roots(defining_poly(2))
        assert min(abs(r - 2.7969) for r in roots) < 1e-3

    def test_linear(self):
        assert poly_roots([-1, 1]) == [1 + 0j]

    def test_residuals_small(self):
        for n in range(1, 6):
            coeffs = defining_poly(n)
            scale = max(abs(c) for c in coeffs)
            for r in poly_roots(coeffs):
                assert abs(eval_poly(coeffs, r)) < 1e-10 * scale

    def test_degenerate_rejected(self):
        with pytest.raises(TwistError):
            poly_roots([3.0])

    def test_polish_equals_polynomial_objects(self):
        # The Newton polish by np.polynomial.Polynomial objects is the
        # reference; polyval gives its roots bit for bit, the
        # imaginary zeros of the real roots included.
        for coeffs in [defining_poly(n) for n in range(1, 6)] + [[1, 2, 1], [-1, 0, 0, 1]]:
            c = [complex(v) for v in coeffs]
            poly = np.polynomial.Polynomial(c)
            dpoly = poly.deriv()
            expected = []
            for r in np.roots(c[::-1]):
                for _ in range(3):
                    d = dpoly(r)
                    if d == 0:
                        break
                    r = r - poly(r) / d
                expected.append(complex(r))
            expected.sort(key=lambda z: (round(z.real, 12), z.imag))
            assert np.array(poly_roots(coeffs)).tobytes() == np.array(expected).tobytes()


class TestParametrize:
    def test_pinned_boundary_values(self):
        t = poly_roots(defining_poly(3))[0]
        par = parametrize(3, t)
        assert par.sides["a"] == 2
        assert par.sides["b"] == -1
        assert par.x(4) == 3.0
        assert par.y(4) == 1.0

    def test_region_closed_forms_all_roots(self):
        # double-entry bookkeeping: recurrence values vs closed forms
        for n in range(1, 6):
            for t in poly_roots(defining_poly(n)):
                par = parametrize(n, t)
                for k in range(0, n + 2):
                    expected = region_closed_form(k, t)
                    assert abs(par.w(k) - expected) < 1e-10 * max(1.0, abs(expected))

    def test_recurrence_closure_at_roots(self):
        for n in range(1, 6):
            for t in poly_roots(defining_poly(n)):
                xc, yc = recurrence_closure(n, t)
                assert abs(xc - 3.0) < 1e-9
                assert abs(yc - 1.0) < 1e-9

    def test_real_root_gives_real_data(self):
        t = next(r for r in poly_roots(defining_poly(2)) if abs(r.imag) < 1e-12)
        par = parametrize(2, t)
        for val in par.assignment.values():
            assert abs(val.imag) < 1e-10

    def test_w_system_residuals(self):
        for n in range(1, 6):
            system = build_system(assemble_W(builtin(f"T{n}")))
            for t in poly_roots(defining_poly(n)):
                a = parametrize(n, t).assignment
                x = [a[v] / a[system.pin] for v in system.unknowns]
                assert np.max(np.abs(system.residual_vector(x))) < 1e-9

    def test_v_system_residuals(self):
        for n in range(1, 6):
            system = build_system(assemble_V(builtin(f"T{n}")))
            for t in poly_roots(defining_poly(n)):
                a = parametrize(n, t).assignment
                x = [a[v] / a[system.pin] for v in system.unknowns]
                assert np.max(np.abs(system.residual_vector(x))) < 1e-9

    def test_t_zero_rejected(self):
        with pytest.raises(TwistError):
            parametrize(1, 0.0)

    def test_t_three_rejected(self):
        with pytest.raises(TwistError):
            parametrize(1, 3.0)

    def test_x1_denominator_rejected(self):
        # t^2 - 4t + 8 vanishes at t = 2 + 2i
        with pytest.raises(TwistError, match="^denominator of x1 vanishes$"):
            parametrize(1, 2 + 2j)

    def test_vanishing_side_value_rejected(self):
        # t = -2 makes x1 = 0: at n = 1 the side value vanishes, at n = 2
        # the recurrence's -x0 + x1 + y1 does first
        with pytest.raises(TwistError, match="^side value vanished at step 1$"):
            parametrize(1, -2.0)
        with pytest.raises(TwistError, match="^recurrence denominator vanished at step 1$"):
            parametrize(2, -2.0)


class TestTwistPotential:
    def test_matches_diagram_assembly(self):
        for n in range(1, 6):
            direct = twist_potential(n)
            assembled = assemble_W(builtin(f"T{n}"))
            assert direct.variables == assembled.variables
            assert Counter(direct.terms) == Counter(assembled.terms)

    def test_term_counts(self):
        for n in range(1, 6):
            p = twist_potential(n)
            dilogs = [t for t in p.terms if t.kind == "dilog"]
            assert len(dilogs) == 5 * (n + 3)

    def test_variables_for_n1(self):
        assert twist_potential(1).variables == ("c", "d", "e", "w0", "w1", "w2")

    def test_same_value_along_both_paths(self):
        # identical term multisets must evaluate identically at solutions
        for n in (1, 2):
            assembled = assemble_W(builtin(f"T{n}"))
            direct = twist_potential(n)
            for t in poly_roots(defining_poly(n)):
                a = parametrize(n, t).assignment
                assert abs(evaluate(direct, a) - evaluate(assembled, a)) < 1e-9


class TestReferenceTable:
    def test_row_counts(self):
        assert [len(reference_rows(n)) for n in range(1, 6)] == [2, 3, 4, 5, 6]

    def test_all_rows_reproduced(self):
        for n in range(1, 6):
            rows = reproduce_reference_table(n)
            assert len(rows) == len(reference_rows(n))
            assert all(r["pass"] for r in rows)

    def test_unmatched_t_has_no_row(self):
        t = poly_roots(defining_poly(5))[0]
        assert match_reference_row(5, t) is not None
        assert match_reference_row(5, t + 2 * REFERENCE_TOL) is None
        assert match_reference_row(5, 100.0 + 0j) is None

    def test_specific_values(self):
        rows = {complex(round(r["t"].real, 4), round(r["t"].imag, 4)): r
                for r in reproduce_reference_table(5)}
        hit = min(rows, key=lambda z: abs(z - complex(1.1208, 1.0129)))
        r = rows[hit]
        assert r["vol"] == pytest.approx(3.4272, abs=5e-4)
        assert -r["raw"].real == pytest.approx(15.3545, abs=5e-4)

    def test_conjugate_pairing(self):
        for n in range(1, 6):
            rows = reproduce_reference_table(n)
            by_t = {complex(round(r["t"].real, 9), round(r["t"].imag, 9)): r
                    for r in rows}
            for t, r in by_t.items():
                mate = by_t.get(t.conjugate())
                assert mate is not None
                assert r["raw"].imag == pytest.approx(-mate["raw"].imag, abs=1e-9)
                assert r["raw"].real == pytest.approx(mate["raw"].real, abs=1e-9)

    def test_bw_volume_agrees(self):
        for r in reproduce_reference_table(4):
            assert r["bw_vol"] == pytest.approx(r["raw"].imag, abs=1e-9)


def test_reference_table_builds_one_system_per_index(build_counter):
    for n in range(1, 6):
        reproduce_reference_table(n)
    assert build_counter == ["W"] * 5


class TestFixtures:
    def test_json_exports(self):
        doc = json.loads(fixtures_json())
        assert set(doc["rows"]) == {"1", "2", "3", "4", "5"}
        assert sum(len(v) for v in doc["rows"].values()) == 20
        assert doc["defining_polynomials"]["1"] == [16, -12, 3]
