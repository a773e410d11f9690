"""Corrected potential values: volume, Chern-Simons part, cross-checks."""

import pytest

from optlim import (ALT_NEG_LOG, assemble_W, build_system, builtin, bw_volume,
                    mod_eq, refine, w0)
from optlim import twistknot
from optlim.equations import EvaluationError
from optlim.numerics import PI2

from conftest import make_rng, random_essential_assignment

FOUR_PI2 = 4 * PI2


def twist_solution(n, t_hint):
    roots = twistknot.poly_roots(twistknot.defining_poly(n))
    t = min(roots, key=lambda r: abs(r - t_hint))
    assert abs(t - t_hint) < 1e-3
    return twistknot.parametrize(n, t)


class TestW0Values:
    def test_figure_eight_root(self):
        par = twist_solution(1, complex(2, 1.1547))
        res = w0(twistknot.twist_potential(1), par.assignment)
        assert res.raw.real == pytest.approx(0.0, abs=5e-4)
        assert res.raw.imag == pytest.approx(2.0299, abs=5e-4)
        assert res.cs_mod_pi2 == pytest.approx(0.0, abs=5e-4)

    def test_unreduced_value_beyond_pi_squared(self):
        par = twist_solution(4, complex(1.1713, 1.0202))
        res = w0(twistknot.twist_potential(4), par.assignment)
        # raw real part exceeds pi^2: the unreduced principal-branch value
        assert -res.raw.real == pytest.approx(10.9583, abs=5e-4)
        assert res.raw.imag == pytest.approx(3.3317, abs=5e-4)
        assert abs(res.raw.real) > PI2
        assert abs(res.cs_mod_pi2) <= PI2 / 2

    def test_rescaled_solution_shifts_by_4pi2(self):
        par = twist_solution(2, complex(1.4587, 1.0682))
        p = twistknot.twist_potential(2)
        base = w0(p, par.assignment)
        rng = make_rng(41)
        for _ in range(10):
            lam = complex(*rng.uniform(-3, 3, 2))
            if abs(lam) < 0.2:
                continue
            scaled = {v: lam * val for v, val in par.assignment.items()}
            res = w0(p, scaled)
            shift = (res.raw - base.raw).real / FOUR_PI2
            assert abs(res.raw.imag - base.raw.imag) < 1e-9
            assert abs(shift - round(shift)) < 1e-9

    def test_mu_integers_recorded(self):
        par = twist_solution(1, complex(2, 1.1547))
        res = w0(twistknot.twist_potential(1), par.assignment)
        assert len(res.mu_integers) == 6
        assert all(isinstance(k, int) for k in res.mu_integers)

    def test_rejects_non_solutions(self, fig8):
        p = assemble_W(fig8)
        rng = make_rng(43)
        a = random_essential_assignment(p, rng)
        with pytest.raises(EvaluationError):
            w0(p, a)


class TestBlochWignerVolume:
    def test_figure_eight_geometric(self):
        par = twist_solution(1, complex(2, 1.1547))
        d = builtin("T1")
        assert bw_volume(d, par.assignment) == pytest.approx(2.0298832128193074,
                                                             abs=1e-9)

    def test_real_parameter_row_has_zero_volume(self):
        par = twist_solution(2, complex(2.7969, 0.0))
        d = builtin("T2")
        assert abs(bw_volume(d, par.assignment)) < 1e-9

    def test_conjugation_negates(self):
        par = twist_solution(2, complex(1.4587, 1.0682))
        d = builtin("T2")
        conj = {v: val.conjugate() for v, val in par.assignment.items()}
        assert bw_volume(d, conj) == pytest.approx(-bw_volume(d, par.assignment),
                                                   abs=1e-9)

    def test_matches_imaginary_part(self, fig8, fig8_w_solutions):
        p = assemble_W(fig8)
        for s in fig8_w_solutions:
            res = w0(p, s, diagram=fig8)
            assert res.bw_vol == pytest.approx(res.raw.imag, abs=1e-9)


class TestModEq:
    def test_equal(self):
        assert mod_eq(1 + 2j, 1 + 2j, FOUR_PI2, 1e-9)

    def test_real_shift_by_modulus(self):
        assert mod_eq(1 + 2j + FOUR_PI2, 1 + 2j, FOUR_PI2, 1e-9)

    def test_quarter_shift_fails(self):
        assert not mod_eq(1 + 2j + PI2, 1 + 2j, FOUR_PI2, 1e-9)

    def test_imaginary_shift_fails(self):
        assert not mod_eq(1 + 2j + 1j, 1 + 2j, FOUR_PI2, 1e-9)

    def test_modulus_validated(self):
        with pytest.raises(ValueError):
            mod_eq(0, 0, -1.0, 1e-9)


def test_w0_uses_the_potentials_system(build_counter):
    p = assemble_W(builtin("T2"))
    system = build_system(p)
    for t in twistknot.poly_roots(twistknot.defining_poly(2)):
        w0(p, twistknot.parametrize(2, t).assignment)
    assert build_counter == ["W"]
    assert build_system(p) is system


class TestInvariances:
    def test_component_constancy_under_refinement(self, fig8, fig8_w_solutions):
        p = assemble_W(fig8)
        system = build_system(p)
        rng = make_rng(47)
        base = fig8_w_solutions[0]
        raw0 = w0(p, base).raw
        for _ in range(5):
            noise = 1e-5 * (rng.standard_normal(system.size)
                            + 1j * rng.standard_normal(system.size))
            shifted = dict(base.assignment)
            for v, dz in zip(system.unknowns, noise):
                shifted[v] = shifted[v] + dz
            sol = refine(system, shifted)
            raw1 = w0(p, sol).raw
            assert mod_eq(raw1, raw0, FOUR_PI2, 1e-8)

    def test_variant_independence_mod_4pi2(self):
        for n in (1, 2):
            d = builtin(f"T{n}")
            p_default = assemble_W(d)
            p_alt = assemble_W(d, variant=ALT_NEG_LOG)
            for t in twistknot.poly_roots(twistknot.defining_poly(n)):
                a = twistknot.parametrize(n, t).assignment
                r1 = w0(p_default, a)
                r2 = w0(p_alt, a)
                assert mod_eq(r1.raw, r2.raw, FOUR_PI2, 1e-9)

    def test_cs_reduced_to_centered_interval(self, knot52, knot52_w_solutions):
        p = assemble_W(knot52)
        for s in knot52_w_solutions:
            res = w0(p, s)
            assert -PI2 / 2 < res.cs_mod_pi2 <= PI2 / 2
