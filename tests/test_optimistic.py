"""Corrected potential values: volume, Chern-Simons part, cross-checks."""

import mpmath
import numpy as np
import pytest

from optlim import (ALT_NEG_LOG, SolveConfig, assemble_V, assemble_W, build_diagram,
                    build_system, builtin, bw_volume, mod_eq, parse_pd, refine, sign_flip,
                    sign_flip_point, solve, w0)
from optlim import numerics, twistknot
from optlim.equations import EvaluationError
from optlim.numerics import PI2, bloch_wigner
from optlim.optimistic import w0_batch

from conftest import (BORROMEAN_PD, WHITEHEAD_PD, make_rng, random_essential_assignment,
                      w0_oracle)
from oracles import twist_potential

FOUR_PI2 = 4 * PI2


def twist_solution(n, t_hint):
    roots = twistknot.poly_roots(twistknot.defining_poly(n))
    t = min(roots, key=lambda r: abs(r - t_hint))
    assert abs(t - t_hint) < 1e-3
    return twistknot.parametrize(n, t)


class TestW0Values:
    def test_figure_eight_root(self):
        par = twist_solution(1, complex(2, 1.1547))
        res = w0(twist_potential(1), par.assignment)
        assert res.raw.real == pytest.approx(0.0, abs=5e-4)
        assert res.raw.imag == pytest.approx(2.0299, abs=5e-4)
        assert res.cs_mod_pi2 == pytest.approx(0.0, abs=5e-4)

    def test_unreduced_value_beyond_pi_squared(self):
        par = twist_solution(4, complex(1.1713, 1.0202))
        res = w0(twist_potential(4), par.assignment)
        # raw real part exceeds pi^2: the unreduced principal-branch value
        assert -res.raw.real == pytest.approx(10.9583, abs=5e-4)
        assert res.raw.imag == pytest.approx(3.3317, abs=5e-4)
        assert abs(res.raw.real) > PI2
        assert abs(res.cs_mod_pi2) <= PI2 / 2

    def test_rescaled_solution_shifts_by_4pi2(self):
        par = twist_solution(2, complex(1.4587, 1.0682))
        p = twist_potential(2)
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
        res = w0(twist_potential(1), par.assignment)
        assert len(res.mu_integers) == 6
        assert all(isinstance(k, int) for k in res.mu_integers)

    def test_rejects_non_solutions(self, fig8):
        p = assemble_W(fig8)
        rng = make_rng(43)
        a = random_essential_assignment(p, rng)
        with pytest.raises(EvaluationError):
            w0(p, a)


def closed_form_points(n, kind):
    """The closed-form solutions of twist index n on the region (W, W-alt)
    or side (V) variables."""
    pars = [twistknot.parametrize(n, t) for t in twistknot.poly_roots(twistknot.defining_poly(n))]
    return [par.sides if kind == "V" else par.regions for par in pars]


def twist_potential_of_kind(n, kind):
    d = builtin(f"T{n}")
    if kind == "V":
        return assemble_V(d)
    return assemble_W(d, variant=ALT_NEG_LOG if kind == "W-alt" else "default")


def result_bits(results):
    """Every float of a list of OptimisticResult, as bytes."""
    return np.array([(r.raw.real, r.raw.imag, r.vol, r.cs_mod_pi2,
                      np.nan if r.bw_vol is None else r.bw_vol) for r in results]).tobytes()


class TestOnePassW0:
    @pytest.mark.parametrize("kind", ["W", "W-alt", "V"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_mpmath_oracle_at_twist_points(self, n, kind):
        p = twist_potential_of_kind(n, kind)
        for a in closed_form_points(n, kind):
            res = w0(p, a)
            raw, integers = w0_oracle(p, a)
            assert abs(res.raw - raw) < 1e-12
            assert res.mu_integers == integers

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_mpmath_oracle_at_sign_flips(self, n):
        p = twist_potential_of_kind(n, "W-alt")
        points = closed_form_points(n, "W-alt")
        rng = make_rng(90 + n)
        for i in range(20):
            taus = {v: int(rng.choice((-1, 1))) for v in p.variables}
            eps = {v: int(rng.choice((-1, 1))) for v in p.variables}
            point = sign_flip_point(p, taus, eps, points[i % len(points)])
            flipped = sign_flip(p, taus, eps)
            res = w0(flipped, point)
            raw, integers = w0_oracle(flipped, point)
            assert abs(res.raw - raw) < 1e-12
            assert res.mu_integers == integers

    @pytest.mark.parametrize("kind", ["W", "W-alt", "V"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_batch_rows_equal_single_calls(self, n, kind):
        p = twist_potential_of_kind(n, kind)
        points = closed_form_points(n, kind)
        batch = w0_batch(p, points)
        single = [w0(p, a) for a in points]
        assert [r.mu_integers for r in batch] == [r.mu_integers for r in single]
        assert result_bits(batch) == result_bits(single)

    @pytest.mark.parametrize("kind", ["W", "W-alt"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_single_equals_batch_row_at_sign_flips(self, n, kind):
        # The path of the sign-flip trials: w0 of a flipped potential at its
        # flipped point, against the one-row batch, every field bit for bit.
        p = twist_potential_of_kind(n, kind)
        points = closed_form_points(n, kind)
        rng = make_rng(130 + n)
        for i in range(20):
            taus = {v: int(rng.choice((-1, 1))) for v in p.variables}
            eps = {v: int(rng.choice((-1, 1))) for v in p.variables}
            point = sign_flip_point(p, taus, eps, points[i % len(points)])
            flipped = sign_flip(p, taus, eps)
            single, row = w0(flipped, point), w0_batch(flipped, [point])[0]
            assert single == row and single.bw_vol is not None
            assert result_bits([single]) == result_bits([row])

    def test_empty_batch(self, fig8):
        assert w0_batch(assemble_W(fig8), []) == []


def bw_volume_reference(diagram, a):
    """The Bloch-Wigner sum crossing by crossing, one scalar bloch_wigner
    call per tetrahedron."""
    total = 0.0
    for cr in diagram.crossings:
        wj, wk, wl, wm = (complex(a[r]) for r in cr.regions)
        total += cr.sign * (bloch_wigner(wm / wj) + bloch_wigner(wk / wj)
                            - bloch_wigner(wl / wk) - bloch_wigner(wl / wm)
                            + bloch_wigner(wj * wl / (wk * wm)))
    return total


class TestBlochWignerVolume:
    def test_equals_the_per_crossing_sum(self, fig8, fig8_w_solutions):
        cases = [(builtin(f"T{n}"), a) for n in range(1, 6) for a in closed_form_points(n, "W")]
        cases += [(fig8, s.assignment) for s in fig8_w_solutions]
        for d, a in cases:
            assert abs(bw_volume(d, a) - bw_volume_reference(d, a)) < 1e-13

    def test_degenerate_inputs_raise(self, fig8):
        with pytest.raises(EvaluationError, match="non-essential assignment"):
            bw_volume(fig8, {r: 1.0 for r in fig8.regions})
        with pytest.raises(EvaluationError, match="zero variable value"):
            bw_volume(fig8, {r: float(i) for i, r in enumerate(fig8.regions)})

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
            res = w0(p, s)
            assert res.bw_vol == pytest.approx(res.raw.imag, abs=1e-9)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_sign_flipped_w_keeps_the_base_value(self, n):
        # w -> tau * w^eps maps every Li2 argument at the flipped point to
        # the base argument at the base point.  A tau alone only negates
        # factors, so the volume is the same float; an eps of -1 forms the
        # argument from rounded reciprocals, so it agrees to rounding.
        p = assemble_W(builtin(f"T{n}"))
        points = closed_form_points(n, "W")
        base = w0_batch(p, points)
        rng = make_rng(110 + n)
        for i in range(40):
            taus = {v: int(rng.choice((-1, 1))) for v in p.variables}
            eps = {v: 1 if i % 2 else int(rng.choice((-1, 1))) for v in p.variables}
            a = points[i % len(points)]
            res = w0(sign_flip(p, taus, eps), sign_flip_point(p, taus, eps, a))
            want = base[i % len(points)].bw_vol
            if i % 2:
                assert res.bw_vol == want
            else:
                assert abs(res.bw_vol - want) < 1e-13

    def test_none_on_the_side_potential(self):
        p = assemble_V(builtin("T2"))
        assert all(r.bw_vol is None for r in w0_batch(p, closed_form_points(2, "V")))

    def test_mismatched_diagram_rejected(self):
        p = assemble_W(builtin("T1"))
        a = closed_form_points(1, "W")[0]
        assert w0(p, a, diagram=builtin("T1")) == w0(p, a)
        for d in (builtin("T2"), builtin("4_1")):
            with pytest.raises(ValueError, match="regions are not the potential's variables"):
                w0(p, a, diagram=d)
        with pytest.raises(ValueError, match="regions are not the potential's variables"):
            w0(assemble_V(builtin("T1")), closed_form_points(1, "V")[0], diagram=builtin("T1"))


def li2_counter(monkeypatch):
    """Calls of numerics._li2, the array dilogarithm behind li2 and
    bloch_wigner."""
    calls = []
    original = numerics._li2

    def counting(z):
        calls.append(z.shape)
        return original(z)

    monkeypatch.setattr(numerics, "_li2", counting)
    return calls


class TestSharedLi2Pass:
    """w0_batch on a region potential reads the Bloch-Wigner volume from
    W's own Li2 arguments and li2 values: one li2 call over the dilogarithm
    terms, and the values bw_volume gives."""

    @pytest.mark.parametrize("kind", ["W", "W-alt"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_bitwise_equal_to_separate_passes(self, n, kind):
        p = twist_potential_of_kind(n, kind)
        d = builtin(f"T{n}")
        points = closed_form_points(n, kind)
        shared = w0_batch(p, points)
        bw = np.array([r.bw_vol for r in shared])
        assert bw.tobytes() == np.array([bw_volume(d, a) for a in points]).tobytes()
        assert np.all(np.abs(bw - [bw_volume_reference(d, a) for a in points]) < 1e-13)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_one_li2_call(self, n, monkeypatch):
        d = builtin(f"T{n}")
        p = assemble_W(d)
        points = closed_form_points(n, "W")
        build_system(p)
        calls = li2_counter(monkeypatch)
        w0_batch(p, points)
        w0(p, points[0])
        ndilog = 5 * len(d.crossings)        # the dilogarithm terms, no second set of shapes
        # the batch as rows of one array, the single point as a vector
        assert calls == [(len(points), ndilog), (ndilog,)]

    def test_w0_errors_come_first(self, fig8):
        # The volume is read after W0, so degenerate inputs raise W0's errors.
        p = assemble_W(fig8)
        a = random_essential_assignment(p, make_rng(44))
        j, k, _, _ = fig8.crossings[0].regions
        a[k] = a[j]                        # the shape wk/wj is 1, and so is a W argument
        for f in (lambda: w0(p, a), lambda: bw_volume(fig8, a)):
            with pytest.raises(EvaluationError, match="non-essential assignment"):
                f()
        a = random_essential_assignment(p, make_rng(45))
        with pytest.raises(EvaluationError, match="not a solution"):
            w0(p, a)
        a[fig8.regions[0]] = 0.0
        for f in (lambda: w0(p, a), lambda: bw_volume(fig8, a)):
            with pytest.raises(EvaluationError, match="zero variable value"):
                f()


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


class TestLinks:
    @pytest.mark.parametrize("pd_text,catalans,cs", [
        (WHITEHEAD_PD, 4, -PI2 / 4),
        (BORROMEAN_PD, 8, 0.0),
    ], ids=["whitehead", "borromean"])
    def test_geometric_class_on_w_and_v(self, pd_text, catalans, cs):
        # Both potentials reach the volume catalans * G, and their
        # geometric classes carry the same Chern-Simons value.
        d = build_diagram(parse_pd(pd_text))
        for assemble in (assemble_W, assemble_V):
            p = assemble(d)
            results = [w0(p, s) for s in solve(build_system(p), SolveConfig(restarts=512, seed=0))]
            top = max(r.vol for r in results)
            assert top == pytest.approx(catalans * float(mpmath.catalan), abs=1e-9)
            for r in results:
                if top - r.vol <= 1e-9:
                    assert r.cs_mod_pi2 == pytest.approx(cs, abs=1e-9)
