"""Region/side bridge: conversions, congruence, sign flips, octahedra."""

import dataclasses
import gc
import math
import re
import types
import weakref
from collections import Counter

import numpy as np
import pytest

from optlim import (ALT_NEG_LOG, CorrespondenceError, EquationSystem, SolveConfig, assemble_V,
                    assemble_W, build_diagram, build_system, builtin, check_w_nondegenerate,
                    check_z_nondegenerate, mod_eq, parse_pd, refine, sign_flip, sign_flip_point,
                    solve, verify_bridge, w0, w_to_z, z_to_w)
from optlim import twistknot
from optlim.correspondence import BRIDGE_TOL, region_ratios_from_z, side_ratios_from_w
from optlim.numerics import PI2
from optlim.potential import EvaluationError, Monomial, Potential, Term

from conftest import (KINKED_TREFOIL_PD, WHITEHEAD_PD, coefficients_term_by_term,
                      compiled_coefficients, make_rng, mu_oracle, random_essential_assignment)
from oracles import check_octahedron_identities, substituted_potential, twist_potential

FOUR_PI2 = 4 * PI2
TWO_PI2 = 2 * PI2


def twist_assignment(n, which=0):
    roots = twistknot.poly_roots(twistknot.defining_poly(n))
    return twistknot.parametrize(n, roots[which])


class TestNondegeneracy:
    def test_twist_solutions_nondegenerate(self):
        for n in range(1, 6):
            d = builtin(f"T{n}")
            for t in twistknot.poly_roots(twistknot.defining_poly(n)):
                a = twistknot.parametrize(n, t).assignment
                assert check_w_nondegenerate(d, a)
                assert check_z_nondegenerate(d, a)

    def test_constructed_degenerate(self, fig8):
        cr = fig8.crossings[0]
        j, k, l, m = cr.regions
        a = {r: complex(i + 1, 0.3 * i) for i, r in enumerate(fig8.regions)}
        a[l] = a[k] + a[m] - a[j]  # force wj + wl = wk + wm at one crossing
        assert not check_w_nondegenerate(fig8, a)

    def test_product_form_agrees_with_sum_form(self, fig8):
        # (e1)/(e2)-style products differ from 1 exactly when wj+wl != wk+wm
        p = assemble_W(fig8)
        rng = make_rng(53)
        for _ in range(100):
            a = random_essential_assignment(p, rng)
            sum_form = check_w_nondegenerate(fig8, a, tol=1e-12)
            prod_form = all(
                abs(v - 1.0) > 1e-9
                for cr in fig8.crossings
                for v in side_ratios_from_w(cr, a)
            )
            assert sum_form == prod_form

    def test_side_degeneracy_matches_ratio_products(self, fig8):
        # za != zc and zb != zd exactly when no derived region ratio equals 1
        pv = assemble_V(fig8)
        rng = make_rng(57)
        for _ in range(100):
            a = random_essential_assignment(pv, rng)
            sum_form = check_z_nondegenerate(fig8, a, tol=1e-12)
            products = []
            for cr in fig8.crossings:
                pairs, quad = region_ratios_from_z(cr, a)
                products.extend(val for _, val in pairs)
                products.append(quad)
            prod_form = all(abs(v - 1.0) > 1e-9 for v in products)
            assert sum_form == prod_form


class TestRatios:
    def test_cyclic_product_telescopes(self):
        par = twist_assignment(2)
        d = builtin("T2")
        for cr in d.crossings:
            r1, r2, r3, r4 = side_ratios_from_w(cr, par.assignment)
            assert abs(r1 * r2 * r3 * r4 - 1.0) < 1e-10

    def test_ratios_invert_each_other(self):
        par = twist_assignment(3)
        d = builtin("T3")
        a = par.assignment
        for cr in d.crossings:
            pairs, quad = region_ratios_from_z(cr, a)
            for (num, den), val in pairs:
                assert abs(a[num] / a[den] - val) < 1e-9 * max(1.0, abs(val))

    def test_zero_region_value_rejected(self):
        cr = builtin("T2").crossings[0]
        a = dict(twist_assignment(2).assignment)
        a[cr.regions[2]] = 0j
        with pytest.raises(CorrespondenceError, match="^zero region value$"):
            side_ratios_from_w(cr, a)

    def test_zero_side_value_rejected(self):
        cr = builtin("T2").crossings[0]
        a = dict(twist_assignment(2).assignment)
        a[cr.sides[1]] = 0j
        with pytest.raises(CorrespondenceError, match="^zero side value$"):
            region_ratios_from_z(cr, a)


class TestRatioOfOne:
    """A crossing ratio u of exactly 1 leaves u' = 1/(1-u) undefined; the
    nondegeneracy checks let such a point through, and the bridge names the
    crossing.  Each case sets two values of crossing i of T<n> equal, at a
    closed-form point; the first two are a positive and a negative
    crossing."""

    @pytest.mark.parametrize("n, i", [(1, 0), (2, 0), (3, 3)])
    def test_w_to_z_and_verify_bridge(self, n, i):
        d = builtin(f"T{n}")
        cr = d.crossings[i]
        a = dict(twist_assignment(n).regions)
        a[cr.regions[3]] = a[cr.regions[0]]
        assert check_w_nondegenerate(d, a)
        msg = re.escape(f"degenerate crossing {cr.regions}: a region ratio equals 1")
        for convert in (w_to_z, verify_bridge):
            with pytest.raises(CorrespondenceError, match=f"^{msg}$"):
                convert(d, a)

    @pytest.mark.parametrize("n, i", [(1, 0), (2, 0), (1, 2)])
    def test_z_to_w(self, n, i):
        d = builtin(f"T{n}")
        cr = d.crossings[i]
        a = dict(twist_assignment(n).sides)
        a[cr.sides[1]] = a[cr.sides[0]]
        assert check_z_nondegenerate(d, a)
        msg = re.escape(f"degenerate crossing {cr.sides}: a side ratio equals 1")
        with pytest.raises(CorrespondenceError, match=f"^{msg}$"):
            z_to_w(d, a)


class TestWToZ:
    def test_projective_match_with_parametrization(self):
        # converted side values differ from the tabulated ones by one constant
        par = twist_assignment(1)
        d = builtin("T1")
        z = w_to_z(d, par.regions)
        ratios = {s: z.assignment[s] / par.sides[s] for s in d.sides}
        vals = list(ratios.values())
        for v in vals[1:]:
            assert abs(v - vals[0]) < 1e-9 * max(1.0, abs(vals[0]))

    def test_converted_values_solve_side_system(self):
        for n in (1, 2, 3):
            d = builtin(f"T{n}")
            system = build_system(assemble_V(d))
            for t in twistknot.poly_roots(twistknot.defining_poly(n)):
                a = twistknot.parametrize(n, t).assignment
                z = w_to_z(d, {r: a[r] for r in d.regions})
                x = [z.assignment[v] / z.assignment[system.pin] for v in system.unknowns]
                assert np.max(np.abs(system.residual_vector(x))) < 1e-9

    def test_round_trip_w(self):
        par = twist_assignment(2)
        d = builtin("T2")
        w_in = {r: par.regions[r] for r in d.regions}
        back = z_to_w(d, w_to_z(d, w_in))
        ratios = [back.assignment[r] / w_in[r] for r in d.regions]
        for v in ratios[1:]:
            assert abs(v - ratios[0]) < 1e-9 * max(1.0, abs(ratios[0]))

    def test_round_trip_z(self):
        par = twist_assignment(2)
        d = builtin("T2")
        z_in = {s: par.sides[s] for s in d.sides}
        back = w_to_z(d, z_to_w(d, z_in))
        ratios = [back.assignment[s] / z_in[s] for s in d.sides]
        for v in ratios[1:]:
            assert abs(v - ratios[0]) < 1e-9 * max(1.0, abs(ratios[0]))

    def test_degenerate_rejected(self, fig8):
        cr = fig8.crossings[0]
        j, k, l, m = cr.regions
        a = {r: complex(i + 1, 0.4 * i) for i, r in enumerate(fig8.regions)}
        a[l] = a[k] + a[m] - a[j]
        with pytest.raises(CorrespondenceError, match="degenerate"):
            w_to_z(fig8, a)

    def test_kinked_diagram_rejected(self):
        d = build_diagram(parse_pd(KINKED_TREFOIL_PD))
        assert d.kinked_crossings() == [3]
        a = {r: complex(i + 2, 0.3 * i) for i, r in enumerate(d.regions)}
        with pytest.raises(CorrespondenceError,
                           match="^diagram has kinks; no side potential exists$"):
            w_to_z(d, a)

    def test_non_solution_rejected(self, fig8):
        p = assemble_W(fig8)
        rng = make_rng(59)
        a = random_essential_assignment(p, rng)
        if not check_w_nondegenerate(fig8, a):
            a = random_essential_assignment(p, rng)
        with pytest.raises(CorrespondenceError):
            w_to_z(fig8, a)


class TestZToW:
    def test_region_values_from_side_data(self):
        # tabulated side data determines the tabulated region data projectively
        par = twist_assignment(1)
        d = builtin("T1")
        w = z_to_w(d, par.sides)
        ratios = [w.assignment[r] / par.regions[r] for r in d.regions]
        for v in ratios[1:]:
            assert abs(v - ratios[0]) < 1e-9 * max(1.0, abs(ratios[0]))

    def test_equal_opposite_sides_rejected(self, fig8):
        a = {s: complex(i + 1, 1.0) for i, s in enumerate(fig8.sides)}
        cr = fig8.crossings[0]
        sa, sb, sc, sd = cr.sides
        a[sc] = a[sa]
        with pytest.raises(CorrespondenceError, match="degenerate"):
            z_to_w(fig8, a)


class TestBridge:
    def test_all_reference_solutions(self):
        for n in range(1, 6):
            d = builtin(f"T{n}")
            for t in twistknot.poly_roots(twistknot.defining_poly(n)):
                a = twistknot.parametrize(n, t).assignment
                report = verify_bridge(d, {r: a[r] for r in d.regions})
                assert report.congruent_mod_4pi2

    def test_side_value_matches_reference_rows(self):
        # V0 at the tabulated normalization reproduces the reference table raw
        for n in (1, 2, 4):
            d = builtin(f"T{n}")
            pv = assemble_V(d)
            for t in twistknot.poly_roots(twistknot.defining_poly(n)):
                a = twistknot.parametrize(n, t).assignment
                expected = twistknot.match_reference_row(n, t)
                assert expected is not None
                vol, cs = expected
                res = w0(pv, a)
                assert res.raw.imag == pytest.approx(vol, abs=5e-4)
                assert -res.raw.real == pytest.approx(cs, abs=5e-4)

    def test_builds_each_system_once(self, build_counter):
        for n in (1, 3):
            d = twistknot.twist_diagram(n)
            for which in (0, 1):
                report = verify_bridge(d, twist_assignment(n, which).regions)
                assert report.congruent_mod_4pi2
        assert build_counter == ["V", "W"] * 2

    def test_w_to_z_uses_a_given_system(self, build_counter):
        # the side system already built for the diagram is the one checked
        par = twist_assignment(2)
        d = twistknot.twist_diagram(2)
        system_v = build_system(assemble_V(d))
        z = w_to_z(d, par.regions)
        assert build_counter == ["V"]
        # checked at the converted point scaled to pin 1, in the solver's norm
        pin = z.assignment[system_v.pin]
        x = [z.assignment[v] / pin for v in system_v.unknowns]
        assert z.residual_norm == pytest.approx(np.linalg.norm(system_v.residual_vector(x)),
                                                rel=1e-14)

    def test_solver_solutions_bridge(self, fig8, fig8_w_solutions):
        checked = 0
        for s in fig8_w_solutions:
            if not check_w_nondegenerate(fig8, s.assignment):
                continue
            report = verify_bridge(fig8, s)
            assert report.congruent_mod_4pi2
            checked += 1
        assert checked >= 2

    @pytest.mark.parametrize("seed", [2, 3])
    def test_solver_solutions_bridge_52(self, knot52, seed):
        # With solver.ESSENTIAL_TOL at 1e-6 these seeds return points with
        # margins of 2e-6 to 1.1e-4 that pass the nondegeneracy check but
        # fail the bridge; the default cut drops them.
        system = build_system(assemble_W(knot52))
        checked = 0
        for s in solve(system, SolveConfig(restarts=512, seed=seed)):
            if not check_w_nondegenerate(knot52, s.assignment):
                continue
            assert verify_bridge(knot52, s).congruent_mod_4pi2
            checked += 1
        assert checked >= 2

    def test_link_side_solutions_bridge(self):
        # The Whitehead link, two components: every nondegenerate V point
        # converts, and its W0 is its V0 mod 4 pi^2.  (On the Borromean
        # rings the vol-0 points that pass the check do not convert.)
        d = build_diagram(parse_pd(WHITEHEAD_PD))
        V = assemble_V(d)
        converted = 0
        for s in solve(build_system(V), SolveConfig(restarts=256, seed=0)):
            if not check_z_nondegenerate(d, s.assignment):
                continue
            w = z_to_w(d, s)
            assert mod_eq(w0(assemble_W(d), w).raw, w0(V, s).raw, FOUR_PI2, BRIDGE_TOL)
            converted += 1
        assert converted > 0


class TestMissingVariables:
    """A missing variable raises the EvaluationError that w0 and refine
    raise, naming it, at every entry point that reads the values."""

    MISSING = "^variable 'c' not assigned$"

    def test_region_values_without_c(self):
        d = builtin("T2")
        a = {r: v for r, v in twist_assignment(2).regions.items() if r != "c"}
        system = build_system(assemble_W(d))
        for f in (lambda: verify_bridge(d, a), lambda: w_to_z(d, a),
                  lambda: check_w_nondegenerate(d, a), lambda: w0(assemble_W(d), a),
                  lambda: refine(system, a)):
            with pytest.raises(EvaluationError, match=self.MISSING):
                f()

    def test_side_values_missing(self):
        d = builtin("T2")
        with pytest.raises(EvaluationError, match="^variable 'a' not assigned$"):
            z_to_w(d, {})
        sides = dict(twist_assignment(2).sides)
        del sides["y1"]
        with pytest.raises(EvaluationError, match="^variable 'y1' not assigned$"):
            z_to_w(d, sides)

    def test_sign_flip_point(self):
        p = assemble_W(builtin("T2"))
        a = {r: v for r, v in twist_assignment(2).regions.items() if r != "c"}
        signs = [1] * len(p.variables)
        with pytest.raises(EvaluationError, match=self.MISSING):
            sign_flip_point(p, signs, signs, a)


def assert_projectively_equal(got, want, tol=1e-9):
    """got and want have the same labels and differ by one constant factor."""
    assert set(got) == set(want)
    ratios = [got[k] / want[k] for k in want]
    for v in ratios[1:]:
        assert abs(v - ratios[0]) < tol * max(1.0, abs(ratios[0]))


class TestPropagation:
    """w_to_z and z_to_w propagate ratios by breadth-first search from the
    lowest label, check every other constraint, and reject the first
    inconsistent one."""

    @staticmethod
    def closed_form_points():
        for n in range(1, 6):
            for t in twistknot.poly_roots(twistknot.defining_poly(n)):
                yield builtin(f"T{n}"), twistknot.parametrize(n, t)

    def test_closed_form_points(self):
        count = 0
        for d, par in self.closed_form_points():
            for convert, values, want, labels in ((w_to_z, par.regions, par.sides, d.sides),
                                                  (z_to_w, par.sides, par.regions, d.regions)):
                sol = convert(d, values)
                assert sol.residual_norm <= BRIDGE_TOL
                assert sol.assignment[min(labels, key=str)] == 1.0
                assert_projectively_equal(sol.assignment, want)
            count += 1
        assert count == 20

    def test_solver_solutions(self, fig8, fig8_w_solutions, knot52, knot52_w_solutions,
                              knot52_v_solutions):
        converted = 0
        for d, sols in ((fig8, fig8_w_solutions), (knot52, knot52_w_solutions)):
            for s in sols:
                if not check_w_nondegenerate(d, s.assignment):
                    continue
                z = w_to_z(d, s)
                assert z.residual_norm <= BRIDGE_TOL
                assert_projectively_equal(z_to_w(d, z).assignment, s.assignment, 1e-8)
                converted += 1
        assert converted >= 100
        converted = 0
        for s in knot52_v_solutions:
            try:
                w = z_to_w(knot52, s)
            except CorrespondenceError as exc:
                # a solver point is only good to its own tolerance
                assert str(exc).startswith("converted region values violate the region system")
                continue
            assert_projectively_equal(w_to_z(knot52, w).assignment, s.assignment, 1e-8)
            converted += 1
        assert converted >= 0.95 * len(knot52_v_solutions) > 0

    def test_corrupted_inputs_raise_an_inconsistent_constraint(self):
        rng = make_rng(71)
        for d, par in self.closed_form_points():
            for values, convert, what in ((par.regions, w_to_z, "side"),
                                          (par.sides, z_to_w, "region")):
                a = dict(values)
                label = list(a)[rng.integers(len(a))]
                a[label] *= 1.0 + 1e-3 * complex(*rng.standard_normal(2))
                with pytest.raises(CorrespondenceError,
                                   match=rf"^inconsistent {what} constraint at .*"
                                         r"\(input is not a true solution\)$"):
                    convert(d, a)


def potential_of(name, kind):
    d = builtin(name)
    return assemble_W(d, variant=ALT_NEG_LOG) if kind == "W-alt" else assemble_V(d)


def random_signs(potential, rng):
    return {v: int(rng.choice((-1, 1))) for v in potential.variables}


SYSTEM_ARRAYS = ("_coeffs", "_exps", "_mono_coeff", "_value_gather", "_value_starts")


def assert_same_arrays(system, other):
    """The two systems' arrays are equal bit for bit and their term arrays
    are one object."""
    assert system._terms is other._terms
    for name in SYSTEM_ARRAYS:
        assert np.array_equal(getattr(system, name), getattr(other, name))


def assert_equals_a_fresh_compile(derived, reference, rng):
    """The system sign_flip derived equals, array for array and bit for bit
    in mu, residual and Jacobian, a fresh compile of reference, the flipped
    potential spelled out term by term."""
    fresh = build_system(reference)
    assert fresh is not derived
    assert (fresh.variables, fresh.kind) == (derived.variables, derived.kind)
    # the W0 pass: term arrays, log atoms, monomials and the value gather
    for name in ("dilog_mono", "dilog_sign", "logprod_atom", "logprod_sign",
                 "atom_mono", "atom_is_1m"):
        assert np.array_equal(getattr(derived._terms, name), getattr(fresh._terms, name))
    assert derived._terms.const == fresh._terms.const
    for name in SYSTEM_ARRAYS:
        assert np.array_equal(getattr(derived, name), getattr(fresh, name))
    a = random_essential_assignment(reference, rng)
    x = derived.point_from_assignment(a)[:-1]
    assert np.array_equal(derived.mu(a), fresh.mu(a))
    assert np.array_equal(derived.residual_vector(x), fresh.residual_vector(x))
    assert np.array_equal(derived.jacobian(x), fresh.jacobian(x))


class TestSignFlip:
    def test_identity_transform(self, fig8):
        p = assemble_W(fig8)
        ones = {v: 1 for v in p.variables}
        flipped = sign_flip(p, ones, ones)
        assert isinstance(flipped, EquationSystem) and flipped is not build_system(p)
        assert (flipped.variables, flipped.kind) == (p.variables, p.kind)
        assert_same_arrays(flipped, build_system(p))

    def test_build_system_returns_a_system_as_it_is(self, fig8):
        p = assemble_W(fig8)
        rng = make_rng(59)
        flipped = sign_flip(p, random_signs(p, rng), random_signs(p, rng))
        for system in (build_system(p), flipped):
            assert build_system(system) is system

    def test_flipped_point_solves_flipped_system(self):
        par = twist_assignment(1)
        p = twist_potential(1)
        rng = make_rng(61)
        base = w0(p, par.assignment)
        for _ in range(10):
            taus = {v: int(rng.choice((-1, 1))) for v in p.variables}
            eps = {v: int(rng.choice((-1, 1))) for v in p.variables}
            flipped = sign_flip(p, taus, eps)
            point = sign_flip_point(p, taus, eps, par.assignment)
            res = w0(flipped, point)
            assert mod_eq(res.raw, base.raw, TWO_PI2, 1e-9)

    def test_mu_transforms_by_epsilon(self):
        par = twist_assignment(2)
        p = twist_potential(2)
        rng = make_rng(67)
        taus = {v: int(rng.choice((-1, 1))) for v in p.variables}
        eps = {v: int(rng.choice((-1, 1))) for v in p.variables}
        flipped = sign_flip(p, taus, eps)
        point = sign_flip_point(p, taus, eps, par.assignment)
        mus0 = mu_oracle(p, par.assignment)
        mus1 = mu_oracle(substituted_potential(p, taus, eps), point)
        for v, mu in zip(flipped.variables, flipped.mu(point)):
            mu0, mu1 = mus0[v], mus1[v]
            assert abs(mu - mu1) < 1e-12
            diff = (mu1 - eps[v] * mu0) / (2j * math.pi)
            assert abs(diff - round(diff.real)) < 1e-9

    @pytest.mark.parametrize("kind", ["W-alt", "V"])
    @pytest.mark.parametrize("name", ["4_1", "5_2", "T3", "T5"])
    def test_derived_system_equals_a_fresh_compile(self, name, kind, build_counter):
        p = potential_of(name, kind)
        rng = make_rng(71)
        flips = []
        for _ in range(20):
            taus, eps = random_signs(p, rng), random_signs(p, rng)
            flips.append((sign_flip(p, taus, eps), substituted_potential(p, taus, eps)))
        assert build_counter == [p.kind]          # the base system only
        for flipped, reference in flips:
            assert_equals_a_fresh_compile(flipped, reference, rng)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_flipped_coefficients_match_terms(self, n):
        # A flip derives C from the base system's instead of compiling it;
        # the reference is accumulated from the flipped terms alone.
        p = assemble_W(builtin(f"T{n}"), variant=ALT_NEG_LOG)
        rng = make_rng(89 + n)
        for _ in range(20):
            taus, eps = random_signs(p, rng), random_signs(p, rng)
            assert (compiled_coefficients(sign_flip(p, taus, eps))
                    == coefficients_term_by_term(substituted_potential(p, taus, eps)))

    @pytest.mark.parametrize("kind", ["W-alt", "V"])
    @pytest.mark.parametrize("name", ["4_1", "T3"])
    def test_flip_of_a_flipped_potential(self, name, kind, build_counter):
        p = potential_of(name, kind)
        rng = make_rng(73)
        flips = []
        for _ in range(10):
            taus1, eps1, taus2, eps2 = (random_signs(p, rng) for _ in range(4))
            twice = sign_flip(sign_flip(p, taus1, eps1), taus2, eps2)
            composed = substituted_potential(p, taus1, eps1)
            flips.append((twice, substituted_potential(composed, taus2, eps2)))
        assert build_counter == [p.kind]          # the base system only
        for twice, reference in flips:
            assert_equals_a_fresh_compile(twice, reference, rng)

    @pytest.mark.parametrize("kind", ["W-alt", "V"])
    @pytest.mark.parametrize("name", ["4_1", "T3", "T5"])
    def test_a_flip_is_an_involution(self, name, kind):
        # tau * (tau * w^eps)^eps = w, so the same flip twice gives the
        # base system's arrays back bit for bit.
        p = potential_of(name, kind)
        rng = make_rng(97)
        for _ in range(20):
            taus, eps = random_signs(p, rng), random_signs(p, rng)
            assert_same_arrays(sign_flip(sign_flip(p, taus, eps), taus, eps), build_system(p))

    def test_flips_build_no_terms(self, monkeypatch):
        # A flip plus its w0 constructs no Potential, Term or Monomial.  A
        # new diagram object, so no earlier flip has built anything for it.
        p = assemble_W(dataclasses.replace(builtin("T3")), variant=ALT_NEG_LOG)
        par = twist_assignment(3)
        rng = make_rng(79)
        signs = [(random_signs(p, rng), random_signs(p, rng)) for _ in range(10)]
        built = Counter()
        for cls in (Potential, Monomial, Term):
            def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting_init)
        for taus, eps in signs:
            flipped = sign_flip(p, taus, eps)
            assert isinstance(flipped, EquationSystem)
            w0(flipped, sign_flip_point(p, taus, eps, par.assignment))
        assert built == Counter()

    def test_flipped_potential_is_collected(self):
        # by reference counting: the cyclic collector is off
        p = assemble_W(builtin("5_2"), variant=ALT_NEG_LOG)
        par = twist_assignment(2)
        ones = {v: 1 for v in p.variables}
        signs = {v: -1 for v in p.variables}
        gc.disable()
        try:
            flipped = sign_flip(p, signs, ones)
            w0(flipped, sign_flip_point(p, signs, ones, par.assignment))
            ref = weakref.ref(flipped)
            del flipped
            assert ref() is None
        finally:
            gc.enable()

    def test_zero_variable_with_eps_minus_one(self, fig8):
        p = assemble_W(fig8)
        ones = {v: 1 for v in p.variables}
        a = {v: 0.5 + 1.5j for v in p.variables}
        v = p.variables[0]
        a[v] = 0.0
        with pytest.raises(EvaluationError, match="^zero variable value$"):
            sign_flip_point(p, ones, {**ones, v: -1}, a)
        assert sign_flip_point(p, {**ones, v: -1}, ones, a)[v] == 0.0

    def test_sign_vectors_validated(self, fig8):
        p = assemble_W(fig8)
        with pytest.raises(ValueError):
            sign_flip(p, {v: 2 for v in p.variables}, {v: 1 for v in p.variables})

    def test_sign_vectors_as_lists(self, fig8):
        p = assemble_W(fig8, variant=ALT_NEG_LOG)
        rng = make_rng(83)
        for _ in range(10):
            taus, eps = random_signs(p, rng), random_signs(p, rng)
            by_list = sign_flip(p, [taus[v] for v in p.variables], [eps[v] for v in p.variables])
            by_dict = sign_flip(p, taus, eps)
            assert_same_arrays(by_list, by_dict)

    @pytest.mark.parametrize("bad", ["short list", "zero", "missing key"])
    def test_malformed_sign_vectors_rejected(self, fig8, bad):
        p = assemble_W(fig8)
        ones = {v: 1 for v in p.variables}
        if bad == "short list":
            signs = [1] * (len(p.variables) - 1)
        elif bad == "zero":
            signs = {**ones, p.variables[0]: 0}
        else:
            signs = {v: 1 for v in p.variables[1:]}
        with pytest.raises(ValueError):
            sign_flip(p, signs, ones)
        with pytest.raises(ValueError):
            sign_flip(p, ones, signs)


def _reachable(obj) -> list:
    """Every object reachable from obj through gc.get_referents, classes
    and modules aside."""
    seen, stack = {}, [obj]
    while stack:
        o = stack.pop()
        if id(o) not in seen and not isinstance(o, (type, types.ModuleType)):
            seen[id(o)] = o
            stack.extend(gc.get_referents(o))
    return list(seen.values())


class TestOneWayOwnership:
    """A diagram owns its potentials, a potential its system and a system
    its product kernel, and nothing refers back: dropped potentials, sign
    flips and diagrams are freed by reference counting alone."""

    def test_systems_refer_to_no_potential(self):
        p = assemble_W(builtin("T5"), variant=ALT_NEG_LOG)
        rng = make_rng(101)
        flipped = sign_flip(p, random_signs(p, rng), random_signs(p, rng))
        for system in (build_system(p), flipped):
            system.residual_vector(np.ones((1, system.size)))    # compiles the product kernel
            assert not [o for o in _reachable(system) if isinstance(o, (Potential, Term, Monomial))]

    def test_dropped_objects_need_no_collector(self):
        p = assemble_W(builtin("T5"), variant=ALT_NEG_LOG)
        a = twist_assignment(5).assignment
        rng = make_rng(103)
        gc.collect()
        gc.disable()
        try:
            for _ in range(50):
                taus, eps = random_signs(p, rng), random_signs(p, rng)
                w0(sign_flip(p, taus, eps), sign_flip_point(p, taus, eps, a))
            assert verify_bridge(builtin("T5"), a).congruent_mod_4pi2
            d = build_diagram(parse_pd(WHITEHEAD_PD))
            build_system(assemble_W(d))
            build_system(assemble_V(d))
            del d
            assert gc.collect() == 0
        finally:
            gc.enable()


FLIPPED_CLASP_PD = "X(1,7,2,6) X(5,3,6,2) X(4,8,5,7) X(3,8,4,1)"


@pytest.fixture(scope="module")
def flipped():
    from optlim import build_diagram, parse_pd
    return build_diagram(parse_pd(FLIPPED_CLASP_PD))


class TestEmptySideSystem:
    """A diagram whose side system has no essential solutions at all.

    Switching one clasp crossing of the figure-eight diagram produces a
    kink-free non-alternating diagram whose region system still has
    essential solutions, every one of which violates the bridge
    nondegeneracy, and whose side system turns up empty.  The side
    potential itself must still build.
    """

    def test_side_potential_builds(self, flipped):
        p = assemble_V(flipped)
        assert len(p.terms) == 16

    def test_region_solutions_exist_but_all_degenerate(self, flipped):
        from optlim import SolveConfig, solve
        system = build_system(assemble_W(flipped))
        sols = solve(system, SolveConfig(restarts=300, seed=4))
        assert len(sols) >= 3
        for s in sols:
            assert not check_w_nondegenerate(flipped, s.assignment)
            with pytest.raises(CorrespondenceError):
                w_to_z(flipped, s)

    def test_side_solver_finds_nothing(self, flipped):
        from optlim import SolveConfig, solve
        system = build_system(assemble_V(flipped))
        assert solve(system, SolveConfig(restarts=800, seed=4)) == []


class TestOctahedron:
    @staticmethod
    def sample_horizontal_shapes(rng):
        while True:
            t1, t2, t3 = (complex(np.exp(rng.uniform(np.log(0.3), np.log(3.0)))
                                  * np.exp(1j * rng.uniform(-np.pi, np.pi)))
                          for _ in range(3))
            t4 = 1.0 / (t1 * t2 * t3)
            shapes = (t1, t2, t3, t4)
            if all(min(abs(z), abs(z - 1)) > 1e-2 for z in shapes):
                return shapes

    def test_identities_hold(self):
        rng = make_rng(71)
        done = 0
        while done < 300:
            t1, t2, t3, t4 = self.sample_horizontal_shapes(rng)
            try:
                rep = check_octahedron_identities(t1, t2, t3, t4)
            except CorrespondenceError:
                continue
            assert rep.identity1_defect < 1e-9
            assert rep.identity2_defect < 1e-9
            assert rep.volume_defect < 1e-10
            done += 1

    def test_degenerate_input_rejected(self):
        with pytest.raises(CorrespondenceError):
            check_octahedron_identities(1.0, 2.0, 3.0, 1 / 6)

    def test_closure_constraint_enforced(self):
        with pytest.raises(CorrespondenceError, match="octahedron"):
            check_octahedron_identities(2.0j, 0.5, 1.5, 1.5)
