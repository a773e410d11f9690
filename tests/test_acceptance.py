"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success; tolerances are the
contract values, fixed here and nowhere else.  Run with `pytest -s
tests/test_acceptance.py` to see the lines as they go by.
"""

import math
import time

import numpy as np

from optlim import (ALT_NEG_LOG, assemble_V, assemble_W, build_system, builtin,
                    check_w_nondegenerate, mod_eq,
                    sign_flip, sign_flip_point, verify_bridge, w0, w_to_z, z_to_w)
from optlim import twistknot
from optlim.correspondence import BRIDGE_TOL, CorrespondenceError
from optlim.numerics import PI2, bloch_wigner, li2, plog

from conftest import make_rng, random_essential_assignment
from oracles import check_octahedron_identities, region_closed_form, twist_potential
from test_equations import mu_fd

FOUR_PI2 = 4 * PI2
TWO_PI2 = 2 * PI2


def report(num, text):
    print(f"ACCEPTANCE {num}: {text} ... PASS")


def twist_cases():
    for n in range(1, 6):
        diagram = builtin(f"T{n}")
        potential = twist_potential(n)
        for t in twistknot.poly_roots(twistknot.defining_poly(n)):
            yield n, t, diagram, potential, twistknot.parametrize(n, t)


def test_criterion_1_reference_table():
    """Raw corrected values match the reference table componentwise, 5e-4."""
    t0 = time.perf_counter()
    rows = 0
    for n in range(1, 6):
        for rec in twistknot.reproduce_reference_table(n):
            assert rec["expected"] is not None, f"unmatched root {rec['t']}"
            vol, cs = rec["expected"]
            assert abs(rec["raw"].imag - vol) <= 5e-4
            assert abs(-rec["raw"].real - cs) <= 5e-4
            rows += 1
    elapsed = time.perf_counter() - t0
    assert rows == 20
    assert elapsed < 10.0
    report(1, f"20 reference rows within 5e-4 in {elapsed:.2f}s")


def test_criterion_2_end_to_end(fig8, fig8_w_solutions, knot52, knot52_w_solutions):
    """Multistart solves realize the tabulated volume/CS rows."""
    p8 = assemble_W(fig8)
    res8 = [w0(p8, s, diagram=fig8) for s in fig8_w_solutions]
    found_pos = [r for r in res8 if abs(r.vol - 2.0299) <= 5e-4]
    found_neg = [r for r in res8 if abs(r.vol + 2.0299) <= 5e-4]
    assert found_pos and found_neg
    for r in found_pos + found_neg:
        shift = r.cs_mod_pi2 / PI2
        assert abs(shift - round(shift)) * PI2 <= 1e-6

    p52 = assemble_W(knot52)
    res52 = [w0(p52, s) for s in knot52_w_solutions]
    targets = [(2.8281, 3.0241), (-2.8281, 3.0241), (0.0, -1.1135)]
    for vol, cs in targets:
        assert any(abs(r.vol - vol) <= 5e-4 and abs(r.cs_mod_pi2 - cs) <= 5e-4
                   for r in res52), f"missing row vol={vol} cs={cs}"
    report(2, "4_1 volume pair and all three 5_2 rows realized by the solver")


def test_criterion_3_printed_potential(fig8):
    """The assembled region potential equals the printed one exactly."""
    from collections import Counter
    from test_potential import FIG8_PRINTED
    assert Counter(assemble_W(fig8).terms) == Counter(FIG8_PRINTED)
    report(3, "figure-eight region potential matches the printed term multiset")


def test_criterion_4_parametrization_residuals():
    """Parametrized points solve the region system; closed forms agree."""
    pairs = 0
    for n, t, diagram, potential, par in twist_cases():
        system = build_system(assemble_W(diagram))
        a = par.assignment
        x = [a[v] / a[system.pin] for v in system.unknowns]
        assert np.max(np.abs(system.residual_vector(x))) < 1e-9
        for k in range(0, n + 2):
            expected = region_closed_form(k, t)
            assert abs(par.w(k) - expected) < 1e-10 * max(1.0, abs(expected))
        pairs += 1
    assert pairs == 20
    report(4, "20 parametrized points at residual < 1e-9, closed forms < 1e-10")


def test_criterion_5_bridge(fig8, fig8_w_solutions, knot52, knot52_w_solutions):
    """Converted side solutions solve, round-trip, and agree mod 4 pi^2."""
    assert BRIDGE_TOL == 1e-9           # the conversions and verify_bridge check to it
    checked = 0
    for n, t, diagram, potential, par in twist_cases():
        a = {r: par.assignment[r] for r in diagram.regions}
        assert check_w_nondegenerate(diagram, a)
        z = w_to_z(diagram, a)          # asserts V-residuals <= 1e-9
        back = z_to_w(diagram, z)
        ratios = [back.assignment[r] / a[r] for r in diagram.regions]
        for v in ratios[1:]:
            assert abs(v - ratios[0]) <= 1e-9 * max(1.0, abs(ratios[0]))
        rep = verify_bridge(diagram, a)
        assert rep.congruent_mod_4pi2
        checked += 1
    for diagram, sols in ((fig8, fig8_w_solutions), (knot52, knot52_w_solutions)):
        for s in sols:
            if not check_w_nondegenerate(diagram, s.assignment):
                continue
            rep = verify_bridge(diagram, s)
            assert rep.congruent_mod_4pi2
            checked += 1
    assert checked >= 22
    report(5, f"{checked} bridge conversions solve, round-trip and agree mod 4pi^2")


def test_criterion_6_volume_cross_check(fig8, fig8_w_solutions, knot52,
                                        knot52_w_solutions):
    """Im of the corrected value equals the Bloch-Wigner sum, 1e-9."""
    count = 0
    for n, t, diagram, potential, par in twist_cases():
        res = w0(potential, par.assignment, diagram=diagram)
        assert abs(res.raw.imag - res.bw_vol) <= 1e-9
        count += 1
    for diagram, sols in ((fig8, fig8_w_solutions), (knot52, knot52_w_solutions)):
        p = assemble_W(diagram)
        for s in sols:
            res = w0(p, s, diagram=diagram)
            assert abs(res.raw.imag - res.bw_vol) <= 1e-9
            count += 1
    report(6, f"volume equals the Bloch-Wigner sum at {count} solutions")


def test_criterion_7_euler_identity():
    """Sum of scaled derivatives vanishes symbolically and numerically."""
    potentials = [assemble_W(builtin("4_1")), assemble_V(builtin("4_1")),
                  assemble_W(builtin("5_2")), assemble_V(builtin("5_2"))]
    rng = make_rng(101)
    for p in potentials:
        system = build_system(p)
        assert not system._coeffs.sum(axis=0).any()
        for _ in range(1000):
            a = random_essential_assignment(p, rng)
            total = sum(system.mu(a))
            assert abs(total) < 1e-12
    report(7, "Euler identity exact symbolically and < 1e-12 at 4x1000 points")


def test_criterion_8_invariance_suite(fig8, fig8_w_solutions):
    """Scaling, variant change and sign flips leave the value invariant."""
    rng = make_rng(103)
    for n, t, diagram, potential, par in twist_cases():
        a = par.assignment
        base = w0(potential, a)
        # scaling invariance mod 4 pi^2
        for _ in range(20):
            lam = complex(*rng.uniform(-3, 3, 2))
            if abs(lam) < 0.1:
                continue
            scaled = {v: lam * val for v, val in a.items()}
            assert mod_eq(w0(potential, scaled).raw, base.raw, FOUR_PI2, 1e-9)
        # negative-crossing log-product variant mod 4 pi^2
        alt = twist_potential(n, variant=ALT_NEG_LOG)
        assert mod_eq(w0(alt, a).raw, base.raw, FOUR_PI2, 1e-9)
        # sign flips mod 2 pi^2
        for _ in range(20):
            taus = {v: int(rng.choice((-1, 1))) for v in potential.variables}
            eps = {v: int(rng.choice((-1, 1))) for v in potential.variables}
            flipped = sign_flip(potential, taus, eps)
            point = sign_flip_point(potential, taus, eps, a)
            assert mod_eq(w0(flipped, point).raw, base.raw, TWO_PI2, 1e-9)
    p8 = assemble_W(fig8)
    p8_alt = assemble_W(fig8, variant=ALT_NEG_LOG)
    for s in fig8_w_solutions[:4]:
        base = w0(p8, s)
        assert mod_eq(w0(p8_alt, s).raw, base.raw, FOUR_PI2, 1e-9)
    report(8, "scaling, variant and sign-flip invariances hold at all solutions")


def test_criterion_9_derivative_oracle():
    """Analytic scaled derivatives match the Richardson FD oracle, 1e-6."""
    potentials = [assemble_W(builtin("4_1")), assemble_V(builtin("4_1")),
                  assemble_W(builtin("5_2")), assemble_W(builtin("T3"))]
    rng = make_rng(107)
    for p in potentials:
        system = build_system(p)
        for _ in range(100):
            a = random_essential_assignment(p, rng, off_cuts=True)
            for var, analytic in zip(p.variables, system.mu(a)):
                numeric = mu_fd(p, a, var)
                assert abs(analytic - numeric) / max(1.0, abs(analytic)) < 1e-6
    report(9, "analytic derivatives match finite differences, "
              "all variables at 4x100 points")


def test_criterion_10_numerics_suite():
    """Dilogarithm values and functional identities at contract tolerances."""
    assert abs(li2(-1.0) - (-PI2 / 12)) < 1e-13
    assert abs(li2(0.5) - (PI2 / 12 - math.log(2) ** 2 / 2)) < 1e-13

    rng = make_rng(109)

    def sample(n, rmin=0.05, rmax=20.0):
        r = np.exp(rng.uniform(math.log(rmin), math.log(rmax), n))
        th = rng.uniform(-math.pi, math.pi, n)
        return r * np.exp(1j * th)

    checked = 0
    for z in sample(10000):
        z = complex(z)
        if min(abs(z), abs(z - 1)) < 1e-3 or abs(z.imag) < 1e-6:
            continue
        lhs = li2(z) + li2(1 - z)
        rhs = PI2 / 6 - plog(z) * plog(1 - z)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))
        lhs = li2(z) + li2(1 / z)
        rhs = -PI2 / 6 - 0.5 * plog(-z) ** 2
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))
        assert abs(bloch_wigner(z.conjugate()) + bloch_wigner(z)) < 1e-11
        checked += 1
    assert checked > 9000

    five_term = 0
    while five_term < 10000:
        x, y = (complex(v) for v in sample(2, 0.2, 5.0))
        xy = x * y
        args = (x, y, (1 - x) / (1 - xy), 1 - xy, (1 - y) / (1 - xy))
        if any(min(abs(v), abs(v - 1)) < 1e-3 for v in args):
            continue
        assert abs(sum(bloch_wigner(v) for v in args)) < 1e-11
        five_term += 1

    octa = 0
    while octa < 1000:
        t1, t2, t3 = (complex(v) for v in sample(3, 0.3, 3.0))
        t4 = 1.0 / (t1 * t2 * t3)
        try:
            rep = check_octahedron_identities(t1, t2, t3, t4, tol_degenerate=1e-2)
        except CorrespondenceError:
            continue
        assert rep.identity1_defect < 1e-9
        assert rep.identity2_defect < 1e-9
        octa += 1
    report(10, "dilogarithm values, D identities (1e4) and octahedron "
               "identities (1e3) at contract tolerances")
