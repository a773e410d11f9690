"""Multistart Newton: determinism, convergence, dedup, essential filtering."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from optlim import (SolveConfig, SolveError, assemble_V, assemble_W, build_system,
                    builtin, refine, solve, w0)
from optlim import solver, twistknot
from optlim.equations import mu_integer_multipliers
from optlim.potential import Potential

from conftest import make_rng, mu_oracle, random_essential_assignment

TWO_PI = 2 * math.pi

# Every message refine() raises for a failed Newton row.
NEWTON_FAILURE = re.compile(
    r"iterate left the essential domain(: .*)?|singular Jacobian at iterate"
    r"|non-finite Newton step|line search stalled at residual \S+"
    r"|stagnation at residual \S+|divergence"
    r"|no convergence after \d+ iterations \(residual \S+\)")


class TestConfig:
    def test_defaults(self):
        cfg = SolveConfig()
        assert cfg.restarts == 512
        assert cfg.max_iter == 200
        assert cfg.residual_tol == 1e-12
        assert cfg.dedupe_tol == 1e-8
        assert cfg.essential_tol == 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(residual_tol=1e-6, dedupe_tol=1e-8)
        with pytest.raises(ValueError):
            SolveConfig(residual_tol=-1)
        with pytest.raises(ValueError):
            SolveConfig(radius_min=2.0, radius_max=1.0)
        with pytest.raises(ValueError):
            SolveConfig(restarts=0)
        with pytest.raises(ValueError):
            SolveConfig(max_iter=0)


class TestSolve:
    def test_figure_eight_volume_pair(self, fig8, fig8_w_solutions):
        p = assemble_W(fig8)
        vols = {round(w0(p, s, diagram=fig8).vol, 4) for s in fig8_w_solutions}
        assert 2.0299 in vols
        assert -2.0299 in vols

    def test_52_realizes_reference_rows(self, knot52, knot52_w_solutions):
        p = assemble_W(knot52)
        pairs = {(round(w0(p, s).vol, 4), round(w0(p, s).cs_mod_pi2, 4))
                 for s in knot52_w_solutions}
        assert (2.8281, 3.0241) in pairs
        assert (-2.8281, 3.0241) in pairs
        assert (0.0, -1.1135) in pairs or (-0.0, -1.1135) in pairs

    def test_52_side_system_realizes_same_rows(self, knot52, knot52_v_solutions):
        from optlim import assemble_V
        p = assemble_V(knot52)
        pairs = {(abs(round(w0(p, s).vol, 4)), round(w0(p, s).cs_mod_pi2, 4))
                 for s in knot52_v_solutions}
        assert (2.8281, 3.0241) in pairs
        assert (0.0, -1.1135) in pairs

    def test_determinism(self, fig8):
        system = build_system(assemble_W(fig8))
        cfg = SolveConfig(restarts=48, seed=11)
        s1 = solve(system, cfg)
        s2 = solve(system, cfg)
        assert len(s1) == len(s2)
        for a, b in zip(s1, s2):
            assert a.assignment == b.assignment
            assert a.residual_norm == b.residual_norm

    def test_zero_unknowns(self):
        p = Potential((), ("x",), "W")
        system = build_system(p, pin="x")
        assert solve(system, SolveConfig(restarts=8, seed=0)) == []

    def test_solutions_are_pinned_and_essential(self, fig8_w_solutions, fig8):
        system = build_system(assemble_W(fig8))
        for s in fig8_w_solutions:
            assert s.assignment[system.pin] == 1.0
            assert s.essential
            assert s.residual_norm <= 1e-12

    def test_mu_multiples_of_2pi_i(self, fig8, fig8_w_solutions):
        p = assemble_W(fig8)
        system = build_system(p)
        for s in fig8_w_solutions:
            # includes the dropped equation's variable (the pin)
            ints = mu_integer_multipliers(system, s.assignment, tol=1e-9)
            mu = mu_oracle(p, s.assignment)
            for v, k in ints.items():
                assert abs(mu[v] - 2j * math.pi * k) < 1e-9

    def test_dedupe_distinct(self, fig8_w_solutions):
        vecs = [s.vector(sorted(s.assignment, key=str)) for s in fig8_w_solutions]
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                assert np.max(np.abs(vecs[i] - vecs[j])) > 1e-8


class TestRefine:
    def test_twist_point_converges(self):
        d = builtin("T3")
        system = build_system(assemble_W(d))
        roots = twistknot.poly_roots(twistknot.defining_poly(3))
        t = next(r for r in roots if abs(r - complex(1.2631, 1.0347)) < 1e-3)
        a = twistknot.parametrize(3, t).assignment
        sol = refine(system, a)
        assert sol.residual_norm < 1e-12

    def test_exact_solution_returns_immediately(self, fig8, fig8_w_solutions):
        system = build_system(assemble_W(fig8))
        base = fig8_w_solutions[0]
        sol = refine(system, base.assignment)
        vec0 = base.vector(system.unknowns)
        vec1 = sol.vector(system.unknowns)
        assert np.max(np.abs(vec0 - vec1)) < 1e-10

    def test_scaling_closure(self, fig8, fig8_w_solutions):
        # lambda-rescaled solutions renormalize back to the same point
        system = build_system(assemble_W(fig8))
        base = fig8_w_solutions[0]
        rng = make_rng(31)
        for _ in range(5):
            lam = complex(*rng.uniform(-2, 2, 2))
            if abs(lam) < 0.1:
                continue
            scaled = {v: lam * val for v, val in base.assignment.items()}
            sol = refine(system, scaled)
            vec0 = base.vector(system.unknowns)
            vec1 = sol.vector(system.unknowns)
            assert np.max(np.abs(vec0 - vec1)) < 1e-8

    def test_far_point_diverges(self, fig8):
        system = build_system(assemble_W(fig8))
        rng = make_rng(37)
        a = random_essential_assignment(system.potential, rng)
        a = {v: val * 1e6 for v, val in a.items()}
        with pytest.raises(SolveError):
            refine(system, a, SolveConfig(max_iter=12, seed=0))

    @pytest.mark.parametrize("max_iter", [1, 3, 12])
    def test_failure_reports_a_reason(self, fig8, max_iter):
        system = build_system(assemble_W(fig8))
        rng = make_rng(41)
        a = random_essential_assignment(system.potential, rng)
        a = {v: val * 1e6 for v, val in a.items()}
        with pytest.raises(SolveError) as info:
            refine(system, a, SolveConfig(max_iter=max_iter, seed=0))
        assert NEWTON_FAILURE.fullmatch(str(info.value))

    def test_degenerate_start_left_the_domain(self, fig8):
        system = build_system(assemble_W(fig8))
        with pytest.raises(SolveError, match="^iterate left the essential domain: "
                                             "non-essential point"):
            refine(system, {v: 1.0 for v in system.potential.variables})


def _starts(system, count, seed=0):
    cfg = SolveConfig(seed=seed)
    return np.array([solver._sample(np.random.default_rng(s), system.size, cfg)
                     for s in np.random.SeedSequence(seed).spawn(count)])


class TestLockstepNewton:
    @pytest.mark.parametrize("block_rows", [solver.BLOCK_ROWS, 40])
    @pytest.mark.parametrize("name,kind", [("4_1", "W"), ("5_2", "V"), ("T5", "W")])
    def test_rows_independent_of_block(self, monkeypatch, name, kind, block_rows):
        # block_rows=40 splits the line search into one row of 29
        # candidates per call and the Jacobians into blocks of 40 rows.
        monkeypatch.setattr(solver, "BLOCK_ROWS", block_rows)
        d = builtin(name)
        system = build_system(assemble_W(d) if kind == "W" else assemble_V(d))
        cfg = SolveConfig(seed=0)
        X0 = _starts(system, 24)
        X, fnorm, status = solver._newton(system, X0, cfg)
        assert (status == solver.CONVERGED).any()
        for i in range(len(X0)):
            x1, f1, s1 = solver._newton(system, X0[i:i + 1], cfg)
            assert np.array_equal(x1[0], X[i])
            assert np.array_equal(f1[0], fnorm[i], equal_nan=True)
            assert s1[0] == status[i]

    def test_singular_matrix_kills_only_its_row(self):
        rng = make_rng(43)
        J = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        F = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        J[1] = 0.0
        steps, singular = solver._steps(J, F)
        assert singular.tolist() == [False, True, False]
        for i in (0, 2):
            alone, none = solver._steps(J[i:i + 1], F[i:i + 1])
            assert not none.any()
            assert np.array_equal(steps[i], alone[0])

    def test_singular_jacobian_retires_only_its_row(self, fig8):
        system = build_system(assemble_W(fig8))
        cfg = SolveConfig(seed=0)
        X0 = _starts(system, 6)

        class ZeroJacobianAtRow2:
            residual_vector = staticmethod(system.residual_vector)

            @staticmethod
            def jacobian(x):
                J = system.jacobian(x)
                J[np.all(x == X0[2], axis=-1)] = 0.0
                return J

        X, fnorm, status = solver._newton(ZeroJacobianAtRow2, X0, cfg)
        ref_X, ref_fnorm, ref_status = solver._newton(system, X0, cfg)
        assert status[2] == solver.SINGULAR
        assert np.array_equal(X[2], X0[2])
        others = [0, 1, 3, 4, 5]
        assert np.array_equal(X[others], ref_X[others])
        assert np.array_equal(status[others], ref_status[others])


def test_memory_independent_of_restarts():
    system = build_system(assemble_W(builtin("T5")))
    tracemalloc.start()
    try:
        solve(system, SolveConfig(restarts=512, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
