"""Multistart Newton: determinism, convergence, essential filtering, and the
solve contract (every converged essential restart, in residual order)."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from optlim import (SolveConfig, SolveError, assemble_V, assemble_W, build_system,
                    builtin, refine, solve, w0)
from optlim import solver, twistknot
from optlim.equations import EquationSystem, EvaluationError, mu_integer_multipliers
from optlim.numerics import PI2, reduce_centered
from optlim.potential import Potential

from conftest import dilog_monomials, make_rng, mu_oracle, random_essential_assignment
from oracles import monomial_value

TWO_PI = 2 * math.pi


def vector(solution, order):
    """The solution's values in the given variable order."""
    return np.array([solution.assignment[v] for v in order], dtype=complex)

# Every message refine() raises for a failed Newton row.
NEWTON_FAILURE = re.compile(
    r"iterate left the essential domain(: .*)?|singular Jacobian at iterate"
    r"|non-finite Newton step|line search stalled at residual \S+"
    r"|stagnation at residual \S+|divergence"
    r"|no convergence after \d+ iterations \(residual \S+\)")


class TestConfig:
    def test_defaults(self):
        assert [f.name for f in dataclasses.fields(SolveConfig)] == ["restarts", "seed"]
        cfg = SolveConfig()
        assert cfg.restarts == 512
        assert cfg.seed == 0
        assert solver.RESIDUAL_TOL == 1e-12
        assert solver.ITERATIONS == 200
        assert solver.ESSENTIAL_TOL == 1e-3
        assert solver.START_RADII == (0.1, 10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(restarts=0)
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            SolveConfig(seed=-1)


class TestEssentialMargin:
    def test_margin_is_distance_from_0_1_infinity(self, fig8):
        p = assemble_W(fig8)
        system = build_system(p)
        a = random_essential_assignment(p, make_rng(47))
        values = [monomial_value(m, a) for m in dilog_monomials(p)]
        expected = min(min(abs(v), abs(1 - v), 1 / abs(v)) for v in values)
        # numpy's complex abs rounds differently from Python's in the last bit
        assert solver.essential_margin(system, a) == pytest.approx(expected, rel=1e-15)

    def test_is_essential_is_the_margin_cut(self, fig8):
        p = assemble_W(fig8)
        system = build_system(p)
        a = random_essential_assignment(p, make_rng(53))
        margin = solver.essential_margin(system, a)
        assert solver.is_essential(system, a, margin)
        assert not solver.is_essential(system, a, margin * (1 + 1e-12))

    def test_batch_equals_single_points(self, fig8):
        p = assemble_W(fig8)
        system = build_system(p)
        rng = make_rng(59)
        points = [random_essential_assignment(p, rng) for _ in range(8)]
        batch = solver.essential_margin(
            system, np.array([system.point_from_assignment(a) for a in points]))
        assert batch.tolist() == [solver.essential_margin(system, a) for a in points]

    def test_zero_argument_has_margin_zero(self, fig8):
        system = build_system(assemble_W(fig8))
        a = {v: 1.0 for v in system.variables}
        assert solver.essential_margin(system, a) == 0.0

    @pytest.mark.parametrize("kind", ["W", "V"])
    def test_kernel_margin_brackets_essential_margin(self, fig8, kind):
        # margin_at reads min(|1 - m|, 1/|1 - m|, |m|) over the Li2
        # arguments and min(|m|, 1/|m|) over the log terms' monomials,
        # capped at 1: at most min(1, 2e) and at least min(e/2, the log
        # terms' margin), e = essential_margin.  Random points, and points
        # where the Li2 argument l/m sits 1e-2 .. 1e-12 from 1 and from 0.
        # The slack covers rounding: the kernel forms 1 - m from its own m.
        p = assemble_W(fig8) if kind == "W" else assemble_V(fig8)
        system = build_system(p)
        rng = make_rng(97)
        ratios = (t.m1.exps for t in p.terms if t.kind == "dilog")
        (l, _), (m, _) = next(e for e in ratios if sorted(k for _, k in e) == [-1, 1])
        points = []
        for k in range(24):
            a = random_essential_assignment(p, rng)
            delta = 10.0 ** -(2 + k % 11) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            points += [a, {**a, l: a[m] * (1.0 + delta)}, {**a, l: a[m] * delta}]
        log_monomials = [t_m for t in p.terms if t.kind == "logprod" for t_m in (t.m1, t.m2)]
        for a in points:
            w = system.point_from_assignment(a)
            w = w / w[-1]
            margin = system.margin_at(system.residual_state(w[:-1])[1])
            e = solver.essential_margin(system, w)
            logs = min((min(abs(v), 1 / abs(v)) for v in
                        (monomial_value(t_m, a) for t_m in log_monomials)), default=math.inf)
            assert margin <= min(1.0, 2.0 * e) * (1 + 1e-12) + 1e-15
            assert margin >= min(e / 2.0, logs) * (1 - 1e-12) - 1e-15
        assert min(solver.essential_margin(system, system.point_from_assignment(a))
                   for a in points) < 1e-11

    def test_solutions_clear_the_cut(self, fig8_w_solutions, fig8):
        system = build_system(assemble_W(fig8))
        for s in fig8_w_solutions:
            assert solver.essential_margin(system, s.assignment) >= solver.ESSENTIAL_TOL


class TestSolve:
    def test_figure_eight_volume_pair(self, fig8, fig8_w_solutions):
        p = assemble_W(fig8)
        vols = {round(w0(p, s).vol, 4) for s in fig8_w_solutions}
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
        system = build_system(p)
        assert solve(system, SolveConfig(restarts=8, seed=0)) == []

    def test_solutions_are_pinned_and_essential(self, fig8_w_solutions, fig8):
        system = build_system(assemble_W(fig8))
        for s in fig8_w_solutions:
            assert s.assignment[system.pin] == 1.0
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
        vecs = [vector(s, sorted(s.assignment, key=str)) for s in fig8_w_solutions]
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

    @pytest.mark.parametrize("n", range(1, twistknot.MAX_INDEX + 1))
    def test_noisy_twist_points_converge_to_their_rows(self, n):
        # Relative noise 1e-3 on every closed-form point, W regions and V
        # sides: 40 starts.  The plain Newton step stalled on 16 of them.
        rng = make_rng(59 + n)
        d = twistknot.twist_diagram(n)
        pw, pv = assemble_W(d), assemble_V(d)
        sw, sv = build_system(pw), build_system(pv)
        for t in twistknot.poly_roots(twistknot.defining_poly(n)):
            par = twistknot.parametrize(n, t)
            ref_vol, ref_cs = twistknot.match_reference_row(n, t)
            for system, pot, base in ((sw, pw, par.regions), (sv, pv, par.sides)):
                noise = rng.standard_normal((len(base), 2)) @ [1.0, 1.0j] / math.sqrt(2.0)
                start = {v: val * (1.0 + 1e-3 * z) for (v, val), z in zip(base.items(), noise)}
                res = w0(pot, refine(system, start))
                exact = w0(pot, base)
                assert abs(res.vol - exact.vol) < 1e-9
                assert abs(reduce_centered(res.cs_mod_pi2 - exact.cs_mod_pi2, PI2)) < 1e-9
                # the reference table has 4 decimals
                assert abs(res.vol - ref_vol) < 5e-4
                assert abs(reduce_centered(res.cs_mod_pi2 - ref_cs, PI2)) < 5e-4

    def test_exact_solution_returns_immediately(self, fig8, fig8_w_solutions):
        system = build_system(assemble_W(fig8))
        base = fig8_w_solutions[0]
        sol = refine(system, base.assignment)
        vec0 = vector(base, system.unknowns)
        vec1 = vector(sol, system.unknowns)
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
            vec0 = vector(base, system.unknowns)
            vec1 = vector(sol, system.unknowns)
            assert np.max(np.abs(vec0 - vec1)) < 1e-8

    def test_far_point_diverges(self, fig8, monkeypatch):
        monkeypatch.setattr(solver, "ITERATIONS", 12)
        p = assemble_W(fig8)
        system = build_system(p)
        rng = make_rng(37)
        a = random_essential_assignment(p, rng)
        a = {v: val * 1e6 for v, val in a.items()}
        with pytest.raises(SolveError):
            refine(system, a)

    @pytest.mark.parametrize("iterations", [1, 3, 12])
    def test_failure_reports_a_reason(self, fig8, monkeypatch, iterations):
        monkeypatch.setattr(solver, "ITERATIONS", iterations)
        p = assemble_W(fig8)
        system = build_system(p)
        rng = make_rng(41)
        a = random_essential_assignment(p, rng)
        a = {v: val * 1e6 for v, val in a.items()}
        with pytest.raises(SolveError) as info:
            refine(system, a)
        assert NEWTON_FAILURE.fullmatch(str(info.value))

    @pytest.mark.parametrize("entry,message", [(0.0, "singular Jacobian at iterate"),
                                               (np.nan, "non-finite Newton step")])
    def test_bad_jacobian_raises(self, fig8, fig8_w_solutions, monkeypatch, entry, message):
        system = build_system(assemble_W(fig8))
        start = {v: (1.0 + 0.01 * i) * val
                 for i, (v, val) in enumerate(fig8_w_solutions[0].assignment.items())}
        monkeypatch.setattr(EquationSystem, "jacobian_at",
                            lambda self, state: np.full(state.shape[:-1] + (self.size,) * 2, entry))
        with pytest.raises(SolveError, match=f"^{message}$"):
            refine(system, start)

    def test_missing_variable_raises(self, fig8, fig8_w_solutions):
        system = build_system(assemble_W(fig8))
        start = dict(fig8_w_solutions[0].assignment)
        del start[system.unknowns[2]]
        with pytest.raises(EvaluationError,
                           match=f"^variable {system.unknowns[2]!r} not assigned$"):
            refine(system, start)

    @pytest.mark.parametrize("value", [complex(np.nan, 0.0), complex(1.0, np.inf)])
    def test_non_finite_start_raises(self, fig8, fig8_w_solutions, value):
        system = build_system(assemble_W(fig8))
        for v in (system.unknowns[1], system.pin):
            start = dict(fig8_w_solutions[0].assignment)
            start[v] = value
            with pytest.raises(EvaluationError, match=f"^variable {v!r} is not finite: "):
                refine(system, start)

    def test_boundary_retiree_reports_its_margin(self):
        # A T3 W restart that converges onto the boundary: refine stops
        # where _newton retires it and says how close it came.
        system = build_system(assemble_W(builtin("T3")))
        X0 = _starts(system, 12)
        X, fnorm, status = solver._newton(system, X0)
        i = int(np.flatnonzero(status == solver.LEFT_DOMAIN)[0])
        with pytest.raises(SolveError) as info:
            refine(system, system.assignment_from_vector(X0[i]))
        found = re.fullmatch(r"iterate left the essential domain: "
                             r"essential margin (\S+) at residual (\S+)", str(info.value))
        assert found and NEWTON_FAILURE.fullmatch(str(info.value))
        assert float(found[1]) < 2 * solver.BOUNDARY_TOL
        assert found[2] == f"{fnorm[i]:.3e}" and fnorm[i] < 1e-2

    def test_non_essential_limit_raises(self):
        # A 4_1 W restart that converges, but onto a point below the
        # essential cut, and above the boundary rule's.
        system = build_system(assemble_W(builtin("4_1")))
        start = _starts(system, 64)[6]
        X, fnorm, status = solver._newton(system, start[None])
        margin = solver.essential_margin(system, np.append(X[0], 1.0))
        assert status[0] == solver.CONVERGED and 2 * solver.BOUNDARY_TOL < margin
        assert margin < solver.ESSENTIAL_TOL
        with pytest.raises(SolveError, match="^converged to a non-essential point$"):
            refine(system, system.assignment_from_vector(start))

    def test_degenerate_start_left_the_domain(self, fig8):
        system = build_system(assemble_W(fig8))
        with pytest.raises(SolveError, match="^iterate left the essential domain: "
                                             "non-essential point"):
            refine(system, {v: 1.0 for v in system.variables})


MULTISTART_SYSTEMS = (("4_1", "W"), ("5_2", "W"), ("5_2", "V"), ("T3", "W"), ("T5", "W"),
                      ("T5", "V"))


def _starts(system, count, seed=0):
    return np.array([solver._sample(np.random.default_rng(s), system.size)
                     for s in np.random.SeedSequence(seed).spawn(count)])


def _noisy_twist_start(system, n, noise, rng):
    """One start (1, size): the first closed-form point of twist knot n,
    W regions, with relative complex noise, pinned to 1."""
    par = twistknot.parametrize(n, twistknot.poly_roots(twistknot.defining_poly(n))[0])
    z = rng.standard_normal((len(par.regions), 2)) @ [1.0, 1.0j] / math.sqrt(2.0)
    start = {v: val * (1.0 + noise * dz) for (v, val), dz in zip(par.regions.items(), z)}
    return np.array([[start[v] / start[system.pin] for v in system.unknowns]])


class TestLockstepNewton:
    @pytest.mark.parametrize("block_rows", [solver.BLOCK_ROWS, 40])
    @pytest.mark.parametrize("name,kind", [("4_1", "W"), ("5_2", "V"), ("T5", "W")])
    def test_rows_independent_of_block(self, monkeypatch, name, kind, block_rows):
        # block_rows=40 splits the line search into 10 rows of 4 candidates
        # (t = 1 .. 1/8), then 10 rows of 4 (t = 1/16 .. 1/128) and then one
        # row of 22 candidates (t = 2^-8 .. 2^-29) per call, and the
        # Jacobians into blocks of 40 rows.
        monkeypatch.setattr(solver, "BLOCK_ROWS", block_rows)
        d = builtin(name)
        system = build_system(assemble_W(d) if kind == "W" else assemble_V(d))
        X0 = _starts(system, 24)
        if name == "T5":
            # None of the 24 T5 W starts converges: most retire on the
            # boundary.  A noisy closed-form point does converge.
            X0 = np.concatenate((X0, _noisy_twist_start(system, 5, 1e-3, make_rng(83))))
        X, fnorm, status = solver._newton(system, X0)
        assert (status == solver.CONVERGED).any()
        if name == "T5":
            assert (status == solver.LEFT_DOMAIN).any()
        for i in range(len(X0)):
            x1, f1, s1 = solver._newton(system, X0[i:i + 1])
            assert np.array_equal(x1[0], X[i])
            assert np.array_equal(f1[0], fnorm[i], equal_nan=True)
            assert s1[0] == status[i]

    @pytest.mark.parametrize("rows", [12, 64])
    @pytest.mark.parametrize("name,kind", MULTISTART_SYSTEMS)
    def test_row_partitions_join_bitwise(self, name, kind, rows):
        # What lets solve() split its rows across worker processes: _newton
        # over contiguous chunks, joined in row order, is _newton over all.
        d = builtin(name)
        system = build_system(assemble_W(d) if kind == "W" else assemble_V(d))
        X0 = _starts(system, rows, seed=rows)
        whole = solver._newton(system, X0)
        for cuts in ([0, rows // 3, rows], [0, 1, rows // 2 + 1, rows]):
            parts = [solver._newton(system, X0[a:b]) for a, b in zip(cuts, cuts[1:])]
            for joined, ref in zip(zip(*parts), whole):
                assert np.concatenate(joined).tobytes() == ref.tobytes()

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

    def test_rank_deficient_step_is_min_norm(self):
        # J = A B of rank 4 in C^6: the step stays finite, is not flagged
        # singular and has no component in the null space of J.
        rng = make_rng(61)
        n, rank = 6, 4
        for _ in range(5):
            A = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
            B = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
            J = A @ B
            F = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            steps, singular = solver._steps(J[None], F[None])
            step = steps[0]
            assert not singular.any()
            assert np.isfinite(step).all()
            null = np.linalg.svd(J)[2][rank:].conj().T
            assert np.linalg.norm(null.conj().T @ step) < 1e-6 * np.linalg.norm(step)
            min_norm = -np.linalg.pinv(J) @ F
            assert np.linalg.norm(step - min_norm) < 1e-5 * np.linalg.norm(min_norm)

    def test_regular_step_is_newton(self):
        # Each singular component of the Newton step is shrunk by
        # s^2 / (s^2 + lam), so the relative change is at most lam / s_min^2.
        rng = make_rng(67)
        J = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
        F = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        steps, singular = solver._steps(J, F)
        assert not singular.any()
        newton = -np.linalg.solve(J, F[..., None])[..., 0]
        lam = solver.REGULARISATION * np.sum(np.abs(J) ** 2, axis=(1, 2))
        bound = lam / np.linalg.svd(J)[1][:, -1] ** 2 + 1e-12
        change = np.linalg.norm(steps - newton, axis=1) / np.linalg.norm(newton, axis=1)
        assert (change <= bound).all()
        assert (change > 0.1 * bound).any()

    @pytest.mark.parametrize("block_rows", [solver.BLOCK_ROWS, 40])
    def test_boundary_row_retires_left_domain(self, monkeypatch, block_rows):
        # Row 2, a noisy closed-form start, reads a zero margin at its
        # first iterate, where its residual norm is below 1e-2: it retires
        # there with that iterate and norm, and every other row runs on
        # bitwise unchanged.
        monkeypatch.setattr(solver, "BLOCK_ROWS", block_rows)
        system = build_system(assemble_W(builtin("T3")))
        X0 = _starts(system, 48)
        X0[2] = _noisy_twist_start(system, 3, 1e-3, make_rng(89))
        with monkeypatch.context() as m:
            m.setattr(solver, "ITERATIONS", 1)
            x1, f1, s1 = solver._newton(system, X0[2:3])
        assert s1.tolist() == [solver.MAX_ITER] and f1[0] < 1e-2
        X, fnorm, status = solver._newton(_boundary_at(system, x1[0]), X0)
        assert status[2] == solver.LEFT_DOMAIN
        assert X[2].tobytes() == x1[0].tobytes() and fnorm[2] == f1[0]
        others = np.arange(len(X0)) != 2
        ref = solver._newton(system, X0)
        assert ref[2][2] == solver.CONVERGED
        for a, b in zip((X, fnorm, status), ref):
            assert a[others].tobytes() == b[others].tobytes()

    def test_boundary_rule_precedence(self, monkeypatch):
        # With a zero margin at every iterate: a start that converges in
        # one step retires CONVERGED with the same point, and one still
        # far from a solution (residual norm above 1e-2) runs on.
        system = build_system(assemble_W(builtin("T3")))
        boundary = _boundary_at(system, None)
        X0 = _noisy_twist_start(system, 3, 1e-8, make_rng(89))
        X, fnorm, status = solver._newton(boundary, X0)
        assert status.tolist() == [solver.CONVERGED]
        ref_X, ref_fnorm, _ = solver._newton(system, X0)
        assert X.tobytes() == ref_X.tobytes() and fnorm.tobytes() == ref_fnorm.tobytes()
        monkeypatch.setattr(solver, "ITERATIONS", 3)
        X0 = _starts(system, 1)
        X, fnorm, status = solver._newton(boundary, X0)
        assert status.tolist() == [solver.MAX_ITER] and fnorm[0] > 1e-2
        assert X.tobytes() == solver._newton(system, X0)[0].tobytes()

    def test_singular_jacobian_retires_only_its_row(self, fig8):
        system = build_system(assemble_W(fig8))
        X0 = _starts(system, 6)
        ZeroJacobianAtRow2 = _edit_jacobian_at(system, X0[2], np.zeros_like)
        X, fnorm, status = solver._newton(ZeroJacobianAtRow2, X0)
        ref_X, ref_fnorm, ref_status = solver._newton(system, X0)
        assert status[2] == solver.SINGULAR
        assert np.array_equal(X[2], X0[2])
        others = [0, 1, 3, 4, 5]
        assert np.array_equal(X[others], ref_X[others])
        assert np.array_equal(status[others], ref_status[others])
        # Retiring the last live row ends the iteration.
        X, fnorm, status = solver._newton(ZeroJacobianAtRow2, X0[2:3])
        assert status.tolist() == [solver.SINGULAR]
        assert np.array_equal(X, X0[2:3])


def _edit_jacobian_at(system, x, edit):
    """system with edit applied to the Jacobian at the iterate x (a state
    row starts with the unknowns of its point)."""

    class Edited:
        residual_state = staticmethod(system.residual_state)
        margin_at = staticmethod(system.margin_at)

        @staticmethod
        def jacobian_at(state):
            J = system.jacobian_at(state)
            at = np.all(state[:, :system.size] == x, axis=-1)
            J[at] = edit(J[at])
            return J

    return Edited


def _boundary_at(system, x):
    """system with a zero margin at the iterate x, or at every iterate
    when x is None."""

    class OnBoundary:
        residual_state = staticmethod(system.residual_state)
        jacobian_at = staticmethod(system.jacobian_at)

        @staticmethod
        def margin_at(state):
            margin = system.margin_at(state)
            at = True if x is None else np.all(state[:, :system.size] == x, axis=-1)
            return np.where(at, 0.0, margin)

    return OnBoundary


LENGTHS = np.concatenate(solver._STAGES)[:, 0]


def _sequential_newton(system, x0):
    """_newton on the single row x0, one trial length per residual_state
    call: (x, fnorm, status) by the same rules, written out row-wise."""
    x = x0[None]
    with np.errstate(all="ignore"):
        F, state = system.residual_state(x)
        fnorm = solver._norms(F)[0]
    if fnorm <= solver.RESIDUAL_TOL:
        return x[0], fnorm, solver.CONVERGED
    if not np.isfinite(fnorm):
        return x[0], fnorm, solver.LEFT_DOMAIN
    slow = 0
    for _ in range(solver.ITERATIONS):
        with np.errstate(all="ignore"):
            step, singular = solver._steps(system.jacobian_at(state), F)
        if singular[0]:
            return x[0], fnorm, solver.SINGULAR
        if not np.isfinite(step).all():
            return x[0], fnorm, solver.NONFINITE_STEP
        with np.errstate(over="ignore", invalid="ignore"):
            step_len, max_len = solver._norms(step)[0], 1.0 + solver._norms(x)[0]
        if step_len > max_len:
            step *= max_len / step_len
        for j in range(len(LENGTHS)):
            cand = x + LENGTHS[[j]][:, None] * step
            with np.errstate(all="ignore"):
                F_cand, state_cand = system.residual_state(cand)
                norm = solver._norms(F_cand)[0]
            if norm < fnorm:
                break
        else:
            return x[0], fnorm, solver.STALLED
        ratio = norm / fnorm
        x, F, state, fnorm = cand, F_cand, state_cand, norm
        if fnorm <= solver.RESIDUAL_TOL:
            return x[0], fnorm, solver.CONVERGED
        if system.margin_at(state)[0] < solver.BOUNDARY_TOL and fnorm < 1e-2:
            return x[0], fnorm, solver.LEFT_DOMAIN
        slow = slow + 1 if ratio > 0.9 else 0
        if slow >= 20 and fnorm > 1e-6:
            return x[0], fnorm, solver.STAGNATION
        ax = np.abs(x[0])
        if fnorm > 1e12 or ax.max() > 1e12 or ax.min() < 1e-12:
            return x[0], fnorm, solver.DIVERGED
    return x[0], fnorm, solver.MAX_ITER


def _assert_matches_sequential(system, X0):
    """_newton on X0 equals the sequential oracle bitwise, row by row;
    returns its status codes."""
    X, fnorm, status = solver._newton(system, X0)
    for i, x0 in enumerate(X0):
        x, fn, code = _sequential_newton(system, x0)
        assert X[i].tobytes() == x.tobytes()
        assert fnorm[i].tobytes() == fn.tobytes()
        assert status[i] == code
    return status


class TestSequentialOracle:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name,kind", MULTISTART_SYSTEMS)
    def test_lockstep_equals_sequential(self, name, kind, seed):
        d = builtin(name)
        system = build_system(assemble_W(d) if kind == "W" else assemble_V(d))
        _assert_matches_sequential(system, _starts(system, 12, seed))

    @pytest.mark.parametrize("noise", [1e-8, 1e-3])
    @pytest.mark.parametrize("n", range(1, twistknot.MAX_INDEX + 1))
    def test_single_row_polish_starts(self, n, noise):
        # refine's path: one row, live at the start, from a closed-form
        # point with relative noise, which converges in a few iterations
        # and retires; W regions and V sides.
        rng = make_rng(73 + n)
        d = twistknot.twist_diagram(n)
        systems = (build_system(assemble_W(d)), build_system(assemble_V(d)))
        for t in twistknot.poly_roots(twistknot.defining_poly(n)):
            par = twistknot.parametrize(n, t)
            for system, base in zip(systems, (par.regions, par.sides)):
                z = rng.standard_normal((len(base), 2)) @ [1.0, 1.0j] / math.sqrt(2.0)
                start = {v: val * (1.0 + noise * dz) for (v, val), dz in zip(base.items(), z)}
                pin = start[system.pin]
                X0 = np.array([[start[v] / pin for v in system.unknowns]])
                status = _assert_matches_sequential(system, X0)
                assert status.tolist() == [solver.CONVERGED]

    def test_max_iter_and_left_domain(self, monkeypatch, knot52):
        monkeypatch.setattr(solver, "ITERATIONS", 4)
        system = build_system(assemble_V(knot52))
        X0 = _starts(system, 12)
        X0[5] = 1.0
        status = _assert_matches_sequential(system, X0)
        assert status[5] == solver.LEFT_DOMAIN
        assert (status == solver.MAX_ITER).sum() >= 6

    @pytest.mark.parametrize("block_rows", [solver.BLOCK_ROWS, 40])
    def test_rows_converging_in_one_screen(self, monkeypatch, block_rows):
        # 48 copies of one noisy closed-form start: every live row
        # converges in the same screen, which ends the iteration.
        monkeypatch.setattr(solver, "BLOCK_ROWS", block_rows)
        system = build_system(assemble_W(builtin("T3")))
        X0 = np.repeat(_noisy_twist_start(system, 3, 1e-3, make_rng(89)), 48, axis=0)
        status = _assert_matches_sequential(system, X0)
        assert status.tolist() == [solver.CONVERGED] * 48
        alone = solver._newton(system, X0[:1])
        X, fnorm, _ = solver._newton(system, X0)
        assert X.tobytes() == np.repeat(alone[0], 48, axis=0).tobytes()
        assert fnorm.tobytes() == np.repeat(alone[1], 48).tobytes()

    def test_last_rows_retiring_in_one_screen(self):
        # With a zero margin at every iterate: row 0 leaves the domain at
        # its start, and after one step row 1 has converged and row 2 (a
        # residual norm below 1e-2) leaves the domain, in the same screen.
        system = build_system(assemble_W(builtin("T3")))
        boundary = _boundary_at(system, None)
        X0 = np.concatenate((np.ones((1, system.size), dtype=complex),
                             _noisy_twist_start(system, 3, 1e-8, make_rng(89)),
                             _noisy_twist_start(system, 3, 1e-3, make_rng(89))))
        status = _assert_matches_sequential(boundary, X0)
        assert status.tolist() == [solver.LEFT_DOMAIN, solver.CONVERGED, solver.LEFT_DOMAIN]
        X, fnorm, _ = solver._newton(boundary, X0)
        for i in range(len(X0)):
            x1, f1, s1 = solver._newton(boundary, X0[i:i + 1])
            assert X[i].tobytes() == x1[0].tobytes() and fnorm[i].tobytes() == f1[0].tobytes()
            assert s1[0] == status[i]

    @pytest.mark.parametrize("edit,code", [
        (np.zeros_like, solver.SINGULAR),
        (lambda J: np.full_like(J, np.nan), solver.NONFINITE_STEP),
        # The step becomes -1e-6 times the Gauss-Newton step, which
        # ascends at every length.
        (lambda J: -1e6 * J, solver.STALLED)])
    def test_retired_row_matches_sequential(self, edit, code):
        system = build_system(assemble_W(builtin("T3")))
        X0 = _starts(system, 12)
        edited = _edit_jacobian_at(system, X0[2], edit)
        status = _assert_matches_sequential(edited, X0)
        assert status[2] == code
        X, fnorm, _ = solver._newton(edited, X0)
        with np.errstate(all="ignore"):
            start = solver._norms(system.residual_state(X0[2:3])[0])[0]
        assert X[2].tobytes() == X0[2].tobytes() and fnorm[2] == start
        others = np.arange(12) != 2
        ref = solver._newton(system, X0)
        for a, b in zip((X, fnorm, status), ref):
            assert a[others].tobytes() == b[others].tobytes()


def _exhaustive_line_search(system, x, step, fnorm):
    """The line search before it was staged: t = 1 for every row, then all
    of t = 1/2 .. 2^-29 in one call for the rows that rejected t = 1."""
    backtrack = 0.5 ** np.arange(1, 30)
    cand = x + step
    F = solver._blocks(system.residual_vector, cand)
    cnorm = solver._norms(F)
    accepted = cnorm < fnorm
    rejected = np.flatnonzero(~accepted)
    per_call = max(1, solver.BLOCK_ROWS // len(backtrack))
    for i in range(0, len(rejected), per_call):
        rows = rejected[i:i + per_call]
        shorter = x[rows, None, :] + backtrack[:, None] * step[rows, None, :]
        Fs = system.residual_vector(shorter.reshape(-1, x.shape[1])).reshape(
            shorter.shape[:2] + (F.shape[1],))
        norms = solver._norms(Fs)
        ok = norms < fnorm[rows, None]
        found = ok.any(axis=1)
        first = ok.argmax(axis=1)[found]
        rows = rows[found]
        cand[rows] = shorter[found, first]
        F[rows] = Fs[found, first]
        cnorm[rows] = norms[found, first]
        accepted[rows] = True
    return accepted, cand, F, cnorm


class TestLineSearch:
    @pytest.mark.parametrize("block_rows", [solver.BLOCK_ROWS, 40])
    @pytest.mark.parametrize("name,kind", MULTISTART_SYSTEMS)
    def test_matches_exhaustive_search(self, monkeypatch, name, kind, block_rows):
        # Newton steps scaled by 10^-1 .. 10^4 accept at every depth; a
        # reversed step is an ascent direction and rejects every length.
        monkeypatch.setattr(solver, "BLOCK_ROWS", block_rows)
        d = builtin(name)
        system = build_system(assemble_W(d) if kind == "W" else assemble_V(d))
        rng = make_rng(71)
        x = _starts(system, 48, seed=3)
        F = system.residual_vector(x)
        fnorm = solver._norms(F)
        step = solver._steps(system.jacobian(x), F)[0]
        step *= (10.0 ** rng.uniform(-1, 4, len(x)))[:, None]
        step[::8] *= -1e-3
        got = solver._line_search(system, x, step, fnorm)
        ref = _exhaustive_line_search(system, x, step, fnorm)
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()
        # Depth of the accepted length per row, -1 for a stall.
        lengths = 0.5 ** np.arange(30)
        cands = x[:, None, :] + lengths[:, None] * step[:, None, :]
        cands[:, 0] = x + step
        ok = solver._norms(system.residual_vector(cands.reshape(-1, x.shape[1])).reshape(
            cands.shape[:2] + (F.shape[1],))) < fnorm[:, None]
        depth = np.where(ok.any(axis=1), ok.argmax(axis=1), -1)
        assert np.array_equal(depth >= 0, ref[0])
        assert (depth == -1).any() and (depth > 3).any() and (depth == 0).any()

    @pytest.mark.parametrize("name,kind", MULTISTART_SYSTEMS)
    def test_single_rows_match_exhaustive_search(self, name, kind):
        # One row, as in refine: each stage is one call.  Over the six
        # systems the rows accept in each of the three stages, or never.
        d = builtin(name)
        system = build_system(assemble_W(d) if kind == "W" else assemble_V(d))
        x = _starts(system, 16, seed=3)
        F = system.residual_vector(x)
        fnorm = solver._norms(F)
        step = solver._steps(system.jacobian(x), F)[0]
        step *= (10.0 ** make_rng(71).uniform(-1, 4, len(x)))[:, None]
        step[::8] *= -1e-3
        ref = _exhaustive_line_search(system, x, step, fnorm)
        for i in range(len(x)):
            got = solver._line_search(system, x[i:i + 1], step[i:i + 1], fnorm[i:i + 1])
            for a, b in zip(got, ref):
                assert a.tobytes() == b[i:i + 1].tobytes()

    def test_residual_rows_on_multistart_systems(self, monkeypatch):
        # The six systems at 12 restarts, seeds 0-4: the exhaustive search
        # evaluated 207,998 residual rows (4,024 calls); the search staged
        # as t = 1 and then 1/2 .. 1/8 evaluated 76,932 (4,846 calls) and
        # ran the kernel again for each of its 2,364 Jacobians.  Staged as
        # t = 1 .. 1/8, with every Jacobian formed from the kernel state of
        # its iterate, it evaluates 72,892 rows in 3,407 kernel passes.
        rows = passes = 0
        kernel = EquationSystem._kernel

        def counting_kernel(self, x, *args):
            nonlocal passes
            passes += 1
            return kernel(self, x, *args)

        monkeypatch.setattr(EquationSystem, "_kernel", counting_kernel)
        for name, kind in MULTISTART_SYSTEMS:
            d = builtin(name)
            system = build_system(assemble_W(d) if kind == "W" else assemble_V(d))

            class Counting:
                @staticmethod
                def residual_state(x):
                    nonlocal rows
                    rows += len(x)
                    return system.residual_state(x)

                jacobian_at = staticmethod(system.jacobian_at)
                margin_at = staticmethod(system.margin_at)

            for seed in range(5):
                solver._newton(Counting, _starts(system, 12, seed))
        assert rows <= 207_998 // 2
        assert passes <= 7_210 // 2


def test_status_counts_on_multistart_systems():
    # The six systems of the multistart benchmark at 12 restarts, seeds
    # 0-4 (360 rows).  Plain Newton steps -J^-1 F: 58 converged, 25
    # stalled in the line search, 8 at MAX_ITER, 202 stagnated, 67
    # diverged.  Regularised Gauss-Newton steps: 116 converged, 0 stalled,
    # 1 at MAX_ITER, 205 stagnated, 38 diverged.  With rows retired on
    # the boundary (margin_at < BOUNDARY_TOL at a residual norm below
    # 1e-2): 77 converged, 134 left the domain, 148 stagnated, 0 diverged,
    # 1 at MAX_ITER.  The 61 converged essential rows are the same either
    # way; the non-essential converged rows now mostly retire earlier.
    status, essential = [], 0
    for name, kind in MULTISTART_SYSTEMS:
        d = builtin(name)
        system = build_system(assemble_W(d) if kind == "W" else assemble_V(d))
        for seed in range(5):
            X, _, code = solver._newton(system, _starts(system, 12, seed))
            status.append(code)
            for x in X[code == solver.CONVERGED]:
                essential += solver.is_essential(system, np.append(x, 1.0), solver.ESSENTIAL_TOL)
    counts = np.bincount(np.concatenate(status), minlength=solver.MAX_ITER + 1)
    assert counts.sum() == 360
    assert essential == 61
    assert counts[solver.STALLED] <= 5
    assert counts[solver.MAX_ITER] <= 3


def test_baseline_rows_at_512_restarts(fig8_w_solutions, knot52_w_solutions,
                                       knot52_v_solutions):
    # The points that solve returns at the default 512 restarts, seed 0:
    # 4_1 W, 5_2 W and V, T3 W, T5 W and V (the ROADMAP Baseline table).
    counts = [len(fig8_w_solutions), len(knot52_w_solutions), len(knot52_v_solutions)]
    for name, kind in MULTISTART_SYSTEMS[3:]:
        d = builtin(name)
        system = build_system(assemble_W(d) if kind == "W" else assemble_V(d))
        counts.append(len(solve(system, SolveConfig(restarts=512, seed=0))))
    assert counts == [104, 53, 276, 35, 3, 73]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name,kind", MULTISTART_SYSTEMS)
def test_solve_returns_every_converged_essential_row(name, kind, seed):
    # No restart is dropped as a duplicate: solve is the CONVERGED rows
    # of _newton that pass is_essential, in (residual, rounded
    # coordinates) order.
    d = builtin(name)
    system = build_system(assemble_W(d) if kind == "W" else assemble_V(d))
    X, fnorm, status = solver._newton(system, _starts(system, 64, seed))
    rows = [i for i in range(64) if status[i] == solver.CONVERGED
            and solver.is_essential(system, np.append(X[i], 1.0), solver.ESSENTIAL_TOL)]
    rows.sort(key=lambda i: (fnorm[i], *np.round(X[i].view(float), 6)))
    solutions = solve(system, SolveConfig(restarts=64, seed=seed))
    assert len(solutions) == len(rows)
    for s, i in zip(solutions, rows):
        assert s.assignment == system.assignment_from_vector(X[i])
        assert s.residual_norm == fnorm[i]


def test_memory_independent_of_restarts():
    # Bounds the peak at the default 512 restarts; the live rows' kernel
    # states and Jacobians still grow with the number of restarts.
    system = build_system(assemble_W(builtin("T5")))
    tracemalloc.start()
    try:
        solve(system, SolveConfig(restarts=512, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
