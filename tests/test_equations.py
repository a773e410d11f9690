"""Log-derivatives, the Euler relation, and the rational residual systems."""

import cmath
import math

import numpy as np
import pytest

from optlim import (ALT_NEG_LOG, assemble_V, assemble_W, build_system, builtin, bw_volume,
                    evaluate, sign_flip, sign_flip_point, w0)
from optlim import twistknot
from optlim.equations import EvaluationError, mu_integer_multipliers
from optlim.numerics import shape_double_prime, shape_prime
from optlim.optimistic import w0_batch
from optlim.potential import Potential
from optlim.solver import SolveError, essential_margin, is_essential, refine

from conftest import (coefficients_term_by_term, compiled_coefficients, make_rng, mu_oracle,
                      random_essential_assignment)
from oracles import substituted_potential, twist_potential

TWO_PI_I = 2j * math.pi


def mu_fd(potential, a, var, rel_step=1e-6):
    """Richardson-extrapolated central difference of w dW/dw.

    The step is relative (w -> w(1 +- h)), so the plain difference quotient
    already carries the w factor of the scaled derivative.
    """
    base = dict(a)
    w = complex(base[var])

    def deriv(h):
        up = dict(base)
        dn = dict(base)
        up[var] = w * (1 + h)
        dn[var] = w * (1 - h)
        return (evaluate(potential, up) - evaluate(potential, dn)) / (2 * h)

    d1 = deriv(rel_step)
    d2 = deriv(rel_step / 2)
    return (4 * d2 - d1) / 3


class TestLogDerivative:
    def test_corner_product_positive_crossing(self, fig8):
        # exp(mu_j) of one positive block equals q' * (wm/wj)'' * (wk/wj)''
        from optlim.diagram import Crossing
        from optlim.potential import region_terms_W
        c = Crossing(+1, ("j", "k", "l", "m"), (1, 2, 3, 4))
        p = Potential(tuple(region_terms_W(c.sign, c.regions)), ("j", "k", "l", "m"), "W")
        system = build_system(p)
        rng = make_rng(11)
        for _ in range(25):
            a = random_essential_assignment(p, rng)
            wj, wk, wl, wm = (a[x] for x in ("j", "k", "l", "m"))
            expected = (shape_prime(wj * wl / (wk * wm))
                        * shape_double_prime(wm / wj)
                        * shape_double_prime(wk / wj))
            got = cmath.exp(system.mu(a)[0])
            assert abs(got - expected) < 1e-10 * max(1.0, abs(expected))

    @pytest.mark.parametrize("maker", [
        lambda: assemble_W(builtin("4_1")),
        lambda: assemble_V(builtin("4_1")),
        lambda: assemble_W(builtin("T2")),
    ])
    def test_matches_finite_differences(self, maker):
        p = maker()
        system = build_system(p)
        rng = make_rng(5)
        for _ in range(20):
            a = random_essential_assignment(p, rng, off_cuts=True)
            for var, analytic in zip(p.variables, system.mu(a)):
                numeric = mu_fd(p, a, var)
                denom = max(1.0, abs(analytic))
                assert abs(analytic - numeric) / denom < 1e-6

    def test_integer_coefficients(self, fig8):
        system = build_system(assemble_W(fig8))
        C = system._coeffs
        assert C.dtype.kind == "i"
        assert C.shape == (len(system.variables), len(system._terms.atom_mono))


@pytest.mark.parametrize("name", ["4_1", "5_2", "T1", "T2", "T3", "T4", "T5"])
@pytest.mark.parametrize("kind", ["W", "W-alt", "V"])
def test_log_derivatives_match_terms(name, kind):
    d = builtin(name)
    p = {"W": lambda: assemble_W(d), "W-alt": lambda: assemble_W(d, variant=ALT_NEG_LOG),
         "V": lambda: assemble_V(d)}[kind]()
    assert compiled_coefficients(build_system(p)) == coefficients_term_by_term(p)


class TestEmptyEquation:
    def test_unused_unknown_is_rejected(self):
        from optlim import Monomial, Term
        p = Potential((Term.dilog(1, Monomial.ratio("x", "z")),), ("x", "y", "z"), "W")
        with pytest.raises(ValueError, match="variable 'y' has an empty equation"):
            build_system(p)

    def test_cancelling_terms_leave_an_empty_equation(self):
        from optlim import Monomial, Term
        m = Monomial.ratio("x", "z")
        p = Potential((Term.dilog(1, m), Term.dilog(-1, m)), ("x", "z"), "W")
        with pytest.raises(ValueError, match="variable 'x' has an empty equation"):
            build_system(p)

    def test_unused_pin_builds(self):
        from optlim import Monomial, Term
        p = Potential((Term.dilog(1, Monomial.ratio("x", "y")),), ("x", "y", "z"), "W")
        system = build_system(p)
        assert system.pin == "z"
        a = {"x": 0.5 + 0.5j, "y": 1.5 - 0.2j, "z": 2.0 + 0j}
        mu = system.mu(a)
        assert mu[2] == 0
        assert mu == pytest.approx(list(mu_oracle(p, a).values()))


class TestEulerRelation:
    @pytest.mark.parametrize("name,kind", [
        ("4_1", "W"), ("4_1", "V"), ("5_2", "W"), ("5_2", "V"), ("T4", "W"),
    ])
    def test_symbolic_cancellation(self, name, kind):
        d = builtin(name)
        p = assemble_W(d) if kind == "W" else assemble_V(d)
        assert not build_system(p)._coeffs.sum(axis=0).any()

    def test_numeric_sum_vanishes(self, fig8):
        p = assemble_W(fig8)
        system = build_system(p)
        rng = make_rng(7)
        for _ in range(200):
            a = random_essential_assignment(p, rng)
            assert abs(sum(system.mu(a))) < 1e-12


class TestBuildSystem:
    def test_pin_and_counts_region(self, fig8):
        p = assemble_W(fig8)
        system = build_system(p)
        assert system.pin == 6
        assert len(system.unknowns) == 5
        # five equations kept, mu over all six variables
        a = random_essential_assignment(p, make_rng(3))
        w = system.point_from_assignment(a)
        assert len(system.residual_vector(w[:-1] / w[-1])) == 5
        assert len(system.mu(a)) == 6

    def test_pin_and_counts_side(self, fig8):
        p = assemble_V(fig8)
        system = build_system(p)
        assert len(system.unknowns) == 7
        a = random_essential_assignment(p, make_rng(3))
        w = system.point_from_assignment(a)
        assert len(system.residual_vector(w[:-1] / w[-1])) == 7
        assert len(system.mu(a)) == 8

    def test_default_pin_is_last(self, fig8):
        system = build_system(assemble_W(fig8))
        assert system.pin == 6

    def test_full_residual_product_is_one(self, fig8):
        # product over ALL variables of exp(mu_k) = 1 exactly (Euler relation)
        p = assemble_W(fig8)
        system = build_system(p)
        rng = make_rng(13)
        for _ in range(100):
            a = random_essential_assignment(p, rng)
            prod = 1.0 + 0j
            for mu in mu_oracle(p, a).values():
                prod *= cmath.exp(mu)
            assert abs(prod - 1.0) < 1e-10

    def test_zero_unknown_system(self):
        p = Potential((), ("x",), "W")
        system = build_system(p)
        assert system.size == 0
        assert len(system.residual_vector([])) == 0

    def test_rational_form_matches_exponentiated_logs(self, fig8):
        # branch-free check: the compiled rational residuals agree with
        # exp of the principal-log derivative sums at arbitrary points
        p = assemble_W(fig8)
        system = build_system(p)
        rng = make_rng(29)
        for _ in range(50):
            a = random_essential_assignment(p, rng)
            a[system.pin] = 1.0 + 0j
            res = system.residual_vector([a[v] for v in system.unknowns])
            mu = mu_oracle(p, a)
            for i, var in enumerate(system.unknowns):
                direct = cmath.exp(mu[var]) - 1.0
                assert abs(res[i] - direct) < 1e-10 * max(1.0, abs(direct))


class TestResidual:
    def test_twist_point_solves(self):
        d = builtin("T1")
        p = assemble_W(d)
        system = build_system(p)
        t = complex(2, 2 / math.sqrt(3))
        a = twistknot.parametrize(1, t).assignment
        pin_value = a[system.pin]
        x = [a[v] / pin_value for v in system.unknowns]
        res = system.residual_vector(x)
        assert np.max(np.abs(res)) < 1e-9

    def test_all_ones_is_non_essential(self, fig8):
        system = build_system(assemble_W(fig8))
        with pytest.raises(EvaluationError, match="non-essential"):
            system.residual_vector([1.0] * system.size)

    @pytest.mark.parametrize("value,cause", [(0.0, "zero variable value"),
                                             (math.inf, "non-finite variable value"),
                                             (complex(math.nan, 0.0), "non-finite variable value")])
    def test_degenerate_variable_names_its_cause(self, fig8, value, cause):
        system = build_system(assemble_W(fig8))
        x = np.array([0.7 + 0.3j, 1.3 - 0.2j, value, 0.9 + 0.5j, 1.1 + 0.1j])
        with pytest.raises(EvaluationError, match=f"^{cause}$"):
            system.residual_vector(x)
        with np.errstate(all="ignore"):
            assert np.isnan(system.residual_state(x[None])[0]).all()

    # Every [w, 1/w, 1] and [base, 1/base, 1] entry of the kernel is finite
    # at these 4_1 W points, though the products of their sums overflow.
    FAR = (0.7 + 0.3j, 1.3 - 0.2j, 0.9 + 0.5j, 1.1 + 0.1j)

    def test_far_point_is_evaluated(self, fig8):
        # exp(mu_k) is finite at 1e-156 too: the residual is a number.
        system = build_system(assemble_W(fig8))
        x = np.array([1e-156, *self.FAR])
        res = system.residual_vector(x)
        assert np.isfinite(res).all()
        assert res.tobytes() == system.residual_vector(x[None])[0].tobytes()

    def test_overflow_names_its_cause(self, fig8):
        # At 1e160 the first exp(mu_k) product overflows, and only that one.
        system = build_system(assemble_W(fig8))
        x = np.array([1e160, *self.FAR])
        with pytest.raises(EvaluationError, match=r"^non-finite value: a monomial value "
                                                  r"or exp\(mu_k\) overflows$"):
            system.residual_vector(x)
        with np.errstate(all="ignore"):
            row = system.residual_state(x[None])[0][0]
        assert np.isfinite(row).tolist() == [False, True, True, True, True]
        with pytest.raises(SolveError, match="^iterate left the essential domain: "
                                             "non-finite value"):
            refine(system, system.assignment_from_vector(x))

    def test_local_linearization(self):
        d = builtin("T1")
        system = build_system(assemble_W(d))
        t = complex(2, 2 / math.sqrt(3))
        a = twistknot.parametrize(1, t).assignment
        pin_value = a[system.pin]
        x = np.array([a[v] / pin_value for v in system.unknowns], dtype=complex)
        rng = make_rng(17)
        delta = 1e-6 * (rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x)))
        res = system.residual_vector(x + delta)
        jnorm = np.linalg.norm(system.jacobian(x))
        assert 0 < np.linalg.norm(res) < 10 * 1e-6 * jnorm

    def test_jacobian_matches_finite_differences(self, fig8):
        p = assemble_W(fig8)
        system = build_system(p)
        rng = make_rng(19)
        a = random_essential_assignment(p, rng)
        x = np.array([a[v] / a[system.pin] for v in system.unknowns], dtype=complex)
        J = system.jacobian(x)
        h = 1e-7
        for col in range(len(x)):
            e = np.zeros(len(x), dtype=complex)
            e[col] = h * max(1.0, abs(x[col]))
            fd = (system.residual_vector(x + e) - system.residual_vector(x - e)) / (2 * e[col])
            assert np.max(np.abs(J[:, col] - fd)) < 1e-5 * max(1.0, np.max(np.abs(fd)))


# The evaluators that read an assignment through
# EquationSystem.point_from_assignment, on the region potential of T1;
# refine's own test is in test_solver.
ASSIGNMENT_ENTRY_POINTS = {
    "w0": lambda d, a: w0(assemble_W(d), a),
    "w0_batch": lambda d, a: w0_batch(assemble_W(d), [a]),
    "evaluate": lambda d, a: evaluate(assemble_W(d), a),
    "bw_volume": bw_volume,
    "essential_margin": lambda d, a: essential_margin(build_system(assemble_W(d)), a),
    "is_essential": lambda d, a: is_essential(build_system(assemble_W(d)), a, 1e-3),
}


@pytest.mark.parametrize("value", [complex(math.nan, 0.0), complex(math.inf, 0.0),
                                   complex(1.0, math.inf)])
@pytest.mark.parametrize("entry", sorted(ASSIGNMENT_ENTRY_POINTS))
def test_non_finite_variable_is_named(entry, value):
    # Named before any array work, so no numpy warning escapes either.
    d = builtin("T1")
    base = twistknot.parametrize(1, complex(2, 2 / math.sqrt(3))).assignment
    for v in (d.regions[1], assemble_W(d).variables[-1]):
        a = {**base, v: value}
        with pytest.raises(EvaluationError, match=rf"^variable {v!r} is not finite: "):
            ASSIGNMENT_ENTRY_POINTS[entry](d, a)


class TestMuIntegrality:
    def test_at_twist_solution(self):
        d = builtin("T2")
        p = assemble_W(d)
        system = build_system(p)
        roots = twistknot.poly_roots(twistknot.defining_poly(2))
        a = twistknot.parametrize(2, roots[0]).assignment
        ints = mu_integer_multipliers(system, a, tol=1e-8)
        assert set(ints) == set(p.variables)
        for v, mu in zip(p.variables, system.mu(a)):
            assert abs(mu - TWO_PI_I * ints[v]) < 1e-9

    def test_negative_real_axis_takes_plus_pi(self):
        # x = -2 - 0.0j makes both log atoms of mu_x read log(-2 - 0.0j);
        # the principal branch puts the negative real axis at +pi i.
        from optlim import Monomial, Term
        p = Potential((Term.logprod(1, Monomial.ratio("x", "y"), Monomial.ratio("x", "z")),),
                      ("x", "y", "z"), "W")
        a = {"x": complex(-2.0, -0.0), "y": 1 + 0j, "z": 1 + 0j}
        mu = build_system(p).mu(a)
        assert mu[0] == pytest.approx(2 * (math.log(2) + 1j * math.pi))
        assert mu == pytest.approx(list(mu_oracle(p, a).values()))

    def test_rejects_non_solution(self, fig8):
        p = assemble_W(fig8)
        system = build_system(p)
        rng = make_rng(23)
        a = random_essential_assignment(p, rng)
        with pytest.raises(EvaluationError, match="not a solution"):
            mu_integer_multipliers(system, a, tol=1e-6)


def _twist_mu_cases(n, kind):
    """(potential or sign flip, its potential spelled out term by term,
    point) at every closed-form solution of twist index n."""
    rng = make_rng(71 + n)
    for t in twistknot.poly_roots(twistknot.defining_poly(n)):
        a = twistknot.parametrize(n, t).assignment
        if kind == "W":
            p = twist_potential(n)
            yield p, p, a
        elif kind == "W-alt":
            p = twist_potential(n, variant=ALT_NEG_LOG)
            yield p, p, a
        elif kind == "V":
            p = assemble_V(builtin(f"T{n}"))
            yield p, p, a
        elif kind == "scaled":
            p = twist_potential(n)
            for _ in range(4):
                lam = complex(*rng.uniform(-3, 3, 2))
                yield p, p, {v: lam * val for v, val in a.items()}
        else:
            p = twist_potential(n)
            for _ in range(4):
                taus = {v: int(rng.choice((-1, 1))) for v in p.variables}
                eps = {v: int(rng.choice((-1, 1))) for v in p.variables}
                yield (sign_flip(p, taus, eps), substituted_potential(p, taus, eps),
                       sign_flip_point(p, taus, eps, a))


@pytest.mark.parametrize("kind", ["W", "W-alt", "V", "scaled", "sign-flipped"])
@pytest.mark.parametrize("n", range(1, 6))
def test_mu_integers_match_atom_oracle(n, kind):
    # The real roots, their rescalings and the sign flips put monomial
    # values on the log cut up to rounding, so this pins which side of it
    # the compiled evaluator takes.
    for p, reference, a in _twist_mu_cases(n, kind):
        system = build_system(p)
        ref = mu_oracle(reference, a)
        ints = mu_integer_multipliers(system, a)
        assert ints == {v: round(mu.imag / (2 * math.pi)) for v, mu in ref.items()}
        for v, mu in zip(p.variables, system.mu(a)):
            assert abs(mu - ref[v]) < 1e-12


BUILTIN_SYSTEMS = [(name, kind) for name in ("4_1", "5_2", "T1", "T2", "T3", "T4", "T5")
                   for kind in ("W", "V")]


def _builtin_potential(name, kind):
    d = builtin(name)
    return assemble_W(d) if kind == "W" else assemble_V(d)


def _pinned_points(potential, rng, count):
    """Random essential assignments with the pin at 1, and their unknowns as rows."""
    system = build_system(potential)
    points = []
    for _ in range(count):
        a = random_essential_assignment(potential, rng)
        points.append({v: val / a[system.pin] for v, val in a.items()})
    return points, np.array([system.point_from_assignment(a)[:-1] for a in points])


@pytest.mark.parametrize("name,kind", BUILTIN_SYSTEMS)
class TestBatchedKernel:
    def test_block_equals_rows(self, name, kind):
        p = _builtin_potential(name, kind)
        system = build_system(p)
        _, X = _pinned_points(p, make_rng(41), 7)
        res, jac = system.residual_vector(X), system.jacobian(X)
        assert res.shape == X.shape and jac.shape == X.shape + X.shape[1:]
        for i, x in enumerate(X):
            assert np.array_equal(res[i], system.residual_vector(x))
            assert np.array_equal(jac[i], system.jacobian(x))

    def test_residual_matches_exponentiated_mu(self, name, kind):
        p = _builtin_potential(name, kind)
        system = build_system(p)
        points, X = _pinned_points(p, make_rng(43), 10)
        res = system.residual_vector(X)
        for a, row in zip(points, res):
            mu = mu_oracle(p, a)
            for var, value in zip(system.unknowns, row):
                direct = cmath.exp(mu[var]) - 1.0
                assert abs(value - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_jacobian_matches_finite_differences(self, name, kind):
        p = _builtin_potential(name, kind)
        system = build_system(p)
        _, X = _pinned_points(p, make_rng(47), 3)
        h = 1e-7
        for x, J in zip(X, system.jacobian(X)):
            steps = h * np.maximum(1.0, np.abs(x))
            up = system.residual_vector(x + np.diag(steps))
            down = system.residual_vector(x - np.diag(steps))
            fd = ((up - down) / (2 * steps[:, None])).T
            assert np.max(np.abs(J - fd)) < 1e-5 * max(1.0, np.max(np.abs(fd)))

    @pytest.mark.parametrize("bad", ["ones", "zero"])
    def test_degenerate_row_is_non_finite(self, name, kind, bad):
        p = _builtin_potential(name, kind)
        system = build_system(p)
        _, X = _pinned_points(p, make_rng(53), 4)
        if bad == "ones":
            X[2] = 1.0        # every ratio is 1: a (1 - m) factor vanishes
        else:
            X[2, 0] = 0.0
        res, jac = system.residual_vector(X), system.jacobian(X)
        assert not np.isfinite(res[2]).any()
        assert not np.isfinite(jac[2]).any()
        for i in (0, 1, 3):
            assert np.array_equal(res[i], system.residual_vector(X[i]))
            assert np.array_equal(jac[i], system.jacobian(X[i]))
        with pytest.raises(EvaluationError):
            system.residual_vector(X[2])
        with pytest.raises(EvaluationError):
            system.jacobian(X[2])

    def test_jacobian_from_state_rows(self, name, kind):
        # The Newton iteration forms J from the kernel state rows of its
        # live points, a reordered subset of one residual_state() call.
        p = _builtin_potential(name, kind)
        system = build_system(p)
        _, X = _pinned_points(p, make_rng(59), 6)
        X[1] = 1.0          # every ratio is 1: a (1 - m) factor vanishes
        rows = np.array([5, 1, 3, 0])
        with np.errstate(all="ignore"):
            state = system.residual_state(X)[1]
            J = system.jacobian_at(state[rows])
        assert J.tobytes() == system.jacobian(X[rows]).tobytes()


def _dense_jacobian(system, state):
    """jacobian_at's Jacobian built entry by entry from the compiled
    coefficient and exponent matrices: J[k, v] = sum_a C[k, a] deg_v(m_a) g_a
    over the atoms a in order, times exp(mu_k), times 1/w_v, with g = t/base
    for (1 - m) atoms and 1 for m atoms.  Each entry's terms are summed as
    one reduceat segment of their own: numpy's reduceat adds a segment's
    first term to the pairwise sum of the others, which neither a Python
    loop nor np.add.reduce reproduces."""
    nu = system.size
    k = system._products
    used = np.flatnonzero(system._coeffs[:nu].any(axis=0))
    C = system._coeffs[:nu, used]
    E = system._exps[system._terms.atom_mono[used]]
    na = len(used)
    t, inv_base = state[..., k.t], state[..., k.ab][..., na:2 * na]
    g = np.where(system._terms.atom_is_1m[used], t * inv_base, 1.0)
    entries = np.zeros(state.shape[:-1] + (nu, nu), dtype=complex)
    for row in range(nu):
        for v in range(nu):
            atoms = np.flatnonzero(C[row] * E[:, v])
            if atoms.size:
                terms = g[..., atoms] * (C[row, atoms] * E[atoms, v]).astype(float)
                entries[..., row, v] = np.add.reduceat(terms, [0], axis=-1)[..., 0]
    entries *= state[..., k.F][..., :, None]
    entries *= state[..., None, nu + 1:2 * nu + 1]      # 1/w of the unknowns
    return entries


@pytest.mark.parametrize("name,kind", [("4_1", "W"), ("5_2", "W"), ("5_2", "V"), ("T3", "W"),
                                       ("T5", "W"), ("T5", "V")])
def test_jacobian_at_is_the_dense_reference_bitwise(name, kind):
    # The Newton iteration's bits rest on jacobian_at, and the sequential
    # oracle of test_solver forms its Jacobians with jacobian_at too: this
    # pins them to a reference built entry by entry.
    p = _builtin_potential(name, kind)
    system = build_system(p)
    _, X = _pinned_points(p, make_rng(61), 8)
    starts = np.random.default_rng(5).standard_normal((8, system.size, 2)) @ [1, 1j]
    X = np.concatenate((X, starts, np.ones((1, system.size))))   # the last row is degenerate
    with np.errstate(all="ignore"):
        state = system.residual_state(X)[1]
        J = system.jacobian_at(state)
        ref = _dense_jacobian(system, state)
    assert not np.isfinite(J[-1]).any()
    assert J.tobytes() == ref.tobytes()
    for i in range(len(X)):         # also one row at a time
        with np.errstate(all="ignore"):
            assert system.jacobian_at(state[i]).tobytes() == ref[i].tobytes()
