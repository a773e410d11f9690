"""Shared fixtures: built-in diagrams and cached multistart solves."""

import mpmath
import numpy as np
import pytest

from optlim import (Monomial, SolveConfig, assemble_V, assemble_W, build_system, builtin, diagram,
                    plog, solve)

from oracles import monomial_value

FIG8_PD = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"

# Printed region potential of the figure-eight diagram: the four crossing
# blocks in region labels 1..6 (sign; j, k, l, m).
FIG8_CROSSINGS = [
    (+1, (4, 2, 1, 3)),
    (+1, (1, 5, 4, 3)),
    (-1, (5, 6, 2, 4)),
    (-1, (2, 6, 5, 1)),
]


@pytest.fixture(scope="session")
def fig8():
    return builtin("4_1")


@pytest.fixture(scope="session")
def fig8_w_solutions(fig8):
    system = build_system(assemble_W(fig8))
    return solve(system, SolveConfig(restarts=512, seed=0))


@pytest.fixture(scope="session")
def knot52():
    return builtin("5_2")


@pytest.fixture(scope="session")
def knot52_w_solutions(knot52):
    system = build_system(assemble_W(knot52))
    return solve(system, SolveConfig(restarts=512, seed=0))


@pytest.fixture(scope="session")
def knot52_v_solutions(knot52):
    system = build_system(assemble_V(knot52))
    return solve(system, SolveConfig(restarts=512, seed=0))


@pytest.fixture
def build_counter(monkeypatch):
    """Kinds of the potentials whose equation system gets compiled.

    Every compile goes through equations._compile_system; a system that
    build_system returns from its cache, or that sign_flip derives, is not
    counted.  The built-in diagrams are built once per process and keep
    their potentials and systems, so their caches are cleared first: a
    test counts every compile its own code causes.
    """
    from optlim import equations

    clear_diagram_caches()

    calls = []
    original = equations._compile_system

    def counting(potential, *args, **kwargs):
        calls.append(potential.kind)
        return original(potential, *args, **kwargs)

    monkeypatch.setattr(equations, "_compile_system", counting)
    return calls


def clear_diagram_caches():
    """Forget the built-in diagrams, so the next builtin or twist_diagram
    call builds a new object with no potentials."""
    diagram.builtin.cache_clear()
    diagram.twist_diagram.cache_clear()


def make_rng(salt: int = 0) -> np.random.Generator:
    return np.random.default_rng(987654321 + salt)


def coefficients_term_by_term(potential) -> dict:
    """Every variable's net coefficient of each atom (kind, m), accumulated
    over potential.terms in plain Python ints from the two rules
    w d/dw s Li2(m) = -s deg(m) log(1 - m) and
    w d/dw s log(m1) log(m2) = s deg(m1) log(m2) + s deg(m2) log(m1).

    The reference for the compiled coefficient matrix C, which the package
    builds from its term table; the oracles below read this one instead.
    """
    acc = {v: {} for v in potential.variables}

    def add(var, atom, c):
        acc[var][atom] = acc[var].get(atom, 0) + c

    for t in potential.terms:
        if t.kind == "dilog":
            for var, e in t.m1.exps:
                add(var, ("log1m", t.m1), -t.sign * e)
        elif t.kind == "logprod":
            for var, e in t.m1.exps:
                add(var, ("log", t.m2), t.sign * e)
            for var, e in t.m2.exps:
                add(var, ("log", t.m1), t.sign * e)
    return {var: {atom: c for atom, c in atoms.items() if c} for var, atoms in acc.items()}


def compiled_coefficients(system) -> dict:
    """The system's coefficient matrix C in the form of
    coefficients_term_by_term: each column named by its atom (kind, m), the
    monomial m rebuilt from the system's exponents and coefficients, and
    columns that name the same atom summed."""
    variables = system.potential.variables
    monomials = [Monomial.from_pairs(zip(variables, row), int(coeff))
                 for row, coeff in zip(system._exps.tolist(), system._mono_coeff.tolist())]
    acc = {v: {} for v in variables}
    for column, i, is_1m in zip(system._coeffs.T.tolist(), system._terms.atom_mono.tolist(),
                                system._terms.atom_is_1m.tolist()):
        atom = ("log1m" if is_1m else "log", monomials[i])
        for v, c in zip(variables, column):
            acc[v][atom] = acc[v].get(atom, 0) + c
    return {var: {atom: c for atom, c in atoms.items() if c} for var, atoms in acc.items()}


def mu_oracle(potential, a) -> dict:
    """Principal-branch mu_k summed atom by atom: the reference for
    EquationSystem.mu, from the term-by-term coefficients."""
    out = {}
    for v, atoms in coefficients_term_by_term(potential).items():
        total = 0j
        for (kind, m), c in atoms.items():
            value = monomial_value(m, a)
            total += c * plog(1.0 - value if kind == "log1m" else value)
        out[v] = total
    return out


def w0_oracle(potential, a, dps=30):
    """W0 = W - sum_k mu_k log w_k term by term in mpmath at dps digits: the
    reference for the one-pass W0.

    Monomial values are formed in mpmath from the given doubles, then fed
    to mpmath.polylog(2, m) and principal logs.  The mu_k are summed from
    the term-by-term coefficients and rounded to integers.  Returns the raw
    value and the mu integers in potential.variables order.
    """
    with mpmath.workdps(dps):
        values = {v: mpmath.mpc(complex(a[v])) for v in potential.variables}

        def value(m):
            out = mpmath.mpc(m.coeff)
            for v, e in m.exps:
                out *= values[v] ** e
            return out

        total = mpmath.mpc(0)
        for t in potential.terms:
            if t.kind == "const":
                total += t.sign * mpmath.pi ** 2 / 6
            elif t.kind == "dilog":
                total += t.sign * mpmath.polylog(2, value(t.m1))
            else:
                total += t.sign * mpmath.log(value(t.m1)) * mpmath.log(value(t.m2))
        integers = []
        for v, atoms in coefficients_term_by_term(potential).items():
            mu = mpmath.mpc(0)
            for (kind, m), c in atoms.items():
                mv = value(m)
                mu += c * mpmath.log(1 - mv if kind == "log1m" else mv)
            k = int(mpmath.nint(mu.imag / (2 * mpmath.pi)))
            integers.append(k)
            total -= 2j * mpmath.pi * k * mpmath.log(values[v])
        return complex(total), tuple(integers)


def dilog_monomials(potential):
    """The argument of every Li2 term, in term order."""
    return [t.m1 for t in potential.terms if t.kind == "dilog"]


def _term_monomials(potential):
    for t in potential.terms:
        for m in (t.m1, t.m2):
            if m is not None:
                yield m


def random_essential_assignment(potential, rng, tol=1e-3, max_tries=500,
                                off_cuts=False):
    """Random assignment with every dilogarithm argument away from {0, 1}.

    With off_cuts=True every term monomial value also stays clear of the
    real axis, so small perturbations cannot jump a log or Li2 branch cut
    (needed by finite-difference oracles).
    """
    for _ in range(max_tries):
        values = {}
        for v in potential.variables:
            r = np.exp(rng.uniform(np.log(0.3), np.log(3.0)))
            th = rng.uniform(-np.pi, np.pi)
            values[v] = complex(r * np.exp(1j * th))
        ok = True
        for m in dilog_monomials(potential):
            val = monomial_value(m, values)
            if min(abs(val), abs(val - 1.0)) < tol or abs(val) > 1.0 / tol:
                ok = False
                break
        if ok and off_cuts:
            for m in _term_monomials(potential):
                if abs(monomial_value(m, values).imag) < tol:
                    ok = False
                    break
        if ok:
            return values
    raise RuntimeError("could not sample an essential assignment")
