"""Log-derivatives of potentials and the induced rational equation systems.

For a potential built from dilogarithms, log products and constants, the
scaled derivative mu_k = w_k dW/dw_k is a finite integer combination of
log(1 - m) and log(m) atoms over Laurent monomials m:

    w_k d/dw_k  s*Li2(m)          = -s * deg_k(m) * log(1 - m)
    w_k d/dw_k  s*log(m1)*log(m2) =  s * deg_k(m1) * log(m2)
                                   + s * deg_k(m2) * log(m1)

Because every coefficient is an integer, exp(mu_k) is a rational function
of the assignment: a product of (1-m)^c and m^c factors.  The equation
system exp(mu_k) = 1 is therefore solved in branch-free rational form,
with one variable pinned to 1 (overall scaling) and one equation dropped
(the exact relation sum_k mu_k = 0).  The same compiled factors give the
principal-branch mu_k themselves, which the corrected potential needs.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .diagram import Label
from .potential import Assignment, EvaluationError, Monomial, Potential


@dataclass(frozen=True)
class LogAtom:
    """One contribution coeff * log(1-m) or coeff * log(m) to some mu_k."""

    coeff: int
    kind: Literal["log1m", "log"]
    m: Monomial


@dataclass(frozen=True)
class LogDerivative:
    variable: Label
    atoms: tuple[LogAtom, ...]


def log_derivative(potential: Potential, var: Label) -> LogDerivative:
    if var not in potential.variables:
        raise KeyError(f"unknown variable {var!r}")
    acc: dict[tuple[str, Monomial], int] = {}

    def add(kind: str, m: Monomial, coeff: int):
        key = (kind, m)
        acc[key] = acc.get(key, 0) + coeff
        if acc[key] == 0:
            del acc[key]

    for t in potential.terms:
        if t.kind == "dilog":
            e = t.m1.exponent(var)
            if e:
                add("log1m", t.m1, -t.sign * e)
        elif t.kind == "logprod":
            e1 = t.m1.exponent(var)
            e2 = t.m2.exponent(var)
            if e1:
                add("log", t.m2, t.sign * e1)
            if e2:
                add("log", t.m1, t.sign * e2)
    atoms = tuple(LogAtom(c, kind, m) for (kind, m), c in acc.items())
    return LogDerivative(var, atoms)


def euler_coefficient_sums(potential: Potential) -> dict[tuple[str, Monomial], int]:
    """Net coefficient of each log atom in sum_k mu_k; all zero for any
    degree-0 potential (the exact Euler relation)."""
    acc: dict[tuple[str, Monomial], int] = {}
    for var in potential.variables:
        for atom in log_derivative(potential, var).atoms:
            key = (atom.kind, atom.m)
            acc[key] = acc.get(key, 0) + atom.coeff
            if acc[key] == 0:
                del acc[key]
    return acc


@dataclass(frozen=True)
class EquationSystem:
    """Compiled log-derivatives of a potential, one block of factors per variable.

    The blocks of the unknowns give the pinned rational system
    exp(mu_k) - 1 = 0; the pin's block comes last and holds its dropped,
    redundant equation.  mu() reads every block.
    """

    potential: Potential
    pin: Label
    unknowns: tuple[Label, ...]          # all variables except pin

    # compiled arrays; one row per (variable, factor), blocks in _var_order
    _eq_starts: np.ndarray               # (nvars,) reduceat boundaries, pin's block last
    _fac_exps: np.ndarray                # (nfac, nvars) integer exponents
    _fac_coeff: np.ndarray               # (nfac,) monomial sign
    _fac_power: np.ndarray               # (nfac,) integer outer exponent
    _fac_is_1m: np.ndarray               # (nfac,) bool: factor (1-m) vs m
    _fac_mono: np.ndarray                # (nfac,) index into _monomials
    _monomials: tuple[Monomial, ...]     # distinct factor monomials
    _var_order: tuple[Label, ...]        # pin last

    @property
    def size(self) -> int:
        return len(self.unknowns)

    def assignment_from_vector(self, x: Sequence[complex]) -> dict[Label, complex]:
        a = {v: complex(val) for v, val in zip(self.unknowns, x)}
        a[self.pin] = 1.0 + 0.0j
        return a

    def vector_from_assignment(self, a: Assignment) -> np.ndarray:
        return np.array([complex(a[v]) for v in self.unknowns], dtype=complex)

    def _full_vector(self, x) -> np.ndarray:
        w_full = np.empty(len(self.unknowns) + 1, dtype=complex)
        w_full[:-1] = x
        w_full[-1] = 1.0
        return w_full

    def _factor_bases(self, w_full: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Monomial values and factor bases of the unknowns' blocks."""
        if np.any(w_full == 0.0):
            raise EvaluationError("zero variable value")
        rows = self._eq_starts[-1]
        # Any log branch works here: the integer exponents kill 2 pi i shifts.
        mv = self._fac_coeff[:rows] * np.exp(self._fac_exps[:rows] @ np.log(w_full))
        base = np.where(self._fac_is_1m[:rows], 1.0 - mv, mv)
        if np.any(base == 0.0):
            raise EvaluationError("non-essential point: monomial value in {0, 1}")
        return mv, base

    def _products(self, base: np.ndarray) -> np.ndarray:
        """exp(mu_k) per unknown from the factor bases."""
        if self.size == 0:
            return np.empty(0, dtype=complex)
        logs = self._fac_power[:len(base)] * np.log(base)
        return np.exp(np.add.reduceat(logs, self._eq_starts[:-1]))

    def residual_vector(self, x: Sequence[complex]) -> np.ndarray:
        """exp(mu_k) - 1 per unknown with the pin held at 1."""
        _, base = self._factor_bases(self._full_vector(np.asarray(x, dtype=complex)))
        return self._products(base) - 1.0

    def jacobian(self, x: Sequence[complex]) -> np.ndarray:
        """Analytic Jacobian of the residual vector with respect to the unknowns."""
        w_full = self._full_vector(np.asarray(x, dtype=complex))
        mv, base = self._factor_bases(w_full)
        nu = len(self.unknowns)
        if nu == 0:
            return np.empty((0, nu), dtype=complex)
        F = self._products(base)
        rows = len(base)
        # d log(base_f)/d w_v = power_f * exps[f, v] * g_f / w_v with
        # g = -m/(1-m) for (1-m) factors and 1 for plain monomial factors.
        coef = self._fac_power[:rows] * np.where(self._fac_is_1m[:rows], -mv / base, 1.0)
        contrib = coef[:, None] * self._fac_exps[:rows, :nu]
        dlog = np.add.reduceat(contrib, self._eq_starts[:-1], axis=0) / w_full[:nu]
        return F[:, None] * dlog

    def residual(self, a: Assignment) -> np.ndarray:
        """Residual vector at a full assignment, pin included as given."""
        w_full = np.array([complex(a[v]) for v in self._var_order], dtype=complex)
        _, base = self._factor_bases(w_full)
        return self._products(base) - 1.0

    def mu(self, a: Assignment) -> np.ndarray:
        """Principal-branch mu_k at the assignment, in potential.variables order.

        The monomial values come from Monomial.value, the values the
        potential itself is evaluated at.  A value on the negative real axis
        then falls on the same side of the log cut in W and in every mu_k,
        so W0 keeps its invariances there; exp(exps @ log w), as in the
        residual, or a different order of products can move it across.
        """
        mv = np.array([m.value(a) for m in self._monomials], dtype=complex)[self._fac_mono]
        # + 0.0 turns a -0.0 imaginary part into +0.0, so the negative real
        # axis gets arg +pi, as numerics.plog gives it.
        base = np.where(self._fac_is_1m, 1.0 - mv, mv) + 0.0
        if np.any(base == 0.0) or not np.all(np.isfinite(base)):
            raise EvaluationError("degenerate monomial value in a log-derivative")
        # The trailing zero keeps the pin's boundary in range when its block is empty.
        logs = np.append(self._fac_power * np.log(base), 0.0)
        sums = np.add.reduceat(logs, self._eq_starts)
        k = self.potential.variables.index(self.pin)
        return np.concatenate((sums[:k], sums[-1:], sums[k:-1]))


def build_system(potential: Potential, pin: Label | None = None) -> EquationSystem:
    """Pin one variable to 1 and compile every variable's equation, pin's last."""
    variables = potential.variables
    if not variables:
        raise ValueError("potential has no variables")
    if pin is None:
        pin = variables[-1]
    if pin not in variables:
        raise KeyError(f"pin variable {pin!r} not in potential")
    unknowns = tuple(v for v in variables if v != pin)

    var_order = unknowns + (pin,)
    var_index = {v: i for i, v in enumerate(var_order)}
    eq_starts = []
    exps_rows: list[list[int]] = []
    coeffs: list[int] = []
    powers: list[int] = []
    is_1m: list[bool] = []
    mono_index: dict[Monomial, int] = {}
    fac_mono: list[int] = []
    for var in var_order:
        atoms = log_derivative(potential, var).atoms
        if not atoms and var != pin:
            raise ValueError(f"variable {var!r} has an empty equation")
        eq_starts.append(len(exps_rows))
        for atom in atoms:
            row = [0] * len(var_order)
            for v, e in atom.m.exps:
                row[var_index[v]] = e
            exps_rows.append(row)
            coeffs.append(atom.m.coeff)
            powers.append(atom.coeff)
            is_1m.append(atom.kind == "log1m")
            fac_mono.append(mono_index.setdefault(atom.m, len(mono_index)))

    return EquationSystem(
        potential=potential,
        pin=pin,
        unknowns=unknowns,
        _eq_starts=np.array(eq_starts, dtype=np.intp),
        _fac_exps=np.array(exps_rows, dtype=float).reshape(len(exps_rows), len(var_order)),
        _fac_coeff=np.array(coeffs, dtype=complex),
        _fac_power=np.array(powers, dtype=float),
        _fac_is_1m=np.array(is_1m, dtype=bool),
        _fac_mono=np.array(fac_mono, dtype=np.intp),
        _monomials=tuple(mono_index),
        _var_order=var_order,
    )


def mu_integer_multipliers(system: EquationSystem, a: Assignment,
                           tol: float = 1e-6) -> dict[Label, int]:
    """Round each mu_k/(2 pi i) to an integer; error when not a solution."""
    out = {}
    for var, mu in zip(system.potential.variables, system.mu(a).tolist()):
        k = round(mu.imag / (2.0 * cmath.pi))
        err = abs(mu - 2j * cmath.pi * k)
        if err > tol:
            raise EvaluationError(
                f"mu_{var!r} = {mu} is {err:.2e} away from 2 pi i Z; not a solution")
        out[var] = k
    return out
