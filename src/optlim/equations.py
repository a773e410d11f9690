"""Log-derivatives of potentials and the induced rational equation systems.

For a potential built from dilogarithms, log products and constants, the
scaled derivative mu_k = w_k dW/dw_k is a finite integer combination of
log(1 - m) and log(m) atoms over Laurent monomials m:

    w_k d/dw_k  s*Li2(m)          = -s * deg_k(m) * log(1 - m)
    w_k d/dw_k  s*log(m1)*log(m2) =  s * deg_k(m1) * log(m2)
                                   + s * deg_k(m2) * log(m1)

Because every coefficient is an integer, exp(mu_k) is a rational function
of the assignment:

    exp(mu_k) = prod_a base_a ** C[k, a],   base_a = 1 - m_a  or  m_a,

over the distinct atoms a = (kind, m_a).  The integer matrix C is the one
compiled form of the log-derivatives: mu, W0, the product kernel, its
Jacobian and sign flips all read it.  The system exp(mu_k) = 1 is solved
in this product form, with the last variable pinned to 1 (overall
scaling) and its equation dropped (the exact relation sum_k mu_k = 0).
The residual and its Jacobian

    d exp(mu_k) / d w_v = exp(mu_k) * sum_a C[k, a] g_a deg_v(m_a) / w_v,
    g_a = -m_a / (1 - m_a)  for (1 - m) atoms,  1  for m atoms,

are evaluated without exp or log: monomial values are products gathered
from [w, 1/w, 1] and the exp(mu_k) products gathered from
[base, 1/base, 1], both reduced with np.multiply.reduceat.  One kernel
pass per point writes both, with the atom values and exp(mu_k), into one
packed row, the kernel state; residual_state returns the residual with
that state, and jacobian_at forms the Jacobian from it without a second
pass, as margin_at reads the atoms' distance from the boundary, so the
Newton iteration evaluates the kernel once per trial point.
It is the one residual: the region/side bridge checks its converted
points with residual_vector, the same pass.  Both take a leading batch
axis of points; a batch row at a degenerate point comes out non-finite,
while a single point raises EvaluationError.

The corrected potential W0 = W - sum_k mu_k log w_k is formed in one pass
(EquationSystem.corrected_value): the value of every term monomial is
gathered once from [w, 1/w, 1], and W (one array Li2 over the dilogarithm
arguments plus the log products), the principal-branch mu_k (summed from
logs of the atom bases), their snapping to 2 pi i Z and the correction
are all read from those values, and so is the Bloch-Wigner sum over the
Li2 terms (bloch_wigner_volume).  potential.evaluate and the essential
margin read the same gather.

Each system is compiled once.  build_system keeps the system on the
potential object and hands back that one on every later call; a
sign-flipped potential (correspondence.sign_flip) carries a system
derived from its base's (EquationSystem.sign_flipped), so it is never
compiled.  A flip keeps every monomial and atom in place: its exponents,
coefficients, value gather and C are its base's times the signs, in a
few array operations, and its terms are spelled out only when something
reads them (_FlippedTerms).  Ownership runs one way: a diagram keeps its
potentials, a potential its system, a system its product kernel.  A
system keeps only the variable order and the kind of its potential, not
the potential, so a dropped diagram, potential or flip is freed by
reference counting, and a pickled system carries no Term.
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Sequence

import numpy as np

from .diagram import Label
from . import numerics
from .numerics import _C0, _C1, PI2_OVER_6, TWO_PI, _bloch_wigner, li2
from .potential import Assignment, EvaluationError, Monomial, Potential, Term

# Largest distance of a solution's mu_k from 2 pi i Z; each mu_k is snapped
# to the nearest multiple before the W0 correction.
MU_TOL = 1e-6


@dataclass(frozen=True)
class _Terms:
    """The potential's terms as index arrays for the W0 pass,
    W = sum s Li2(m) + sum s log(m1) log(m2) + const * pi^2/6.

    The log atoms are the bases, 1 - m or m, whose logs the pass takes:
    those with a nonzero column of C, and every log product monomial m.
    """

    dilog_mono: np.ndarray       # (ndilog,) monomial index of each Li2 argument
    dilog_sign: np.ndarray       # (ndilog,) its sign, as complex
    logprod_atom: np.ndarray     # (nlogprod, 2) the log atoms of each log product
    logprod_sign: np.ndarray     # (nlogprod,) its sign, as complex
    const: int                   # net sign count of the pi^2/6 constants
    atom_mono: np.ndarray        # (natoms,) monomial index (row of _exps)
    atom_is_1m: np.ndarray       # (natoms,) bool: base 1 - m vs m
    term_mono: np.ndarray        # (nterms, 2) monomial indices m1, m2 of each term; -1 for none


def _term_table(potential: Potential) -> tuple[list[Monomial], np.ndarray, _Terms, np.ndarray]:
    """The distinct term monomials, their exponent matrix over
    potential.variables, the terms as index arrays and the coefficient
    matrix C (nvars, natoms) of the log-derivatives.

    The atoms are keyed 2 * monomial index + is_1m and sorted by key.
    """
    monomials: dict[Monomial, int] = {}
    dilogs: list[tuple[int, int]] = []
    logprods: list[tuple[int, int, int]] = []
    const = 0
    term_mono: list[tuple[int, int]] = []
    for t in potential.terms:
        if t.kind == "const":
            const += t.sign
            term_mono.append((-1, -1))
            continue
        i1 = monomials.setdefault(t.m1, len(monomials))
        if t.kind == "dilog":
            dilogs.append((i1, t.sign))
            term_mono.append((i1, -1))
        else:
            i2 = monomials.setdefault(t.m2, len(monomials))
            logprods.append((i1, i2, t.sign))
            term_mono.append((i1, i2))
    exps = _exponents(list(monomials), potential.variables)
    dilog = np.array(dilogs, dtype=np.intp).reshape(-1, 2)
    logprod = np.array(logprods, dtype=np.intp).reshape(-1, 3)
    # C transposed, one row per key 2 * monomial + is_1m: s Li2(m) adds
    # -s deg_k(m) to 1 - m, and s log(m1) log(m2) adds s deg_k(m1) to m2
    # and s deg_k(m2) to m1.
    CT = np.zeros((2 * len(monomials), len(potential.variables)), dtype=np.intp)
    d, s = dilog.T
    np.add.at(CT, 2 * d + 1, -s[:, None] * exps[d])
    m1, m2, s = logprod.T
    np.add.at(CT, 2 * m2, s[:, None] * exps[m1])
    np.add.at(CT, 2 * m1, s[:, None] * exps[m2])
    keep = CT.any(axis=1)
    keep[2 * logprod[:, :2]] = True
    atoms = np.flatnonzero(keep)
    terms = _Terms(dilog_mono=dilog[:, 0], dilog_sign=dilog[:, 1].astype(complex),
                   logprod_atom=np.searchsorted(atoms, 2 * logprod[:, :2]),
                   logprod_sign=logprod[:, 2].astype(complex), const=const,
                   atom_mono=atoms // 2, atom_is_1m=atoms % 2 == 1,
                   term_mono=np.array(term_mono, dtype=np.intp).reshape(-1, 2))
    return list(monomials), exps, terms, CT[atoms].T


@dataclass(frozen=True)
class _Products:
    """Index arrays of the product kernel over the distinct atoms a of the
    unknowns' equations, exp(mu_k) = prod_a base_a ** C[k, a].  The
    factors are stored complex: numpy would cast them to complex on every
    call, to the same values."""

    mono_gather: np.ndarray      # indices into [w, 1/w, 1], w in variables order
    mono_starts: np.ndarray      # (natoms,) reduceat boundaries of mono_gather
    atom_coeff: np.ndarray       # (natoms,) -coeff(m) for (1-m) atoms, coeff(m) for m
    atom_is_1m: np.ndarray       # (natoms,) 1 for (1-m) atoms, 0 for m atoms
    prod_gather: np.ndarray      # indices into [base, 1/base, 1]
    prod_starts: np.ndarray      # (nunknowns,) reduceat boundaries of prod_gather
    jac_gather: np.ndarray       # indices into [g, 1, 0] of each term C[k, a] * deg_v(m_a)
    jac_coeff: np.ndarray        # that product
    jac_starts: np.ndarray       # (nunknowns**2,) reduceat boundaries, entry k * nunknowns + v
    wb: slice                    # [w, 1/w, 1] in a state row
    ab: slice                    # [base, 1/base, 1]
    t: slice                     # the atom values
    F: slice                     # exp(mu_k)


@dataclass(frozen=True, eq=False)
class EquationSystem:
    """Compiled log-derivatives of a potential, the integer matrix C with
    one row per variable in the potential's variable order, so the pin's
    redundant equation is the last row, and the potential's terms as index
    arrays into the same monomials and atoms.

    Of its potential it keeps only the variable order and the kind, and
    no reference: the potential refers to the system, not back.
    mu() and corrected_value() read every row of C.  The product kernel of
    the unknowns' equations, which residual_state() evaluates and
    jacobian_at() differentiates, is compiled from the other rows on first
    use, so a system built only for W0 never pays for it.  A system
    compares and hashes by identity, so a weak map can key on it.
    """

    variables: tuple[Label, ...]         # the potential's variables; the last is the pin
    kind: Literal["W", "V"]              # the potential's kind; "W" has a Bloch-Wigner sum

    _coeffs: np.ndarray                  # (nvars, natoms) C, columns the atoms of _terms
    _exps: np.ndarray                    # (nmono, nvars) exponents of every distinct term monomial
    _terms: _Terms                       # shared by sign flips
    _mono_coeff: np.ndarray              # (nmono,) coefficients, as float
    _value_gather: np.ndarray            # indices into [w, 1/w, 1], w in variables order
    _value_starts: np.ndarray            # (nmono,) reduceat boundaries of _value_gather

    @cached_property
    def _products(self) -> _Products:
        return _compile_products(self)

    @property
    def pin(self) -> Label:                     # held at 1
        return self.variables[-1]

    @property
    def unknowns(self) -> tuple[Label, ...]:    # all variables except the pin
        return self.variables[:-1]

    @property
    def size(self) -> int:
        return len(self.variables) - 1

    def assignment_from_vector(self, x: Sequence[complex]) -> dict[Label, complex]:
        a = {v: complex(val) for v, val in zip(self.unknowns, x)}
        a[self.pin] = 1.0 + 0.0j
        return a

    def point_from_assignment(self, a: Assignment) -> np.ndarray:
        """Every variable's value in variables order, the pin last: the
        points that monomial_values() and the passes built on it take."""
        try:
            return np.array([complex(a[v]) for v in self.variables], dtype=complex)
        except KeyError as exc:
            raise EvaluationError(f"variable {exc.args[0]!r} not assigned") from None

    def monomial_values(self, w: np.ndarray) -> np.ndarray:
        """Value of every term monomial (the rows of _exps) at points w (..., nvars):
        the products gathered from [w, 1/w, 1], times the coefficients.

        This is the one evaluator of monomial values behind W, the mu_k, W0
        and the essential margin.  Raises EvaluationError at a zero variable.
        """
        w = np.asarray(w, dtype=complex)
        # 1/w in Python's complex arithmetic, as coeff * prod(w ** e) over
        # the monomial's factors forms it; numpy's complex division rounds
        # differently.  With the factors in the same order the values are
        # that product's bit for bit, so a value that is real up to
        # rounding keeps its side of the log cut.
        try:
            reciprocals = [v ** -1 for v in w.ravel().tolist()]
        except ZeroDivisionError:
            raise EvaluationError("zero variable value") from None
        nv = w.shape[-1]
        wb = np.empty(w.shape[:-1] + (2 * nv + 1,), dtype=complex)
        wb[..., :nv] = w
        wb[..., nv:-1] = np.array(reciprocals, dtype=complex).reshape(w.shape)
        wb[..., -1] = 1.0
        return self._mono_coeff * np.multiply.reduceat(wb.take(self._value_gather, -1),
                                                       self._value_starts, axis=-1)

    def dilog_arguments(self, w: np.ndarray) -> np.ndarray:
        """The argument of every Li2 term at points w (..., nvars)."""
        return self.monomial_values(w).take(self._terms.dilog_mono, -1)

    def _essential_arguments(self, mv: np.ndarray) -> np.ndarray:
        """The Li2 arguments among the monomial values; EvaluationError when
        one equals 0 or 1."""
        arg = mv.take(self._terms.dilog_mono, -1)
        bad = (arg == _C0) | (arg == _C1)
        if np.count_nonzero(bad):
            raise EvaluationError(
                f"non-essential assignment: dilog argument equals {arg[bad][0]}")
        return arg

    def _logs(self, w: np.ndarray, mv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Principal logs of the log atoms' bases and of the variables, from
        one plog kernel call over one validated array."""
        t = self._terms
        v = mv.take(t.atom_mono, -1)
        base = np.where(t.atom_is_1m, _C1 - v, v)
        try:
            logs = numerics._plog(numerics._as_complex(np.concatenate((base, w), axis=-1)))
        except ValueError as exc:
            raise EvaluationError(f"degenerate monomial value in a log-derivative: {exc}") from None
        return logs[..., :len(t.atom_mono)], logs[..., len(t.atom_mono):]

    def _potential_value(self, li2_arg: np.ndarray, atom_logs: np.ndarray) -> np.ndarray:
        """W from li2 at its Li2 arguments and the log atoms."""
        t = self._terms
        lp = atom_logs.take(t.logprod_atom, -1)
        return (row_sums(li2_arg * t.dilog_sign)
                + row_sums(lp[..., 0] * lp[..., 1] * t.logprod_sign)
                + t.const * PI2_OVER_6)

    def potential_value(self, w: np.ndarray) -> np.ndarray:
        """W at points w (..., nvars), principal branches throughout."""
        mv = self.monomial_values(w)
        arg = self._essential_arguments(mv)
        return self._potential_value(li2(arg), self._logs(w, mv)[0])

    def mu(self, a: Assignment) -> np.ndarray:
        """Principal-branch mu_k at the assignment, in variables order.

        The monomial values come from monomial_values(), the same gather W
        is evaluated from, and the logs of the atoms (1 - m or m) from the
        same plog call as W's log products.  A value on the negative real
        axis is then the same float in W and in every mu_k and falls on the
        same side of the log cut in both, so W0 keeps its invariances there;
        exp(exps @ log w) or a second evaluator with a different order of
        products can move it across.
        """
        w = self.point_from_assignment(a)
        return self._logs(w, self.monomial_values(w))[0] @ self._coeffs.T

    def corrected_value(self, w: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """W0 = W - sum_k mu_k log w_k at points w (..., nvars), in one pass.

        The monomial values are gathered once and logged in one plog call;
        W, the mu_k, their snapping to 2 pi i Z and the correction are all
        formed from them.  It calls the kernels behind plog and li2 on
        arrays validated once each; errors and bits are those of plog and
        li2.  Returns the raw values (...), the mu integers (..., nvars) in
        variables order and, for a region potential, the
        Bloch-Wigner sum (bloch_wigner_volume) from the Li2 arguments and
        li2 values of W itself, else None.  Raises EvaluationError when
        some mu_k is more than MU_TOL from 2 pi i Z, that is at a
        non-solution.
        """
        w = np.asarray(w, dtype=complex)
        mv = self.monomial_values(w)
        arg = self._essential_arguments(mv)
        atom_logs, log_w = self._logs(w, mv)
        k = _snap(atom_logs @ self._coeffs.T, MU_TOL, self.variables)
        values = numerics._li2(numerics._as_complex(arg))
        raw = self._potential_value(values, atom_logs) - row_sums(2j * math.pi * k * log_w)
        bw = self._bloch_wigner_sum(arg, values) if self.kind == "W" else None
        return raw, k, bw

    def _bloch_wigner_sum(self, arg: np.ndarray, li2_arg: np.ndarray) -> np.ndarray:
        """sum_t s_t D(m_t) over the Li2 terms from their arguments and li2 values."""
        return row_sums(_bloch_wigner(arg, li2_arg) * self._terms.dilog_sign.real)

    def bloch_wigner_volume(self, w: np.ndarray) -> np.ndarray:
        """sum_t s_t D(m_t) over the Li2 terms s_t Li2(m_t) at points w
        (..., nvars).  For a region potential the five Li2 arguments of a
        crossing are the shapes of its octahedron's five tetrahedra, with
        the tetrahedron signs, so this is the Bloch-Wigner volume.  Raises
        EvaluationError at a zero variable or an argument in {0, 1}."""
        arg = self._essential_arguments(self.monomial_values(w))
        return self._bloch_wigner_sum(arg, li2(arg))

    def _kernel(self, x: np.ndarray) -> np.ndarray:
        """The kernel state at unknowns x (..., n) with the pin at 1:
        per point one packed row [w, 1/w, 1 | base, 1/base, 1 | t | exp(mu_k)],
        t the atom values with base = is_1m + t (the slices of _Products).

        Rows with a non-finite entry in [w, 1/w, 1 | base, 1/base, 1] (a
        zero or non-finite variable, a monomial value in {0, 1} or at
        infinity) get a nan exp(mu_k); a single point raises EvaluationError
        naming the cause instead, also where only exp(mu_k) is not finite.
        Floating point errors are left to the caller's np.errstate.  The
        gathers use ndarray.take, which copies what indexing copies at less
        cost per call.
        """
        k = self._products
        nv = self.size + 1
        state = np.empty(x.shape[:-1] + (k.F.stop,), dtype=complex)
        wb, ab, t, F = state[..., k.wb], state[..., k.ab], state[..., k.t], state[..., k.F]
        na = t.shape[-1]
        wb[..., :nv - 1] = x
        wb[..., nv - 1::nv + 1] = 1.0   # the pin and the trailing 1
        np.divide(1.0, wb[..., :nv], out=wb[..., nv:-1])
        np.multiply.reduceat(wb.take(k.mono_gather, -1), k.mono_starts, axis=-1, out=t)
        np.multiply(k.atom_coeff, t, out=t)
        np.add(k.atom_is_1m, t, out=ab[..., :na])
        np.divide(1.0, ab[..., :na], out=ab[..., na:-1])
        ab[..., -1] = 1.0
        np.multiply.reduceat(ab.take(k.prod_gather, -1), k.prod_starts, axis=-1, out=F)
        # A zero variable or base shows up as an infinite reciprocal.  The
        # sum over [w, 1/w, 1 | base, 1/base, 1], contiguous in the state,
        # is finite exactly when every entry is (up to an overflow of the
        # sum itself, near 1e308); a product would overflow at finite
        # entries of about 1e154.
        ok = np.isfinite(np.add.reduce(state[..., :k.t.start], axis=-1))
        if x.ndim == 1:
            if not (ok and np.logical_and.reduce(np.isfinite(F))):
                raise EvaluationError(_degeneracy(wb[:nv], ab[:na]))
        elif not np.logical_and.reduce(ok, axis=None):
            F[~ok] = np.nan
        return state

    def residual_state(self, x: Sequence[complex]) -> tuple[np.ndarray, np.ndarray]:
        """exp(mu_k) - 1 per unknown with the pin held at 1, x (n,) or
        (rows, n), and the kernel state it was read from, which jacobian_at()
        takes.  Unlike residual_vector(), it leaves floating point errors at
        degenerate rows to the caller's np.errstate."""
        x = np.asarray(x, dtype=complex)
        if self.size == 0:
            empty = np.empty(x.shape[:-1] + (0,), dtype=complex)
            return empty, empty
        state = self._kernel(x)
        return state[..., self._products.F] - 1.0, state

    def jacobian_at(self, state: np.ndarray) -> np.ndarray:
        """Analytic Jacobian of the residual vector from the kernel state of
        residual_state(), or of any selection of its rows: (n, n), or
        (rows, n, n).  Floating point errors are left to the caller's
        np.errstate."""
        nu = self.size
        if nu == 0:
            return np.empty(state.shape[:-1] + (0, 0), dtype=complex)
        k = self._products
        na = k.t.stop - k.t.start
        # [g, 1, 0], g = -m/(1-m) = t/base for (1-m) atoms: the terms of m
        # atoms read the exact 1, and each entry without a term the 0.
        g = np.empty(state.shape[:-1] + (na + 2,), dtype=complex)
        np.multiply(state[..., k.t], state[..., k.ab.start + na:k.ab.stop - 1], out=g[..., :na])
        g[..., na:] = _ONE_ZERO
        terms = g.take(k.jac_gather, -1)
        terms *= k.jac_coeff
        J = np.add.reduceat(terms, k.jac_starts, axis=-1).reshape(state.shape[:-1] + (nu, nu))
        J *= state[..., k.F, None]
        J *= state[..., None, nu + 1:2 * nu + 1]       # 1/w of the unknowns
        return J

    def margin_at(self, state: np.ndarray) -> np.ndarray:
        """Distance of the kernel's atoms from the boundary, from the kernel
        state of residual_state(), or of any selection of its rows: the
        minimum over the atoms of min(|1 - m|, 1/|1 - m|, |m|) for (1 - m)
        atoms and of min(|m|, 1/|m|) for m atoms, capped at 1.

        The (1 - m) atoms are the Li2 arguments that the unknowns move, so
        for a Li2 argument at essential_margin e <= 1/2 (solver) the margin
        is at most e / (1 - e) <= 2e; from below it is at least e / 2, or
        the margin of an m atom of a log term, if that is smaller.  One
        abs and one reduction over the contiguous [base, 1/base, 1, t]
        part of each state row.
        """
        k = self._products
        return np.minimum.reduce(np.abs(state[..., k.ab.start:k.t.stop]), axis=-1)

    @np.errstate(all="ignore")
    def residual_vector(self, x: Sequence[complex]) -> np.ndarray:
        """exp(mu_k) - 1 per unknown with the pin held at 1; x is (n,) or (rows, n)."""
        return self.residual_state(x)[0]

    @np.errstate(all="ignore")
    def jacobian(self, x: Sequence[complex]) -> np.ndarray:
        """Analytic Jacobian of the residual vector: (n, n), or (rows, n, n)."""
        return self.jacobian_at(self.residual_state(x)[1])

    def sign_flipped(self, taus: Sequence[int], epsilons: Sequence[int]) -> EquationSystem:
        """The system of the potential that w_v -> tau_v w_v^eps_v makes of
        self's potential, the signs given over the variables.  It refers to
        no potential; correspondence.sign_flip builds the flipped potential
        and attaches this system to it.

        A flip keeps every monomial and atom in place, so the arrays are
        derived from self's and nothing is compiled: the exponents are
        multiplied by eps, each coefficient by (-1)^(number of its odd
        exponents at tau_v = -1), the value gather reads 1/w_v for w_v and
        w_v for 1/w_v where eps_v = -1, and, since deg_v of a flipped
        monomial is eps_v deg_v of the original, row v of C is multiplied
        by eps_v.  The term arrays are shared.  The arrays equal those a
        fresh compile of the flipped potential gives whenever the flip
        keeps the order of every log product's two monomials.
        """
        eps = np.array(epsilons)
        odd = (self._exps[:, np.array(taus) < 0] % 2).sum(axis=1) % 2
        # Positions in [w, 1/w, 1], w_v and 1/w_v exchanged where eps_v = -1.
        v, inv = np.arange(len(eps)), np.arange(len(eps), 2 * len(eps))
        swap = np.concatenate((np.where(eps < 0, inv, v), np.where(eps < 0, v, inv), [2 * len(v)]))
        return EquationSystem(self.variables, self.kind,
                              _coeffs=self._coeffs * eps[:, None], _exps=self._exps * eps,
                              _terms=self._terms,
                              _mono_coeff=self._mono_coeff * np.where(odd, -1.0, 1.0),
                              _value_gather=swap[self._value_gather],
                              _value_starts=self._value_starts)


# The last two slots of jacobian_at's [g, 1, 0].
_ONE_ZERO = np.array([1.0, 0.0], dtype=complex)


class _FlippedTerms(abc.Sequence):
    """The terms of a sign-flipped potential, spelled out the first time
    they are read: the kinds and signs of the base terms over the
    monomials that Monomial.from_pairs makes of the flipped system's
    exponent rows and coefficients, indexed by its term_mono.  The W0 pass
    reads only the flipped system's arrays, so a flip that is only
    evaluated builds no Monomial or Term.  Compares and hashes as the
    tuple of its terms.
    """

    def __init__(self, terms: Sequence[Term], system: EquationSystem):
        # A flip of a flip has the kinds and signs of the first base.
        self.base = terms.base if isinstance(terms, _FlippedTerms) else terms
        self._system = system

    @cached_property
    def _tuple(self) -> tuple[Term, ...]:
        system, variables = self._system, self._system.variables
        monomials = [Monomial.from_pairs([(v, e) for v, e in zip(variables, row) if e], int(c))
                     for row, c in zip(system._exps.tolist(), system._mono_coeff.tolist())]
        return tuple(t if i1 < 0 else Term.dilog(t.sign, monomials[i1]) if i2 < 0
                     else Term.logprod(t.sign, monomials[i1], monomials[i2])
                     for t, (i1, i2) in zip(self.base, system._terms.term_mono.tolist()))

    def __len__(self) -> int:
        return len(self.base)

    def __getitem__(self, i):
        return self._tuple[i]

    def __eq__(self, other) -> bool:
        return self._tuple == (other._tuple if isinstance(other, _FlippedTerms) else other)

    def __hash__(self) -> int:
        return hash(self._tuple)

    def __repr__(self) -> str:
        return repr(self._tuple)


def _degeneracy(w: np.ndarray, base: np.ndarray) -> str:
    """Why the kernel is not finite at one point with variables w and atom
    bases base."""
    if not np.logical_and.reduce(np.isfinite(w)):
        return "non-finite variable value"
    if np.logical_or.reduce(w == 0.0):
        return "zero variable value"
    if np.logical_or.reduce(base == 0.0):
        return "non-essential point: monomial value in {0, 1}"
    return "non-finite value: a monomial value or exp(mu_k) overflows"


def row_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis that do not depend on the rows around them.

    numpy sums a contiguous last axis pairwise, the same way in every row,
    but a strided one (fancy indexing can return one) element after
    element across all rows at once, which rounds differently; so the
    sum is taken over a C-ordered copy.
    """
    return np.ascontiguousarray(x).sum(axis=-1)


def _gather(powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices into [v, 1/v, 1] and reduceat starts such that the product
    over row i's segment is prod_j v_j ** powers[i, j]; an all-zero row
    reads the trailing 1."""
    rows, cols = powers.shape
    src = np.where(powers > 0, 0, cols) + np.arange(cols)
    reps = np.abs(powers)
    src = np.column_stack((src, np.full(rows, 2 * cols)))
    reps = np.column_stack((reps, ~reps.any(axis=1))).astype(np.intp)
    ends = np.cumsum(reps.sum(axis=1))
    return np.repeat(src.ravel(), reps.ravel()), ends - reps.sum(axis=1)


def _exponents(monomials: Sequence[Monomial], variables: Sequence[Label]) -> np.ndarray:
    """The exponent matrix (nmono, nvars) of the monomials over the variables,
    from which C, the value gather and the product kernel are built, and,
    times eps, a sign flip's exponents and value gather."""
    var_index = {v: i for i, v in enumerate(variables)}
    exps = np.zeros((len(monomials), len(variables)), dtype=np.intp)
    for i, m in enumerate(monomials):
        for v, e in m.exps:
            exps[i, var_index[v]] = e
    return exps


def build_system(potential: Potential) -> EquationSystem:
    """Pin the last variable to 1 and compile every variable's equation.

    The system is compiled on the first call and kept on the potential
    object; later calls return it.
    """
    if potential._system is None:
        attach_system(potential, _compile_system(potential))
    return potential._system


def attach_system(potential: Potential, system: EquationSystem) -> Potential:
    """Keep system on potential, where build_system finds it: the compiled
    system of potential, or one derived for it.  Returns potential."""
    object.__setattr__(potential, "_system", system)
    return potential


def _compile_system(potential: Potential) -> EquationSystem:
    variables = potential.variables
    if not variables:
        raise ValueError("potential has no variables")
    monomials, exps, terms, C = _term_table(potential)
    empty = np.flatnonzero(~C[:-1].any(axis=1))
    if empty.size:
        raise ValueError(f"variable {variables[empty[0]]!r} has an empty equation")
    value_gather, value_starts = _gather(exps)
    return EquationSystem(
        variables=variables,
        kind=potential.kind,
        _coeffs=C,
        _exps=exps,
        _terms=terms,
        _mono_coeff=np.array([m.coeff for m in monomials], dtype=float),
        _value_gather=value_gather,
        _value_starts=value_starts,
    )


def _compile_products(system: EquationSystem) -> _Products:
    """The product kernel of the unknowns' rows of C, over their nonzero
    columns."""
    nu = system.size
    used = np.flatnonzero(system._coeffs[:nu].any(axis=0))
    C = system._coeffs[:nu, used]
    atom_mono, atom_is_1m = system._terms.atom_mono[used], system._terms.atom_is_1m[used]
    E = system._exps[atom_mono]
    mono_gather, mono_starts = _gather(E)
    prod_gather, prod_starts = _gather(C)
    # Jacobian terms C[k, a] * deg_v(m_a), one reduceat segment per entry
    # (k, v) in row-major order, its terms in atom order.  A term reads g_a
    # from [g, 1, 0], or the 1 for an m atom; an entry with no term gets
    # one term of coefficient 1 that reads the 0.
    na = len(used)
    terms = (C[:, None, :] * E[:, :nu].T[None, :, :]).reshape(nu * nu, na)
    terms = np.column_stack((terms, ~terms.any(axis=1)))
    entry, col = np.nonzero(terms)
    reads = np.append(np.where(atom_is_1m, np.arange(na), na), na + 1)
    # State row: [w, 1/w, 1] over all variables, [base, 1/base, 1], t, exp(mu_k).
    bounds = np.cumsum([0, 2 * nu + 3, 2 * na + 1, na, nu]).tolist()
    wb, ab, t, F = (slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]))
    return _Products(
        mono_gather=mono_gather,
        mono_starts=mono_starts,
        atom_coeff=(np.where(atom_is_1m, -1.0, 1.0)
                    * system._mono_coeff[atom_mono]).astype(complex),
        atom_is_1m=atom_is_1m.astype(complex),
        prod_gather=prod_gather,
        prod_starts=prod_starts,
        jac_gather=reads[col],
        jac_coeff=terms[entry, col].astype(complex),
        jac_starts=np.flatnonzero(np.diff(entry, prepend=-1)),
        wb=wb, ab=ab, t=t, F=F,
    )


def _snap(mu: np.ndarray, tol: float, variables: Sequence[Label]) -> np.ndarray:
    """Each mu_k/(2 pi i) rounded to an integer, mu (..., nvars) over the
    given variables; EvaluationError when some mu_k is off by more than tol."""
    k = np.rint(mu.imag / TWO_PI)
    err = np.abs(mu - 2j * math.pi * k)
    if np.count_nonzero(err > tol):
        i = np.argwhere(err > tol)[0]
        raise EvaluationError(f"mu_{variables[i[-1]]!r} = {mu[tuple(i)]} is {err[tuple(i)]:.2e} "
                              "away from 2 pi i Z; not a solution")
    return k.astype(int)


def mu_integer_multipliers(system: EquationSystem, a: Assignment,
                           tol: float = MU_TOL) -> dict[Label, int]:
    """Round each mu_k/(2 pi i) to an integer; error when not a solution."""
    return dict(zip(system.variables, _snap(system.mu(a), tol, system.variables).tolist()))
