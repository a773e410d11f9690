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
sign-flipped potential carries a system derived from its base's
(EquationSystem.sign_flipped), so it is never compiled.  A flip reads a
flip table compiled once per system from its exponent matrix: one array
pass gives every monomial a small integer key (the eps bits of its own
variables and its tau parity), and the flipped monomials and terms come
from per-index caches under those keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .diagram import Label
from .numerics import PI2_OVER_6, TWO_PI, _bloch_wigner, li2, plog
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
    dilog_sign: np.ndarray       # (ndilog,) its sign, as float
    logprod_atom: np.ndarray     # (nlogprod, 2) the log atoms of each log product
    logprod_sign: np.ndarray     # (nlogprod,) its sign, as float
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
    terms = _Terms(dilog_mono=dilog[:, 0], dilog_sign=dilog[:, 1].astype(float),
                   logprod_atom=np.searchsorted(atoms, 2 * logprod[:, :2]),
                   logprod_sign=logprod[:, 2].astype(float), const=const,
                   atom_mono=atoms // 2, atom_is_1m=atoms % 2 == 1,
                   term_mono=np.array(term_mono, dtype=np.intp).reshape(-1, 2))
    return list(monomials), exps, terms, CT[atoms].T


@dataclass(frozen=True)
class _Products:
    """Index arrays of the product kernel over the distinct atoms a of the
    unknowns' equations, exp(mu_k) = prod_a base_a ** C[k, a]."""

    mono_gather: np.ndarray      # indices into [w, 1/w, 1], w in potential.variables order
    mono_starts: np.ndarray      # (natoms,) reduceat boundaries of mono_gather
    atom_coeff: np.ndarray       # (natoms,) -coeff(m) for (1-m) atoms, coeff(m) for m
    atom_is_1m: np.ndarray       # (natoms,) bool
    prod_gather: np.ndarray      # indices into [base, 1/base, 1]
    prod_starts: np.ndarray      # (nunknowns,) reduceat boundaries of prod_gather
    jac_atom: np.ndarray         # atom of each nonzero C[k, a] * deg_v(m_a), by (k, v)
    jac_coeff: np.ndarray        # that product
    jac_starts: np.ndarray       # reduceat boundaries, one segment per Jacobian entry
    jac_entry: np.ndarray        # flat index k * nunknowns + v of each segment
    views: tuple[slice, ...]     # [w, 1/w, 1], [base, 1/base, 1], t, exp(mu_k) in a state row


@dataclass(frozen=True)
class EquationSystem:
    """Compiled log-derivatives of a potential, the integer matrix C with
    one row per variable in potential.variables order, so the pin's
    redundant equation is the last row, and the potential's terms as index
    arrays into the same monomials and atoms.

    mu() and corrected_value() read every row of C.  The product kernel of
    the unknowns' equations, which residual_state() evaluates and
    jacobian_at() differentiates, is compiled from the other rows on first
    use, so a system built only for W0 never pays for it.
    """

    potential: Potential
    pin: Label                           # the last variable
    unknowns: tuple[Label, ...]          # all variables except pin

    _coeffs: np.ndarray                  # (nvars, natoms) C, columns the atoms of _terms
    _exps: np.ndarray                    # (nmono, nvars) exponents of every distinct term monomial
    _terms: _Terms                       # shared by sign flips
    _mono_coeff: np.ndarray              # (nmono,) coefficients, as float
    _value_gather: np.ndarray            # indices into [w, 1/w, 1], w in potential.variables order
    _value_starts: np.ndarray            # (nmono,) reduceat boundaries of _value_gather

    @cached_property
    def _products(self) -> _Products:
        return _compile_products(self)

    @cached_property
    def _flip_table(self) -> _FlipTable:
        return _compile_flip_table(self)

    @property
    def size(self) -> int:
        return len(self.unknowns)

    def assignment_from_vector(self, x: Sequence[complex]) -> dict[Label, complex]:
        a = {v: complex(val) for v, val in zip(self.unknowns, x)}
        a[self.pin] = 1.0 + 0.0j
        return a

    def point_from_assignment(self, a: Assignment) -> np.ndarray:
        """Every variable's value in potential.variables order, the pin
        last: the points that monomial_values() and the passes built on it
        take."""
        try:
            return np.array([complex(a[v]) for v in self.potential.variables], dtype=complex)
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
        bad = (arg == 0.0) | (arg == 1.0)
        if np.count_nonzero(bad):
            raise EvaluationError(
                f"non-essential assignment: dilog argument equals {arg[bad][0]}")
        return arg

    def _logs(self, w: np.ndarray, mv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Principal logs of the log atoms' bases and of the variables, from
        one plog call."""
        t = self._terms
        v = mv.take(t.atom_mono, -1)
        base = np.where(t.atom_is_1m, 1.0 - v, v)
        try:
            logs = plog(np.concatenate((base, w), axis=-1))
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
        """Principal-branch mu_k at the assignment, in potential.variables order.

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
        formed from them.  Returns the raw values (...), the mu integers
        (..., nvars) in potential.variables order and, for a region
        potential, the Bloch-Wigner sum (bloch_wigner_volume) from the Li2
        arguments and li2 values of W itself, else None.  Raises
        EvaluationError when some mu_k is more than MU_TOL from 2 pi i Z,
        that is at a non-solution.
        """
        w = np.asarray(w, dtype=complex)
        mv = self.monomial_values(w)
        arg = self._essential_arguments(mv)
        atom_logs, log_w = self._logs(w, mv)
        k = _snap(atom_logs @ self._coeffs.T, MU_TOL, self.potential.variables)
        values = li2(arg)
        raw = self._potential_value(values, atom_logs) - row_sums(2j * math.pi * k * log_w)
        bw = self._bloch_wigner_sum(arg, values) if self.potential.kind == "W" else None
        return raw, k, bw

    def _bloch_wigner_sum(self, arg: np.ndarray, li2_arg: np.ndarray) -> np.ndarray:
        """sum_t s_t D(m_t) over the Li2 terms from their arguments and li2 values."""
        return row_sums(_bloch_wigner(arg, li2_arg) * self._terms.dilog_sign)

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
        t the atom values with base = is_1m + t (_Products.views).

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
        state = np.empty(x.shape[:-1] + (k.views[-1].stop,), dtype=complex)
        wb, ab, t, F = (state[..., v] for v in k.views)
        na = t.shape[-1]
        wb[..., :nv - 1] = x
        wb[..., nv - 1] = 1.0           # the pin
        wb[..., -1] = 1.0
        np.divide(1.0, wb[..., :nv], out=wb[..., nv:-1])
        np.multiply.reduceat(wb.take(k.mono_gather, -1), k.mono_starts, axis=-1, out=t)
        np.multiply(k.atom_coeff, t, out=t)
        np.add(k.atom_is_1m, t, out=ab[..., :na])
        np.divide(1.0, ab[..., :na], out=ab[..., na:-1])
        ab[..., -1] = 1.0
        np.multiply.reduceat(ab.take(k.prod_gather, -1), k.prod_starts, axis=-1, out=F)
        # A zero variable or base shows up as an infinite reciprocal.  The
        # sums are finite exactly when every entry is (up to an overflow of
        # the sum itself, near 1e308); their product would overflow at
        # finite entries of about 1e154.
        ok = np.isfinite(np.add.reduce(wb, axis=-1) + np.add.reduce(ab, axis=-1))
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
        return state[..., self._products.views[3]] - 1.0, state

    def jacobian_at(self, state: np.ndarray) -> np.ndarray:
        """Analytic Jacobian of the residual vector from the kernel state of
        residual_state(), or of any selection of its rows: (n, n), or
        (rows, n, n).  Floating point errors are left to the caller's
        np.errstate."""
        nu = self.size
        if nu == 0:
            return np.empty(state.shape[:-1] + (0, 0), dtype=complex)
        k = self._products
        wb, ab, t, F = (state[..., v] for v in k.views)
        na = t.shape[-1]
        # g = -m/(1-m) = t/base for (1-m) atoms, exactly 1 for m atoms.
        g = np.where(k.atom_is_1m, t * ab[..., na:-1], 1.0)
        entries = np.add.reduceat(g.take(k.jac_atom, -1) * k.jac_coeff, k.jac_starts, axis=-1)
        J = np.zeros(state.shape[:-1] + (nu * nu,), dtype=complex)
        J[..., k.jac_entry] = entries
        J = J.reshape(state.shape[:-1] + (nu, nu))
        J *= F[..., :, None]
        J *= wb[..., None, nu + 1:2 * nu + 1]
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
        return np.minimum.reduce(np.abs(state[..., k.views[1].start:k.views[2].stop]), axis=-1)

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
        self.potential, the signs given over potential.variables; that flipped
        potential is its .potential and keeps it where build_system finds it.

        deg_v of a flipped monomial is eps_v deg_v of the original, so row v
        of C becomes row v of C times eps_v over the same atoms.  The term
        arrays are shared; the exponents are multiplied by eps, the
        coefficients by the tau parity signs, and the value gather swaps the
        w and 1/w indices of the eps_v = -1 variables, so a flip compiles
        nothing.  The flipped terms come from
        the flip table (_FlipTable): one matmul gives every key, and each
        term is one cache lookup.  The arrays equal those a fresh compile of
        the flipped potential gives whenever the flip keeps the order of
        every log product's two monomials.
        """
        table = self._flip_table
        nmono = len(self._mono_coeff)
        # The trailing +1 is the sign the trailing 1 of the value gather reads.
        signs = np.array([*taus, *epsilons, 1])
        neg = signs < 0
        counts = neg @ table.key_matrix
        term_keys = (counts[nmono:] & table.term_mask).tolist()
        eps = signs[len(taus):-1]
        exps = self._exps * eps
        coeff = self._mono_coeff * _PARITY_SIGN[counts[:nmono] & 1]
        try:
            terms = [cache[k] for cache, k in zip(table.term_cache, term_keys)]
        except KeyError:
            terms = table.flipped_terms(self, term_keys, (counts[:nmono] & table.mono_mask).tolist(),
                                        exps, coeff)
        potential = Potential(tuple(terms), self.potential.variables, self.potential.kind)
        system = EquationSystem(potential, self.pin, self.unknowns,
                                _coeffs=self._coeffs * eps[:, None],
                                _exps=exps, _terms=self._terms, _mono_coeff=coeff,
                                _value_gather=np.where(neg[table.gather_eps], table.gather_swapped,
                                                       self._value_gather),
                                _value_starts=self._value_starts)
        object.__setattr__(potential, "_system", system)
        return system


# The coefficient sign of a flipped monomial, by its tau parity.
_PARITY_SIGN = np.array([1.0, -1.0])


@dataclass(frozen=True)
class _FlipTable:
    """The sign flips w_v -> tau_v w_v^eps_v of a system's terms.

    A flip keeps each monomial's variables and their order, so the flipped
    monomial depends only on the eps of its own variables and on its tau
    parity (the number of odd-exponent variables with tau_v = -1, mod 2).
    Its key packs them into one integer, bit 0 the parity and one bit per
    own variable's eps above, so a monomial with k variables has at most
    2^(k+1) flips; a term's key packs its monomials' keys side by side.

    The sign vector of a flip, its tau < 0 and eps < 0 bits over the
    variables and a trailing 0, times key_matrix gives every monomial's and
    term's key at once, except that the low bits of each hold the whole
    count of odd-exponent variables with tau_v = -1, clear of the eps bits;
    the masks keep only its parity.  Flipped monomials and terms are cached per
    index under those keys.  The same sign vector gives each value gather
    entry's eps by index.
    """

    key_matrix: np.ndarray       # (2 nvars + 1, nmono + nterms) monomial columns, then term columns
    mono_mask: int
    term_mask: int
    own: tuple[np.ndarray, ...]  # per monomial, its variables' positions in Monomial.exps order
    mono_cache: list[dict[int, Monomial]]
    term_cache: list[dict[int, Term]]   # a constant's one entry is the term itself
    gather_eps: np.ndarray       # sign index of each value gather entry's eps
    gather_swapped: np.ndarray   # the value gather with every w and 1/w swapped

    def flipped_terms(self, system: EquationSystem, term_keys: list[int], mono_keys: list[int],
                      exps: np.ndarray, coeff: np.ndarray) -> list[Term]:
        """The terms under term_keys, building and caching the missing ones
        from the flipped exponents and coefficients."""
        def monomial(i: int) -> Monomial:
            cache = self.mono_cache[i]
            m = cache.get(mono_keys[i])
            if m is None:
                own = self.own[i]
                m = cache[mono_keys[i]] = Monomial(
                    tuple(zip([system.potential.variables[p] for p in own],
                              exps[i, own].tolist())),
                    int(coeff[i]))
            return m

        terms = []
        for cache, k, t, (i1, i2) in zip(self.term_cache, term_keys, system.potential.terms,
                                         system._terms.term_mono.tolist()):
            out = cache.get(k)
            if out is None:
                out = cache[k] = (Term.dilog(t.sign, monomial(i1)) if i2 < 0
                                  else Term.logprod(t.sign, monomial(i1), monomial(i2)))
            terms.append(out)
        return terms


def _compile_flip_table(system: EquationSystem) -> _FlipTable:
    exps = system._exps
    nmono, nv = exps.shape
    # Monomial.exps lists a monomial's variables sorted by name.
    by_name = sorted(range(nv), key=lambda p: str(system.potential.variables[p]))
    own = tuple(np.array([p for p in by_name if row[p]], dtype=np.intp) for row in exps.tolist())
    width = max((len(p) for p in own), default=0)
    low = width.bit_length()            # bits that hold any odd-exponent count
    mono = np.zeros((2 * nv + 1, nmono + 1), dtype=np.intp)   # the last column: no monomial
    mono[:nv, :nmono] = (exps % 2).T
    for i, positions in enumerate(own):
        mono[nv + positions, i] = 1 << np.arange(low, low + len(positions))
    term_mono = system._terms.term_mono
    shift = low + width
    count_bits = (1 << low) - 2
    # Each gather entry reads w_p (index p), 1/w_p (nv + p) or the trailing 1 (2 nv).
    gather = system._value_gather
    var = np.where(gather < nv, gather, gather - nv)
    return _FlipTable(
        key_matrix=np.concatenate((mono[:, :nmono],
                                   (mono[:, term_mono[:, 0]] << shift) + mono[:, term_mono[:, 1]]),
                                  axis=1),
        mono_mask=~count_bits,
        term_mask=~((count_bits << shift) | count_bits),
        own=own,
        mono_cache=[{} for _ in own],
        term_cache=[{0: t} if t.kind == "const" else {} for t in system.potential.terms],
        gather_eps=nv + var,
        gather_swapped=np.where(gather < nv, gather + nv, np.where(gather < 2 * nv, var, gather)),
    )


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
    from which C, the value gather, the product kernel and the flip table
    are built."""
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
        object.__setattr__(potential, "_system", _compile_system(potential))
    return potential._system


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
        potential=potential,
        pin=variables[-1],
        unknowns=variables[:-1],
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
    # Jacobian terms C[k, a] * deg_v(m_a), grouped by entry (k, v).
    terms = C[:, None, :] * E[:, :nu].T[None, :, :]
    k, v, a = np.nonzero(terms)
    entry = k * nu + v
    jac_starts = np.flatnonzero(np.diff(entry, prepend=-1))
    # State row: [w, 1/w, 1] over all variables, [base, 1/base, 1], t, exp(mu_k).
    bounds = np.cumsum([0, 2 * nu + 3, 2 * len(used) + 1, len(used), nu])
    return _Products(
        mono_gather=mono_gather,
        mono_starts=mono_starts,
        atom_coeff=np.where(atom_is_1m, -1.0, 1.0) * system._mono_coeff[atom_mono],
        atom_is_1m=atom_is_1m,
        prod_gather=prod_gather,
        prod_starts=prod_starts,
        jac_atom=a,
        jac_coeff=terms[k, v, a].astype(float),
        jac_starts=jac_starts,
        jac_entry=entry[jac_starts],
        views=tuple(slice(a, b) for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())),
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
    variables = system.potential.variables
    return dict(zip(variables, _snap(system.mu(a), tol, variables).tolist()))
