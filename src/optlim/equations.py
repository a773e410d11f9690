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

over the distinct atoms a = (kind, m_a).  The system exp(mu_k) = 1 is
solved in this product form, with one variable pinned to 1 (overall
scaling) and one equation dropped (the exact relation sum_k mu_k = 0).
The residual and its Jacobian

    d exp(mu_k) / d w_v = exp(mu_k) * sum_a C[k, a] g_a deg_v(m_a) / w_v,
    g_a = -m_a / (1 - m_a)  for (1 - m) atoms,  1  for m atoms,

are evaluated without exp or log: monomial values are products gathered
from [w, 1/w, 1] and the exp(mu_k) products gathered from
[base, 1/base, 1], both reduced with np.multiply.reduceat.  Both take a
leading batch axis of points; a batch row at a degenerate point comes out
non-finite, while a single point raises EvaluationError.

The corrected potential W0 = W - sum_k mu_k log w_k is formed in one pass
(EquationSystem.corrected_value): the value of every term monomial is
gathered once from [w, 1/w, 1], and W (one array Li2 over the dilogarithm
arguments plus the log products), the principal-branch mu_k (summed from
logs of the atom bases), their snapping to 2 pi i Z and the correction
are all read from those values.  potential.evaluate and the essential
margin read the same gather.

Each system is compiled once.  build_system at the default pin (the last
variable) keeps the system on the potential object and hands back that
one on every later call; a sign-flipped potential carries a system derived
from its base's (EquationSystem.sign_flipped), so it is never compiled.
Only an explicit other pin compiles a fresh system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Literal, Mapping, Sequence

import numpy as np

from .diagram import Label
from .numerics import PI2_OVER_6, TWO_PI, li2, plog
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


@dataclass(frozen=True)
class _Terms:
    """The potential's terms as index arrays for the W0 pass,
    W = sum s Li2(m) + sum s log(m1) log(m2) + const * pi^2/6.

    The log atoms are the bases, 1 - m or m, whose logs the pass takes:
    every factor's, and every log product monomial m.
    """

    dilog_mono: np.ndarray       # (ndilog,) index into _monomials of each Li2 argument
    dilog_sign: np.ndarray       # (ndilog,) its sign, as float
    logprod_atom: np.ndarray     # (nlogprod, 2) the log atoms of each log product
    logprod_sign: np.ndarray     # (nlogprod,) its sign, as float
    const: int                   # net sign count of the pi^2/6 constants
    atom_mono: np.ndarray        # (natoms,) index into _monomials
    atom_is_1m: np.ndarray       # (natoms,) bool: base 1 - m vs m


def _atom_table(potential: Potential) -> tuple[list[Monomial], dict[Label, dict[tuple[bool, int], int]],
                                              tuple[list, list, int]]:
    """The distinct term monomials; per variable the net coefficient of each
    atom (is_1m, monomial index), in order of first appearance; and the
    terms by monomial index: (monomial, sign) per dilogarithm,
    (monomial, monomial, sign) per log product, and the net constant count."""
    monomials: dict[Monomial, int] = {}
    acc: dict[Label, dict[tuple[bool, int], int]] = {v: {} for v in potential.variables}
    dilogs: list[tuple[int, int]] = []
    logprods: list[tuple[int, int, int]] = []
    const = 0

    def add(var: Label, is_1m: bool, mono: int, coeff: int):
        atoms = acc.get(var)
        if atoms is None or not coeff:
            return
        key = (is_1m, mono)
        c = atoms.get(key, 0) + coeff
        if c:
            atoms[key] = c
        else:
            del atoms[key]

    for t in potential.terms:
        if t.kind == "const":
            const += t.sign
            continue
        i1 = monomials.setdefault(t.m1, len(monomials))
        if t.kind == "dilog":
            dilogs.append((i1, t.sign))
            for var, e in t.m1.exps:
                add(var, True, i1, -t.sign * e)
        else:
            i2 = monomials.setdefault(t.m2, len(monomials))
            logprods.append((i1, i2, t.sign))
            for var in dict.fromkeys(t.m1.variables() + t.m2.variables()):
                add(var, False, i2, t.sign * t.m1.exponent(var))
                add(var, False, i1, t.sign * t.m2.exponent(var))
    return list(monomials), acc, (dilogs, logprods, const)


def log_derivatives(potential: Potential) -> dict[Label, LogDerivative]:
    """Every variable's log-derivative, from one pass over the terms."""
    monomials, acc, _ = _atom_table(potential)
    return {var: LogDerivative(var, tuple(LogAtom(c, "log1m" if is_1m else "log", monomials[i])
                                          for (is_1m, i), c in atoms.items()))
            for var, atoms in acc.items()}


def log_derivative(potential: Potential, var: Label) -> LogDerivative:
    if var not in potential.variables:
        raise KeyError(f"unknown variable {var!r}")
    return log_derivatives(potential)[var]


def euler_coefficient_sums(potential: Potential) -> dict[tuple[str, Monomial], int]:
    """Net coefficient of each log atom in sum_k mu_k; all zero for any
    degree-0 potential (the exact Euler relation)."""
    acc: dict[tuple[str, Monomial], int] = {}
    for deriv in log_derivatives(potential).values():
        for atom in deriv.atoms:
            key = (atom.kind, atom.m)
            acc[key] = acc.get(key, 0) + atom.coeff
            if acc[key] == 0:
                del acc[key]
    return acc


@dataclass(frozen=True)
class _Products:
    """Index arrays of the product kernel over the distinct atoms a of the
    unknowns' equations, exp(mu_k) = prod_a base_a ** C[k, a]."""

    mono_gather: np.ndarray      # indices into [w, 1/w, 1], w in _var_order
    mono_starts: np.ndarray      # (natoms,) reduceat boundaries of mono_gather
    atom_coeff: np.ndarray       # (natoms,) -coeff(m) for (1-m) atoms, coeff(m) for m
    atom_is_1m: np.ndarray       # (natoms,) bool
    prod_gather: np.ndarray      # indices into [base, 1/base, 1]
    prod_starts: np.ndarray      # (nunknowns,) reduceat boundaries of prod_gather
    jac_atom: np.ndarray         # atom of each nonzero C[k, a] * deg_v(m_a), by (k, v)
    jac_coeff: np.ndarray        # that product
    jac_starts: np.ndarray       # reduceat boundaries, one segment per Jacobian entry
    jac_entry: np.ndarray        # flat index k * nunknowns + v of each segment


@dataclass(frozen=True)
class EquationSystem:
    """Compiled log-derivatives of a potential, one block of factors per
    variable with the pin's redundant equation last, and the potential's
    terms as index arrays into the same monomials.

    mu() and corrected_value() read every block.  The product kernel of the
    unknowns' equations, which residual_vector() and jacobian() evaluate,
    is compiled from the blocks on first use, so a system built only for
    W0 never pays for it.
    """

    potential: Potential
    pin: Label
    unknowns: tuple[Label, ...]          # all variables except pin

    # compiled arrays; one row per (variable, factor), blocks in _var_order
    _eq_starts: np.ndarray               # (nvars,) reduceat boundaries, pin's block last
    _fac_power: np.ndarray               # (nfac,) integer outer exponent
    _fac_atom: np.ndarray                # (nfac,) index into _terms.atom_mono
    _monomials: tuple[Monomial, ...]     # every distinct term monomial
    _var_order: tuple[Label, ...]        # pin last
    _to_variables: np.ndarray            # (nvars,) index into _var_order of each variable
    _terms: _Terms                       # shared by sign flips
    _mono_coeff: np.ndarray              # (nmono,) coefficients, as float
    _value_gather: np.ndarray            # indices into [w, 1/w, 1], w in _var_order
    _value_starts: np.ndarray            # (nmono,) reduceat boundaries of _value_gather

    @cached_property
    def _products(self) -> _Products:
        return _compile_products(self)

    @cached_property
    def _fac_var(self) -> np.ndarray:
        """Index into _var_order of each factor's variable."""
        block = np.diff(self._eq_starts, append=len(self._fac_power))
        return np.repeat(np.arange(len(self._var_order)), block)

    @property
    def size(self) -> int:
        return len(self.unknowns)

    def assignment_from_vector(self, x: Sequence[complex]) -> dict[Label, complex]:
        a = {v: complex(val) for v, val in zip(self.unknowns, x)}
        a[self.pin] = 1.0 + 0.0j
        return a

    def vector_from_assignment(self, a: Assignment) -> np.ndarray:
        return np.array([complex(a[v]) for v in self.unknowns], dtype=complex)

    def point_from_assignment(self, a: Assignment) -> np.ndarray:
        """Every variable's value, unknowns first and the pin last: the
        points that monomial_values() and the passes built on it take."""
        try:
            return np.array([complex(a[v]) for v in self._var_order], dtype=complex)
        except KeyError as exc:
            raise EvaluationError(f"variable {exc.args[0]!r} not assigned") from None

    def monomial_values(self, w: np.ndarray) -> np.ndarray:
        """Value of every monomial in _monomials at points w (..., nvars):
        the products gathered from [w, 1/w, 1], times the coefficients.

        This is the one evaluator of monomial values behind W, the mu_k, W0
        and the essential margin.  Raises EvaluationError at a zero variable.
        """
        w = np.asarray(w, dtype=complex)
        # 1/w in Python's complex arithmetic, as Monomial.value forms it;
        # numpy's complex division rounds differently.  With the factors in
        # the same order the values are Monomial.value's bit for bit, so a
        # value that is real up to rounding keeps its side of the log cut.
        try:
            reciprocals = [v ** -1 for v in w.ravel().tolist()]
        except ZeroDivisionError:
            raise EvaluationError("zero variable value") from None
        nv = w.shape[-1]
        wb = np.empty(w.shape[:-1] + (2 * nv + 1,), dtype=complex)
        wb[..., :nv] = w
        wb[..., nv:-1] = np.array(reciprocals, dtype=complex).reshape(w.shape)
        wb[..., -1] = 1.0
        return self._mono_coeff * np.multiply.reduceat(wb[..., self._value_gather],
                                                       self._value_starts, axis=-1)

    def dilog_arguments(self, w: np.ndarray) -> np.ndarray:
        """The argument of every Li2 term at points w (..., nvars)."""
        return self.monomial_values(w)[..., self._terms.dilog_mono]

    def _essential_arguments(self, mv: np.ndarray) -> np.ndarray:
        """The Li2 arguments among the monomial values; EvaluationError when
        one equals 0 or 1."""
        arg = mv[..., self._terms.dilog_mono]
        bad = (arg == 0.0) | (arg == 1.0)
        if np.count_nonzero(bad):
            raise EvaluationError(
                f"non-essential assignment: dilog argument equals {arg[bad][0]}")
        return arg

    def _logs(self, w: np.ndarray, mv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Principal logs of the log atoms' bases and of the variables, from
        one plog call."""
        t = self._terms
        v = mv[..., t.atom_mono]
        base = np.where(t.atom_is_1m, 1.0 - v, v)
        try:
            logs = plog(np.concatenate((base, w), axis=-1))
        except ValueError as exc:
            raise EvaluationError(f"degenerate monomial value in a log-derivative: {exc}") from None
        return logs[..., :len(t.atom_mono)], logs[..., len(t.atom_mono):]

    def _potential_value(self, arg: np.ndarray, atom_logs: np.ndarray) -> np.ndarray:
        """W from its Li2 arguments and the log atoms."""
        t = self._terms
        lp = atom_logs[..., t.logprod_atom]
        return (row_sums(li2(arg) * t.dilog_sign)
                + row_sums(lp[..., 0] * lp[..., 1] * t.logprod_sign)
                + t.const * PI2_OVER_6)

    def _mu_blocks(self, atom_logs: np.ndarray) -> np.ndarray:
        """mu_k (..., nvars) in _var_order: each block's powers times its atoms' logs."""
        terms = self._fac_power * atom_logs[..., self._fac_atom]
        # The trailing zero keeps the pin's boundary in range when its block is empty.
        terms = np.concatenate((terms, np.zeros(terms.shape[:-1] + (1,))), axis=-1)
        return np.add.reduceat(terms, self._eq_starts, axis=-1)

    def potential_value(self, w: np.ndarray) -> np.ndarray:
        """W at points w (..., nvars), principal branches throughout."""
        mv = self.monomial_values(w)
        arg = self._essential_arguments(mv)
        return self._potential_value(arg, self._logs(w, mv)[0])

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
        return self._mu_blocks(self._logs(w, self.monomial_values(w))[0])[self._to_variables]

    def corrected_value(self, w: np.ndarray, mu_tol: float = 1e-6
                        ) -> tuple[np.ndarray, np.ndarray]:
        """W0 = W - sum_k mu_k log w_k at points w (..., nvars), in one pass.

        The monomial values are gathered once and logged in one plog call;
        W, the mu_k, their snapping to 2 pi i Z and the correction are all
        formed from them.  Returns the raw values (...) and the mu integers
        (..., nvars) in potential.variables order.  Raises EvaluationError
        when some mu_k is more than mu_tol from 2 pi i Z, that is at a
        non-solution.
        """
        w = np.asarray(w, dtype=complex)
        mv = self.monomial_values(w)
        arg = self._essential_arguments(mv)
        atom_logs, log_w = self._logs(w, mv)
        k = _snap(self._mu_blocks(atom_logs), mu_tol, self._var_order)
        raw = self._potential_value(arg, atom_logs) - row_sums(2j * math.pi * k * log_w)
        return raw, k[..., self._to_variables]

    def _kernel(self, x: np.ndarray, pin: complex = 1.0):
        """[w, 1/w, 1], the atom values t with base = is_1m + t, [base, 1/base, 1]
        and exp(mu_k) at unknowns x (..., n) and the given pin value.

        Rows at a zero variable or at a monomial value in {0, 1} are set
        to nan; a single point raises EvaluationError instead.
        """
        k = self._products
        nv = self.size + 1
        wb = np.empty(x.shape[:-1] + (2 * nv + 1,), dtype=complex)
        wb[..., :nv - 1] = x
        wb[..., nv - 1] = pin
        wb[..., -1] = 1.0
        with np.errstate(all="ignore"):
            np.divide(1.0, wb[..., :nv], out=wb[..., nv:-1])
            t = k.atom_coeff * np.multiply.reduceat(wb[..., k.mono_gather], k.mono_starts, axis=-1)
            na = t.shape[-1]
            ab = np.empty(x.shape[:-1] + (2 * na + 1,), dtype=complex)
            np.add(k.atom_is_1m, t, out=ab[..., :na])
            np.divide(1.0, ab[..., :na], out=ab[..., na:-1])
            ab[..., -1] = 1.0
            F = np.multiply.reduceat(ab[..., k.prod_gather], k.prod_starts, axis=-1)
            # A zero variable or base shows up as an infinite reciprocal.
            ok = np.isfinite(wb.sum(axis=-1) * ab.sum(axis=-1))
        if x.ndim == 1:
            if not ok:
                if np.any(wb[:nv] == 0.0):
                    raise EvaluationError("zero variable value")
                raise EvaluationError("non-essential point: monomial value in {0, 1}")
        elif not ok.all():
            F[~ok] = np.nan
        return wb, t, ab, F

    def residual_vector(self, x: Sequence[complex]) -> np.ndarray:
        """exp(mu_k) - 1 per unknown with the pin held at 1; x is (n,) or (rows, n)."""
        x = np.asarray(x, dtype=complex)
        if self.size == 0:
            return np.empty(x.shape[:-1] + (0,), dtype=complex)
        return self._kernel(x)[3] - 1.0

    def jacobian(self, x: Sequence[complex]) -> np.ndarray:
        """Analytic Jacobian of the residual vector: (n, n), or (rows, n, n)."""
        x = np.asarray(x, dtype=complex)
        nu = self.size
        if nu == 0:
            return np.empty(x.shape[:-1] + (0, 0), dtype=complex)
        wb, t, ab, F = self._kernel(x)
        k = self._products
        na = t.shape[-1]
        with np.errstate(all="ignore"):
            # g = -m/(1-m) = t/base for (1-m) atoms, exactly 1 for m atoms.
            g = np.where(k.atom_is_1m, t * ab[..., na:-1], 1.0)
            entries = np.add.reduceat(g[..., k.jac_atom] * k.jac_coeff, k.jac_starts, axis=-1)
            J = np.zeros(x.shape[:-1] + (nu * nu,), dtype=complex)
            J[..., k.jac_entry] = entries
            J = J.reshape(x.shape[:-1] + (nu, nu))
            J *= F[..., :, None]
            J *= wb[..., None, nu + 1:2 * nu + 1]
        return J

    def residual(self, a: Assignment) -> np.ndarray:
        """Residual vector at a full assignment, pin included as given."""
        if self.size == 0:
            return np.empty(0, dtype=complex)
        x = self.vector_from_assignment(a)
        return self._kernel(x, complex(a[self.pin]))[3] - 1.0

    def sign_flipped(self, potential: Potential, epsilons: Mapping[Label, int],
                     flip: Callable[[Monomial], Monomial]) -> EquationSystem:
        """The system of potential, the substitution w_v -> tau_v w_v^eps_v
        of self.potential whose monomials are flip(m), kept on potential
        where build_system finds it.

        deg_v of a flipped monomial is eps_v deg_v of the original, so each
        variable's factor block keeps its factors and order and its powers
        are multiplied by eps_v; the factor monomials are flipped.  The term
        arrays are shared, and the value gather swaps the w and 1/w indices
        of the eps_v = -1 variables, so a flip compiles nothing.  The arrays
        equal those a fresh compile of potential gives whenever the flip
        keeps the order of every log product's two monomials.
        """
        eps = np.array([epsilons[v] for v in self._var_order])
        nv = len(eps)
        flipped = np.flatnonzero(eps < 0)
        swap = np.arange(2 * nv + 1)
        swap[flipped] += nv
        swap[flipped + nv] -= nv
        monomials = tuple(flip(m) for m in self._monomials)
        system = replace(self, potential=potential,
                         _fac_power=self._fac_power * eps[self._fac_var],
                         _monomials=monomials,
                         _mono_coeff=np.fromiter((m.coeff for m in monomials), float,
                                                 len(monomials)),
                         _value_gather=swap[self._value_gather])
        object.__setattr__(potential, "_system", system)
        return system


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


def _exponents(monomials: Sequence[Monomial], var_order: Sequence[Label]) -> np.ndarray:
    """The exponent matrix (nmono, nvars) of the monomials over var_order,
    from which both the value gather and the product kernel are built."""
    var_index = {v: i for i, v in enumerate(var_order)}
    exps = np.zeros((len(monomials), len(var_order)), dtype=np.intp)
    for i, m in enumerate(monomials):
        for v, e in m.exps:
            exps[i, var_index[v]] = e
    return exps


def build_system(potential: Potential, pin: Label | None = None) -> EquationSystem:
    """Pin one variable to 1 and compile every variable's equation, pin's last.

    At the default pin, the last variable, the system is compiled on the
    first call and kept on the potential object; later calls return it.
    Any other pin compiles a fresh system.
    """
    if pin is not None and potential.variables[-1:] != (pin,):
        return _compile_system(potential, pin)
    if potential._system is None:
        object.__setattr__(potential, "_system", _compile_system(potential, None))
    return potential._system


def _compile_system(potential: Potential, pin: Label | None) -> EquationSystem:
    variables = potential.variables
    if not variables:
        raise ValueError("potential has no variables")
    if pin is None:
        pin = variables[-1]
    if pin not in variables:
        raise KeyError(f"pin variable {pin!r} not in potential")
    unknowns = tuple(v for v in variables if v != pin)

    var_order = unknowns + (pin,)
    monomials, table, (dilogs, logprods, const) = _atom_table(potential)
    eq_starts = []
    facs: list[tuple[bool, int]] = []
    powers: list[int] = []
    for var in var_order:
        atoms = table[var]
        if not atoms and var != pin:
            raise ValueError(f"variable {var!r} has an empty equation")
        eq_starts.append(len(facs))
        facs.extend(atoms)
        powers.extend(atoms.values())
    fac_is_1m, fac_mono = np.array(facs, dtype=np.intp).reshape(-1, 2).T
    dilog = np.array(dilogs, dtype=np.intp).reshape(-1, 2)
    logprod = np.array(logprods, dtype=np.intp).reshape(-1, 3)
    # The log atoms, keyed 2 * monomial + is_1m: the factors' and the log
    # products' monomials.
    keys = np.concatenate((2 * fac_mono + fac_is_1m, 2 * logprod[:, :2].ravel()))
    atoms, atom_of_key = np.unique(keys, return_inverse=True)
    terms = _Terms(dilog_mono=dilog[:, 0], dilog_sign=dilog[:, 1].astype(float),
                   logprod_atom=atom_of_key[len(fac_mono):].reshape(-1, 2),
                   logprod_sign=logprod[:, 2].astype(float), const=const,
                   atom_mono=atoms // 2, atom_is_1m=atoms % 2 == 1)
    value_gather, value_starts = _gather(_exponents(monomials, var_order))
    return EquationSystem(
        potential=potential,
        pin=pin,
        unknowns=unknowns,
        _eq_starts=np.array(eq_starts, dtype=np.intp),
        _fac_power=np.array(powers, dtype=float),
        _fac_atom=atom_of_key[:len(fac_mono)],
        _monomials=tuple(monomials),
        _var_order=var_order,
        _to_variables=np.array([var_order.index(v) for v in variables], dtype=np.intp),
        _terms=terms,
        _mono_coeff=np.array([m.coeff for m in monomials], dtype=float),
        _value_gather=value_gather,
        _value_starts=value_starts,
    )


def _compile_products(system: EquationSystem) -> _Products:
    """The product kernel of the unknowns' factor blocks."""
    nu = system.size
    # Distinct atoms (monomial, kind) of the unknowns' rows and the integer
    # exponent matrix C[k, a].
    rows = system._eq_starts[-1]
    fac_atom = system._fac_atom[:rows]
    fac_mono, fac_is_1m = system._terms.atom_mono[fac_atom], system._terms.atom_is_1m[fac_atom]
    atoms, first, atom_of_row = np.unique(2 * fac_mono + fac_is_1m,
                                          return_index=True, return_inverse=True)
    atom_mono, atom_is_1m = fac_mono[first], fac_is_1m[first]
    C = np.zeros((nu, len(atoms)), dtype=np.intp)
    C[np.repeat(np.arange(nu), np.diff(system._eq_starts)), atom_of_row] = system._fac_power[:rows]
    E = _exponents(system._monomials, system._var_order)[atom_mono]
    mono_gather, mono_starts = _gather(E)
    prod_gather, prod_starts = _gather(C)
    # Jacobian terms C[k, a] * deg_v(m_a), grouped by entry (k, v).
    terms = C[:, None, :] * E[:, :nu].T[None, :, :]
    k, v, a = np.nonzero(terms)
    entry = k * nu + v
    jac_starts = np.flatnonzero(np.diff(entry, prepend=-1))
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
                           tol: float = 1e-6) -> dict[Label, int]:
    """Round each mu_k/(2 pi i) to an integer; error when not a solution."""
    variables = system.potential.variables
    return dict(zip(variables, _snap(system.mu(a), tol, variables).tolist()))
