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
non-finite, while a single point raises EvaluationError.  The principal-
branch mu_k themselves, which the corrected potential needs, are summed
from logs of the same atoms evaluated with Monomial.value.

Each system is compiled once.  build_system at the default pin (the last
variable) keeps the system on the potential object and hands back that
one on every later call; a sign-flipped potential carries a system derived
from its base's (EquationSystem.sign_flipped), so it is never compiled.
Only an explicit other pin compiles a fresh system.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Literal, Mapping, Sequence

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


def _atom_table(potential: Potential) -> tuple[list[Monomial], dict[Label, dict[tuple[bool, int], int]]]:
    """The distinct atom monomials, and per variable the net coefficient of
    each atom (is_1m, monomial index), in order of first appearance."""
    monomials: dict[Monomial, int] = {}
    acc: dict[Label, dict[tuple[bool, int], int]] = {v: {} for v in potential.variables}

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
            continue
        i1 = monomials.setdefault(t.m1, len(monomials))
        if t.kind == "dilog":
            for var, e in t.m1.exps:
                add(var, True, i1, -t.sign * e)
        else:
            i2 = monomials.setdefault(t.m2, len(monomials))
            for var in dict.fromkeys(t.m1.variables() + t.m2.variables()):
                add(var, False, i2, t.sign * t.m1.exponent(var))
                add(var, False, i1, t.sign * t.m2.exponent(var))
    used = sorted({i for atoms in acc.values() for _, i in atoms})
    if len(used) < len(monomials):    # every atom of some monomial cancelled
        remap = {old: new for new, old in enumerate(used)}
        acc = {var: {(is_1m, remap[i]): c for (is_1m, i), c in atoms.items()}
               for var, atoms in acc.items()}
        return [m for i, m in enumerate(monomials) if i in remap], acc
    return list(monomials), acc


def log_derivatives(potential: Potential) -> dict[Label, LogDerivative]:
    """Every variable's log-derivative, from one pass over the terms."""
    monomials, acc = _atom_table(potential)
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
    variable with the pin's redundant equation last.

    mu() reads every block.  The product kernel of the unknowns' equations,
    which residual_vector() and jacobian() evaluate, is compiled from the
    blocks on first use, so a system built only for mu() never pays for it.
    """

    potential: Potential
    pin: Label
    unknowns: tuple[Label, ...]          # all variables except pin

    # compiled arrays; one row per (variable, factor), blocks in _var_order
    _eq_starts: np.ndarray               # (nvars,) reduceat boundaries, pin's block last
    _fac_power: np.ndarray               # (nfac,) integer outer exponent
    _fac_is_1m: np.ndarray               # (nfac,) bool: factor (1-m) vs m
    _fac_mono: np.ndarray                # (nfac,) index into _monomials
    _monomials: tuple[Monomial, ...]     # distinct factor monomials
    _var_order: tuple[Label, ...]        # pin last

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
        are multiplied by eps_v; the factor monomials are flipped.  The
        arrays equal those a fresh compile of potential gives whenever the
        flip keeps the order of every log product's two monomials.
        """
        eps = np.array([epsilons[v] for v in self._var_order], dtype=float)
        system = replace(self, potential=potential,
                         _fac_power=self._fac_power * eps[self._fac_var],
                         _monomials=tuple(flip(m) for m in self._monomials))
        object.__setattr__(potential, "_system", system)
        return system

    def mu(self, a: Assignment) -> np.ndarray:
        """Principal-branch mu_k at the assignment, in potential.variables order.

        The monomial values come from Monomial.value, the values the
        potential itself is evaluated at.  A value on the negative real axis
        then falls on the same side of the log cut in W and in every mu_k,
        so W0 keeps its invariances there; exp(exps @ log w) or a different
        order of products can move it across.
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
    monomials, table = _atom_table(potential)
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
    return EquationSystem(
        potential=potential,
        pin=pin,
        unknowns=unknowns,
        _eq_starts=np.array(eq_starts, dtype=np.intp),
        _fac_power=np.array(powers, dtype=float),
        _fac_is_1m=fac_is_1m.astype(bool),
        _fac_mono=fac_mono,
        _monomials=tuple(monomials),
        _var_order=var_order,
    )


def _compile_products(system: EquationSystem) -> _Products:
    """The product kernel of the unknowns' factor blocks."""
    var_index = {v: i for i, v in enumerate(system._var_order)}
    nu = system.size
    mono_exps = np.zeros((len(system._monomials), nu + 1), dtype=np.intp)
    for i, m in enumerate(system._monomials):
        for v, e in m.exps:
            mono_exps[i, var_index[v]] = e
    mono_coeff = np.array([m.coeff for m in system._monomials], dtype=float)
    # Distinct atoms (monomial, kind) of the unknowns' rows and the integer
    # exponent matrix C[k, a].
    rows = system._eq_starts[-1]
    fac_mono, fac_is_1m = system._fac_mono[:rows], system._fac_is_1m[:rows]
    atoms, first, atom_of_row = np.unique(2 * fac_mono + fac_is_1m,
                                          return_index=True, return_inverse=True)
    atom_mono, atom_is_1m = fac_mono[first], fac_is_1m[first]
    C = np.zeros((nu, len(atoms)), dtype=np.intp)
    C[np.repeat(np.arange(nu), np.diff(system._eq_starts)), atom_of_row] = system._fac_power[:rows]
    E = mono_exps[atom_mono]
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
        atom_coeff=np.where(atom_is_1m, -1.0, 1.0) * mono_coeff[atom_mono],
        atom_is_1m=atom_is_1m,
        prod_gather=prod_gather,
        prod_starts=prod_starts,
        jac_atom=a,
        jac_coeff=terms[k, v, a].astype(float),
        jac_starts=jac_starts,
        jac_entry=entry[jac_starts],
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
