"""Multistart damped Newton search for solutions of the pinned systems.

Restarts draw starting points from the annulus START_RADII, one per
child of the configured seed, and run as the rows of one lockstep Newton
iteration: every iteration forms the Jacobians of all live rows, solves
them as a stack, and runs a backtracking line search on the residual norm
with per-row rules.  The live rows are held as compact arrays, and a row's
result is written to the output only when it retires.  One path serves
solve()'s hundreds of rows and refine()'s one.  The Jacobians and the
capped line search run under np.errstate; the steps and the status rules
run outside it, where a numpy warning still surfaces.  The line search
goes in stages (_STAGES): t = 1, 1/2, 1/4 and 1/8 for every row in one
call, then 1/16 .. 1/128 and 2^-8 .. 2^-29 for the rows that rejected
every earlier length.  Each trial point costs one kernel pass
(EquationSystem.residual_state), and the next Jacobian is formed from the
accepted point's kernel state (EquationSystem.jacobian_at), with no
second pass.

The step is the Tikhonov-regularised Gauss-Newton step
-(J^H J + lam I)^-1 J^H F with lam = REGULARISATION * ||J||_F^2, not the
plain Newton step -J^-1 F.  The solution sets are positive-dimensional
and J is rank-deficient on them, so near a solution J is nearly singular:
the plain step then converges only linearly, or its line search stalls.
The damped step is, up to lam, the minimum-norm step, orthogonal to the
near-null directions along the solution set, and keeps the quadratic
rate onto such sets; away from them it is the Newton step to about
lam / sigma_min(J)^2 relative.

Each row leaves with a status code
(converged, left the essential domain, singular Jacobian, non-finite step,
line-search stall, stagnation, divergence or iteration limit); refine()
is the same iteration on a single row and turns a failure code into
SolveError, and a start with a missing or non-finite variable into
EvaluationError.  Converged rows are deduplicated and only essential solutions
(essential_margin, the distance of every dilogarithm argument from 0, 1
and infinity, at least ESSENTIAL_TOL) are kept.  Every row's
arithmetic is independent of the other rows in the block, so the same
seed gives the same solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagram import Label
from .equations import EquationSystem, EvaluationError
from .potential import Assignment

# Rows per kernel or Jacobian call; line-search candidates count one row
# each.  Bounds the working memory independently of the number of restarts.
BLOCK_ROWS = 256

# Tikhonov weight lam of the Gauss-Newton step, relative to
# ||J||_F^2 = trace(J^H J): J^H J + lam I is invertible wherever J != 0.
REGULARISATION = 1e-10

# Newton iterations per row before it leaves with MAX_ITER.
ITERATIONS = 200

# Converged points closer than this in every coordinate are one solution.
DEDUPE_TOL = 1e-8

# Cut-off of essential_margin.  The regularised step also converges
# onto points near the non-essential boundary, where the region/side
# bridge can fail (5_2 W at seeds 2 and 3 with a cut of 1e-6 or 1e-4);
# the closed-form twist points have margins of at least 1.1e-2.
ESSENTIAL_TOL = 1e-3

# Inner and outer radius of the annulus the starting points are drawn
# from, log-uniformly in the radius.
START_RADII = (0.1, 10.0)

# Line-search step lengths, in stages: t = 1 .. 1/8 for every row, then
# 1/16 .. 1/128, then 2^-8 .. 2^-29 for the rows that rejected every
# earlier length.  Over the multistart systems 60% of rows accept t = 1
# and 30% one of 1/2 .. 1/8, so most line searches end after one call.
_STAGES = (0.5 ** np.arange(0, 4), 0.5 ** np.arange(4, 8), 0.5 ** np.arange(8, 30))

# Exit status of a Newton row.
(RUNNING, CONVERGED, LEFT_DOMAIN, SINGULAR, NONFINITE_STEP, STALLED,
 STAGNATION, DIVERGED, MAX_ITER) = range(9)

_FAILURES = {
    LEFT_DOMAIN: "iterate left the essential domain",
    SINGULAR: "singular Jacobian at iterate",
    NONFINITE_STEP: "non-finite Newton step",
    STALLED: "line search stalled at residual {fnorm:.3e}",
    STAGNATION: "stagnation at residual {fnorm:.3e}",
    DIVERGED: "divergence",
    MAX_ITER: "no convergence after {iterations} iterations (residual {fnorm:.3e})",
}


class SolveError(RuntimeError):
    """Raised by refine() when Newton fails to converge."""


@dataclass(frozen=True)
class SolveConfig:
    restarts: int = 512
    residual_tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if not 0 < self.residual_tol < DEDUPE_TOL:
            raise ValueError(f"residual_tol must lie in (0, {DEDUPE_TOL:g})")


@dataclass(frozen=True)
class Solution:
    assignment: dict[Label, complex]
    residual_norm: float
    component_hint: int = -1


def _blocks(fn, X: np.ndarray):
    """fn over the rows of X, BLOCK_ROWS rows per call; fn returns an array
    or a tuple of arrays."""
    if len(X) <= BLOCK_ROWS:
        return fn(X)
    parts = [fn(X[i:i + BLOCK_ROWS]) for i in range(0, len(X), BLOCK_ROWS)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def _norms(F: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row (last axis) of a contiguous complex array;
    an overflowing or non-finite row gives inf or nan, which compares below
    no residual norm.  Overflow warnings are left to the caller's np.errstate."""
    return np.sqrt(np.add.reduce(np.square(F.view(float)), axis=-1))


def _steps(J: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Regularised Gauss-Newton steps -(J^H J + lam I)^-1 J^H F of a stack of
    rows, lam = REGULARISATION * ||J||_F^2, and which rows are singular."""
    JH = J.conj().swapaxes(-1, -2)
    A = JH @ J
    n = A.shape[-1]
    diag = A.reshape(-1, n * n)[:, ::n + 1]        # a view: A is a fresh C-ordered stack
    diag += REGULARISATION * np.add.reduce(diag.real, axis=-1, keepdims=True)
    b = -(JH @ F[..., None])
    singular = np.zeros(len(F), dtype=bool)
    try:
        return np.linalg.solve(A, b)[..., 0], singular
    except np.linalg.LinAlgError:
        pass
    # Some matrix of the stack is singular (J = 0): solve row by row, the same way.
    steps = np.full_like(F, np.nan)
    for i in range(len(F)):
        try:
            steps[i] = np.linalg.solve(A[i:i + 1], b[i:i + 1])[0, :, 0]
        except np.linalg.LinAlgError:
            singular[i] = True
    return steps, singular


def _line_search(system: EquationSystem, x: np.ndarray, step: np.ndarray, fnorm: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per row, the first x + t*step, t = 1, 1/2, ..., 2^-29, whose residual
    norm is below fnorm.  Returns (accepted, x, F, norm, state) for the new
    points, state their kernel states; a row that rejects every length
    keeps its t = 1 values.  x holds at least one row.  Floating point
    errors at the trial points are left to the caller's np.errstate.

    The first stage of _STAGES is evaluated for every row, reading x, step
    and fnorm by slices, each later one for the rows that rejected every
    earlier length, all lengths of a stage in one call; the first accepted
    length is the same as in a sequential search.  When one call covers
    every row, its picks are the outputs; later stages write only the rows
    they accept.
    """
    rows = None             # the rows to search; every row in the first stage
    for lengths in _STAGES:
        per_call = max(1, BLOCK_ROWS // len(lengths))
        for i in range(0, len(x) if rows is None else len(rows), per_call):
            at = slice(i, i + per_call) if rows is None else rows[i:i + per_call]
            shorter = (x[at, None, :] + lengths[:, None] * step[at, None, :]
                       ).reshape(-1, x.shape[1])
            F, state = system.residual_state(shorter)
            norms = _norms(F)
            ok = norms.reshape(-1, len(lengths)) < fnorm[at, None]
            found = np.logical_or.reduce(ok, axis=1)
            # Each row's first accepted length, its first when it accepts none.
            pick = np.arange(0, len(shorter), len(lengths)) + ok.argmax(axis=1)
            values = (shorter, F, norms, state)
            if rows is None and per_call >= len(x):     # one call covers every row
                accepted, out = found, [v[pick] for v in values]
                continue
            if rows is None and not i:
                accepted = np.empty(len(x), dtype=bool)
                out = [np.empty((len(x),) + v.shape[1:], dtype=v.dtype) for v in values]
            accepted[at] = found
            if rows is not None:
                at, pick = at[found], pick[found]
            for dest, v in zip(out, values):
                dest[at] = v[pick]
        if np.logical_and.reduce(accepted):
            break
        rows = np.flatnonzero(~accepted)
    return (accepted, *out)


def _newton(system: EquationSystem, X0: np.ndarray, cfg: SolveConfig
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep damped Newton from every row of X0 (rows, n).

    Returns the last iterate, its residual norm and the status code of
    every row.  The per-row rules: the step is capped at 1 + |x|, the line
    search takes the first halving with a smaller residual norm, 20 slow
    steps (ratio > 0.9) above 1e-6 are stagnation, and a residual or
    coordinate beyond 1e12 or a coordinate below 1e-12 is divergence.
    The live rows' iterates, residuals, norms, kernel states (which give
    the next Jacobian) and slow-step counts are kept as compact arrays; a
    row's iterate, norm and status are written back when it retires.  The
    rules are screened by a few reductions over the live rows; rows are
    classified, and the arrays compressed, only when some row can retire.
    """
    X = np.array(X0, dtype=complex)
    with np.errstate(all="ignore"):
        F, state = _blocks(system.residual_state, X)
        fnorm = _norms(F)
    status = np.full(len(X), RUNNING)
    # x and fn may be X and fnorm themselves: the loop never writes into them.
    live, x, fn, slow = np.arange(len(X)), X, fnorm, np.zeros(len(X), dtype=int)
    tol = cfg.residual_tol
    if not (np.minimum.reduce(fnorm) > tol and np.maximum.reduce(fnorm) < math.inf):
        status[fnorm <= tol] = CONVERGED
        status[~np.isfinite(fnorm)] = LEFT_DOMAIN
        live = np.flatnonzero(status == RUNNING)
        x, F, fn, state, slow = X[live], F[live], fnorm[live], state[live], slow[live]

    def retire(rows: np.ndarray, code) -> None:
        X[live[rows]], fnorm[live[rows]], status[live[rows]] = x[rows], fn[rows], code

    for _ in range(ITERATIONS):
        if not live.size:
            break
        with np.errstate(all="ignore"):
            J = _blocks(system.jacobian_at, state)
        step, singular = _steps(J, F)
        # A singular row's step is nan.
        finite = np.isfinite(step)
        if not np.logical_and.reduce(finite, axis=None):
            failed = ~np.logical_and.reduce(finite, axis=-1)
            retire(failed, np.where(singular[failed], SINGULAR, NONFINITE_STEP))
            keep = ~failed
            live, x, fn, step, slow = live[keep], x[keep], fn[keep], step[keep], slow[keep]
            if not live.size:
                break
        with np.errstate(all="ignore"):
            # Cap the step length relative to the iterate; wild early jumps
            # throw restarts out of every basin.
            step_len, max_len = _norms(step), 1.0 + _norms(x)
            over = step_len > max_len
            if np.logical_or.reduce(over):
                step[over] *= (max_len[over] / step_len[over])[:, None]
            accepted, x_new, F, fx, state = _line_search(system, x, step, fn)
        if not np.logical_and.reduce(accepted):
            retire(~accepted, STALLED)
            live, fn, slow = live[accepted], fn[accepted], slow[accepted]
            x_new, F, fx, state = x_new[accepted], F[accepted], fx[accepted], state[accepted]
            if not live.size:
                break
        # A Newton basin shows fast decrease; persistent crawling means the
        # restart is wandering and is cheaper to abandon than to ride out.
        slow = np.where(fx / fn > 0.9, slow + 1, 0)
        x, fn = x_new, fx
        ax = np.abs(x)
        if not (np.minimum.reduce(fn) > tol and np.maximum.reduce(slow) < 20
                and np.maximum.reduce(fn) <= 1e12 and np.maximum.reduce(ax, axis=None) <= 1e12
                and np.minimum.reduce(ax, axis=None) >= 1e-12):
            # Converged before stagnant before diverged; residual_tol < 1e-6,
            # so a stagnant row is never a converged one.
            converged = fn <= tol
            stagnant = (slow >= 20) & (fn > 1e-6)
            diverged = (fn > 1e12) | np.logical_or.reduce((ax > 1e12) | (ax < 1e-12), axis=-1)
            done = converged | stagnant | diverged
            if np.logical_or.reduce(done):
                code = np.where(converged, CONVERGED, np.where(stagnant, STAGNATION, DIVERGED))
                retire(done, code[done])
                keep = ~done
                live, x, F, fn, state, slow = (live[keep], x[keep], F[keep], fn[keep], state[keep],
                                               slow[keep])
    retire(slice(None), MAX_ITER)
    return X, fnorm, status


def _failure(system: EquationSystem, x: np.ndarray, fnorm: float, code: int) -> SolveError:
    message = _FAILURES[code].format(fnorm=fnorm, iterations=ITERATIONS)
    if code == LEFT_DOMAIN:
        try:
            system.residual_vector(x)
        except EvaluationError as exc:
            message = f"{message}: {exc}"
    return SolveError(message)


def essential_margin(system: EquationSystem, a: Assignment | np.ndarray) -> float | np.ndarray:
    """Distance of the dilogarithm arguments from {0, 1, oo}: the minimum over
    the dilogarithm monomials m of min(|m|, |1 - m|, 1/|m|).

    a is an assignment, or points (..., nvars) in the order of
    EquationSystem.point_from_assignment, which give an array of margins.
    The arguments come from the system's monomial value gather.
    """
    w = a if isinstance(a, np.ndarray) else system.point_from_assignment(a)
    m = system.dilog_arguments(w)
    r = np.abs(m)
    with np.errstate(divide="ignore"):
        margin = np.minimum(np.minimum(r, np.abs(1.0 - m)), 1.0 / r).min(axis=-1, initial=math.inf)
    return margin if isinstance(a, np.ndarray) else float(margin)


def is_essential(system: EquationSystem, a: Assignment | np.ndarray, tol: float) -> bool | np.ndarray:
    """No dilogarithm argument within tol of {0, 1} or larger than 1/tol."""
    return essential_margin(system, a) >= tol


def refine(system: EquationSystem, a: Assignment, cfg: SolveConfig | None = None) -> Solution:
    """Polish an approximate solution to residual_tol by damped Newton.

    Raises EvaluationError when a variable is missing or not finite, and
    SolveError on divergence, singular Jacobians, or when the limit is not
    essential.
    """
    cfg = cfg or SolveConfig()
    w = system.point_from_assignment(a)
    finite = np.isfinite(w)
    if not np.logical_and.reduce(finite):
        v = system.potential.variables[int(finite.argmin())]
        raise EvaluationError(f"variable {v!r} is not finite: {a[v]!r}")
    *values, pin_value = w.tolist()
    if pin_value == 0:
        raise SolveError("pinned variable is zero")
    # Rescale so the pinned variable sits at 1 (the scaling quotient), in
    # Python's complex division.
    x0 = np.array([[v / pin_value for v in values]], dtype=complex)
    X, fnorm, status = _newton(system, x0, cfg)
    if status[0] != CONVERGED:
        raise _failure(system, X[0], float(fnorm[0]), status[0])
    if not is_essential(system, np.append(X[0], 1.0), ESSENTIAL_TOL):
        raise SolveError("converged to a non-essential point")
    return Solution(system.assignment_from_vector(X[0]), float(fnorm[0]))


def _sample(rng: np.random.Generator, size: int) -> np.ndarray:
    radius = np.exp(rng.uniform(*np.log(START_RADII), size))
    angle = rng.uniform(-np.pi, np.pi, size)
    return radius * np.exp(1j * angle)


def solve(system: EquationSystem, cfg: SolveConfig | None = None) -> list[Solution]:
    """Multistart search; deduplicated essential solutions sorted by residual.

    The solution list carries no completeness guarantee: the solution set
    may be under-sampled at the configured number of restarts.  An empty
    list is a valid outcome.
    """
    cfg = cfg or SolveConfig()
    if system.size == 0:
        return []
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    X0 = np.array([_sample(np.random.default_rng(s), system.size) for s in seeds])
    X, fnorm, status = _newton(system, X0, cfg)

    rows = np.flatnonzero(status == CONVERGED)
    points = np.concatenate((X[rows], np.ones((len(rows), 1))), axis=1)
    rows = rows[is_essential(system, points, ESSENTIAL_TOL)]
    hits = sorted(((X[i], float(fnorm[i])) for i in rows),
                  key=lambda h: (h[1],) + tuple(np.round(h[0].view(float), 6)))
    # Keep a row unless it lies within DEDUPE_TOL of a kept one: the kept
    # rows come in residual order, each with the smallest residual near it.
    kept: list[tuple[np.ndarray, float]] = []
    for x, fn in hits:
        if not any(np.max(np.abs(y - x)) < DEDUPE_TOL for y, _ in kept):
            kept.append((x, fn))
    return [Solution(system.assignment_from_vector(x), fn, component_hint=i)
            for i, (x, fn) in enumerate(kept)]
