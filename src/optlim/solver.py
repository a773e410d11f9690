"""Multistart damped Newton search for solutions of the pinned systems.

Restarts draw starting points from the annulus START_RADII, one per
child of the configured seed, and run as the rows of one lockstep Newton
iteration: every iteration forms the Jacobians of all live rows, solves
them as a stack, and runs a backtracking line search on the residual norm
with per-row rules.  The live rows are held as compact arrays, and a row's
result is written to the output only when it retires.  One path serves
solve()'s hundreds of rows and refine()'s one.  Each iteration opens one
np.errstate scope, over the Jacobians, the steps and the capped line
search (a non-finite step has a status of its own, below); the status
rules run outside it, where a numpy warning still surfaces.  The line
search goes in stages (_STAGES): t = 1, 1/2, 1/4 and 1/8 for every row,
in one call up to BLOCK_ROWS // 4 rows, then 1/16 .. 1/128 and
2^-8 .. 2^-29 for the rows that rejected every earlier length.  Each
trial point costs one kernel pass (EquationSystem.residual_state), and
the next Jacobian is formed from the accepted point's kernel state
(EquationSystem.jacobian_at), with no second pass.  The step cap and the
status rules are screened by a few reductions over the live rows (the
kernel margins only while some row's residual norm is below 1e-2, the
only rows the boundary rule retires), and the loop returns once a screen
retires every live row (refine()'s end).

The step is the Tikhonov-regularised Gauss-Newton step
-(J^H J + lam I)^-1 J^H F with lam = REGULARISATION * ||J||_F^2, not the
plain Newton step -J^-1 F.  The solution sets are positive-dimensional
and J is rank-deficient on them, so near a solution J is nearly singular:
the plain step then converges only linearly, or its line search stalls.
The damped step is, up to lam, the minimum-norm step, orthogonal to the
near-null directions along the solution set, and keeps the quadratic
rate onto such sets; away from them it is the Newton step to about
lam / sigma_min(J)^2 relative.

Each row leaves with a status code (converged to RESIDUAL_TOL, left the
essential domain, singular Jacobian, non-finite step, line-search stall,
stagnation, divergence or iteration limit).  A row leaves the essential
domain at a start where the kernel is not finite, or when it is
converging onto the boundary: after a line search its kernel margin
(EquationSystem.margin_at, read from the state the line search returned,
so no extra kernel pass) is below BOUNDARY_TOL at a residual norm below
1e-2.  Such a row would end at a point that solve() drops, and in the
lockstep iteration one such row keeps every iteration going.  refine()
is the same iteration on a single row and turns a failure code into
SolveError, and a start with a missing or non-finite variable into
EvaluationError.
solve() keeps every converged row with an essential point
(essential_margin, the distance of every dilogarithm argument from 0, 1
and infinity, at least ESSENTIAL_TOL), with no dedup: the solution sets
are positive-dimensional, so restarts land on distinct points.
Every row's arithmetic is independent of the other rows in the block, so
the same seed gives the same solutions (to the bit on one numpy build and
CPU: numpy's SIMD loops may round differently from its scalar ones).

That is also what lets solve() split its rows with a worker process in a
process that keeps solving; optlim._pool's docstring says when, and how.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .diagram import Label
from .equations import EquationSystem, EvaluationError
from .potential import Assignment

# Rows per kernel or Jacobian call; line-search candidates count one row
# each.  Bounds the line-search trial rows and Jacobian blocks formed per
# call, about half the peak memory at 512 restarts, but not the kernel
# states and Jacobians of the live rows, which grow with the restarts.
BLOCK_ROWS = 256

# Tikhonov weight lam of the Gauss-Newton step, relative to
# ||J||_F^2 = trace(J^H J): J^H J + lam I is invertible wherever J != 0.
REGULARISATION = 1e-10

# Newton iterations per row before it leaves with MAX_ITER.
ITERATIONS = 200

# A row converges when its residual norm is at most RESIDUAL_TOL.  W0 snaps
# each mu_k at MU_TOL = 1e-6, and the pin's mu, minus the sum of the others,
# adds up their errors, so the tolerance stays far below it.
RESIDUAL_TOL = 1e-12

# Cut-off of essential_margin.  The regularised step also converges
# onto points near the non-essential boundary, where the region/side
# bridge can fail (5_2 W at seeds 2 and 3 with a cut of 1e-6 or 1e-4);
# the closed-form twist points have margins of at least 1.1e-2.
ESSENTIAL_TOL = 1e-3

# A live row retires with LEFT_DOMAIN when, after a line search, its
# EquationSystem.margin_at is below BOUNDARY_TOL at a residual norm below
# 1e-2: it is converging onto a non-essential point, which solve() drops.
# On the multistart systems (512 restarts at seeds 0-19, 12 at seeds
# 0-199) two rows that end essential dip below 1e-8, both while
# wandering at residual norms of 0.96 and more.  The residual bound keeps
# them and still retires 2,613 of the 2,680 rows that the floor alone
# retires (12 restarts at seeds 0-19, 512 at seeds 0-1).
BOUNDARY_TOL = 1e-8

# Inner and outer radius of the annulus the starting points are drawn
# from, log-uniformly in the radius.
START_RADII = (0.1, 10.0)
_LOG_RADII = tuple(np.log(START_RADII).tolist())

# Line-search step lengths, in stages: t = 1 .. 1/8 for every row, then
# 1/16 .. 1/128, then 2^-8 .. 2^-29 for the rows that rejected every
# earlier length.  Over the multistart systems 60% of rows accept t = 1
# and 30% one of 1/2 .. 1/8, so most line searches end after one call.
# Each stage is a column (lengths, 1), ready to scale a row's step.
_STAGES = tuple(0.5 ** np.arange(a, b)[:, None] for a, b in ((0, 4), (4, 8), (8, 30)))

# solve()'s worker process (optlim._pool): seconds of serial solves
# of at least SPLIT_MIN_ROWS rows before it starts, about its start-up
# time; the fewest rows of a split solve, the measured crossover.
POOL_AFTER_S = 0.1
SPLIT_MIN_ROWS = 4
_serial_s = 0.0             # seconds of such solves in this process

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
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class Solution:
    assignment: dict[Label, complex]
    residual_norm: float        # Euclidean norm of the pinned residual (_norms)


def _blocks(fn, *arrays: np.ndarray, rows: int = 0):
    """fn over the rows of the arrays, rows (BLOCK_ROWS when 0) rows of
    each per call; fn returns an array or a tuple of arrays."""
    rows = rows or BLOCK_ROWS
    if len(arrays[0]) <= rows:
        return fn(*arrays)
    parts = [fn(*(a[i:i + rows] for a in arrays)) for i in range(0, len(arrays[0]), rows)]
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


def _trials(system: EquationSystem, lengths: np.ndarray, x: np.ndarray, step: np.ndarray,
            fnorm: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per row, the first t of lengths at which x + t*step has a residual
    norm below fnorm, all lengths in one kernel call: (found, x + t*step,
    F, norm, state), at the first length for a row that accepts none.
    (take and compress copy what indexing copies, at less cost per call.)"""
    shorter = (x[:, None, :] + lengths * step[:, None, :]).reshape(-1, x.shape[1])
    F, state = system.residual_state(shorter)
    norms = _norms(F)
    ok = norms.reshape(len(x), -1) < fnorm[:, None]
    pick = np.arange(0, len(shorter), len(lengths)) + ok.argmax(axis=1)
    return (np.logical_or.reduce(ok, axis=1), shorter.take(pick, 0), F.take(pick, 0),
            norms.take(pick, 0), state.take(pick, 0))


def _line_search(system: EquationSystem, x: np.ndarray, step: np.ndarray, fnorm: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per row, the first x + t*step, t = 1, 1/2, ..., 2^-29, whose residual
    norm is below fnorm.  Returns (accepted, x, F, norm, state) for the new
    points, state their kernel states; a row that rejects every length
    keeps its t = 1 values.  x holds at least one row.  Floating point
    errors at the trial points are left to the caller's np.errstate.

    The first stage of _STAGES is tried for every row, each later one for
    the rows that rejected every earlier length, in calls of about
    BLOCK_ROWS trial points (_trials); the first accepted length is the
    same as in a sequential search.  Up to BLOCK_ROWS // 4 rows the first
    stage is one call, whose picks are the outputs; later stages write
    only the rows they accept.
    """
    for i, lengths in enumerate(_STAGES):
        trials = partial(_trials, system, lengths)
        per_call = max(1, BLOCK_ROWS // len(lengths))
        if not i:
            accepted, *out = _blocks(trials, x, step, fnorm, rows=per_call)
        else:
            found, *values = _blocks(trials, x.take(rows, 0), step.take(rows, 0),
                                     fnorm.take(rows, 0), rows=per_call)
            rows = rows.compress(found)
            accepted[rows] = True
            for dest, v in zip(out, values):
                dest[rows] = v.compress(found, 0)
        if np.logical_and.reduce(accepted):
            break
        rows = np.flatnonzero(~accepted)
    return (accepted, *out)


def _newton(system: EquationSystem, X0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep damped Newton from every row of X0 (rows, n).

    Returns the last iterate, its residual norm and the status code of
    every row.  The per-row rules: a residual norm at most RESIDUAL_TOL is
    convergence, the step is capped at 1 + |x|, the line search takes the
    first halving with a smaller residual norm, a margin_at below
    BOUNDARY_TOL at a residual norm below 1e-2 is leaving the domain, 20
    slow steps (ratio > 0.9) above 1e-6 are stagnation, and a residual or
    coordinate beyond 1e12 or a coordinate below 1e-12 is divergence, in
    that order of precedence.  margin_at is min(|1 - m|, 1/|1 - m|, |m|)
    over the kernel's atoms: at most twice essential_margin, and at least
    half of it unless a log term's monomial is nearer 0 or infinity.
    The live rows' iterates, residuals, norms, kernel states (which give
    the next Jacobian) and slow-step counts are kept as compact arrays; a
    row's iterate, norm and status are written back when it retires.  The
    rules and the step cap are screened by a few reductions over the live
    rows; rows are classified, and the arrays compressed, only when some
    row can retire, and the loop ends when every live row does.
    """
    X = np.array(X0, dtype=complex)
    with np.errstate(all="ignore"):
        F, state = _blocks(system.residual_state, X)
        fnorm = _norms(F)
    status = np.full(len(X), RUNNING)
    # x and fn may be X and fnorm themselves: the loop never writes into them.
    live, x, fn, slow = np.arange(len(X)), X, fnorm, np.zeros(len(X), dtype=int)
    if not (np.minimum.reduce(fnorm) > RESIDUAL_TOL and np.maximum.reduce(fnorm) < math.inf):
        status[fnorm <= RESIDUAL_TOL] = CONVERGED
        status[~np.isfinite(fnorm)] = LEFT_DOMAIN
        live = np.flatnonzero(status == RUNNING)
        x, F, fn, state, slow = X[live], F[live], fnorm[live], state[live], slow[live]

    def retire(rows, code) -> None:
        at = live[rows]
        X[at], fnorm[at], status[at] = x[rows], fn[rows], code

    for i in range(ITERATIONS):
        if not live.size:
            break
        with np.errstate(all="ignore"):
            step, singular = _steps(_blocks(system.jacobian_at, state), F)
            # Cap the step length relative to the iterate; wild early jumps
            # throw restarts out of every basin.  A non-finite step's length,
            # nan or inf, fails the screen too.
            norms = _norms(np.concatenate((step, x)))
            step_len, max_len = norms[:len(x)], 1.0 + norms[len(x):]
            if not np.logical_and.reduce(step_len <= max_len):
                # A singular row's step is nan.
                failed = ~np.logical_and.reduce(np.isfinite(step), axis=-1)
                if np.logical_or.reduce(failed):
                    retire(failed, np.where(singular[failed], SINGULAR, NONFINITE_STEP))
                    live, x, fn, step, slow, step_len, max_len = (
                        a.compress(~failed, 0) for a in (live, x, fn, step, slow, step_len, max_len))
                    if not live.size:
                        break
                over = step_len > max_len
                step[over] *= (max_len[over] / step_len[over])[:, None]
            accepted, x_new, F, fx, state = _line_search(system, x, step, fn)
        if not np.logical_and.reduce(accepted):
            retire(~accepted, STALLED)
            live, fn, slow, x_new, F, fx, state = (
                a.compress(accepted, 0) for a in (live, fn, slow, x_new, F, fx, state))
            if not live.size:
                break
        # A Newton basin shows fast decrease; persistent crawling means the
        # restart is wandering and is cheaper to abandon than to ride out.
        slow = (slow + 1) * (fx / fn > 0.9)
        x, fn = x_new, fx
        ax, low = np.abs(x), np.minimum.reduce(fn)
        # fn only falls, and slow rises by at most 1 per iteration: no live
        # row is above 1e12 after the first screen, nor at 20 before the 20th.
        # No row can leave the domain while every residual norm is at least
        # 1e-2, so the margins are read only when one is below.
        if not (low > RESIDUAL_TOL
                and (low >= 1e-2 or np.minimum.reduce(system.margin_at(state)) >= BOUNDARY_TOL)
                and (i < 19 or np.maximum.reduce(slow) < 20)
                and (i > 0 or np.maximum.reduce(fn) <= 1e12)
                and np.maximum.reduce(ax, axis=None) <= 1e12
                and np.minimum.reduce(ax, axis=None) >= 1e-12):
            converged = fn <= RESIDUAL_TOL
            if np.logical_and.reduce(converged):
                retire(slice(None), CONVERGED)
                break
            # Converged before left the domain before stagnant before
            # diverged, so refine() still tells a converged non-essential
            # row apart; RESIDUAL_TOL < 1e-6, so a stagnant row is never a
            # converged one.
            left = (system.margin_at(state) < BOUNDARY_TOL) & (fn < 1e-2)
            stagnant = (slow >= 20) & (fn > 1e-6)
            diverged = (fn > 1e12) | np.logical_or.reduce((ax > 1e12) | (ax < 1e-12), axis=-1)
            done = converged | left | stagnant | diverged
            if np.logical_or.reduce(done):
                code = np.where(converged, CONVERGED, np.where(
                    left, LEFT_DOMAIN, np.where(stagnant, STAGNATION, DIVERGED)))
                if np.logical_and.reduce(done):
                    retire(slice(None), code)
                    break
                retire(done, code[done])
                live, x, F, fn, state, slow = (
                    a.compress(~done, 0) for a in (live, x, F, fn, state, slow))
    else:                   # the iterations ran out
        retire(slice(None), MAX_ITER)
    return X, fnorm, status


def _failure(system: EquationSystem, x: np.ndarray, fnorm: float, code: int) -> SolveError:
    message = _FAILURES[code].format(fnorm=fnorm, iterations=ITERATIONS)
    if code == LEFT_DOMAIN:
        try:
            system.residual_vector(x)
        except EvaluationError as exc:
            message = f"{message}: {exc}"
        else:           # retired on the boundary
            margin = essential_margin(system, np.append(x, 1.0))
            message = f"{message}: essential margin {margin:.3e} at residual {fnorm:.3e}"
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


def refine(system: EquationSystem, a: Assignment) -> Solution:
    """Polish an approximate solution to RESIDUAL_TOL by damped Newton.

    Raises EvaluationError when a variable is missing or not finite, and
    SolveError on divergence, singular Jacobians, or when the limit is not
    essential.
    """
    w = system.point_from_assignment(a)
    finite = np.isfinite(w)
    if not np.logical_and.reduce(finite):
        v = system.variables[int(finite.argmin())]
        raise EvaluationError(f"variable {v!r} is not finite: {a[v]!r}")
    *values, pin_value = w.tolist()
    if pin_value == 0:
        raise SolveError("pinned variable is zero")
    # Rescale so the pinned variable sits at 1 (the scaling quotient), in
    # Python's complex division.
    x0 = np.array([[v / pin_value for v in values]], dtype=complex)
    X, fnorm, status = _newton(system, x0)
    if status[0] != CONVERGED:
        raise _failure(system, X[0], float(fnorm[0]), status[0])
    if not is_essential(system, np.append(X[0], 1.0), ESSENTIAL_TOL):
        raise SolveError("converged to a non-essential point")
    return Solution(system.assignment_from_vector(X[0]), float(fnorm[0]))


def _sample(rng: np.random.Generator, size: int) -> np.ndarray:
    radius = np.exp(rng.uniform(*_LOG_RADII, size))
    angle = rng.uniform(-np.pi, np.pi, size)
    return radius * np.exp(1j * angle)


def _solve_rows(system: EquationSystem, X0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_newton over the rows of X0, split with a worker process once this
    process has spent POOL_AFTER_S in serial solves of at least
    SPLIT_MIN_ROWS rows and the worker is ready (optlim._pool); the same
    bytes either way."""
    global _serial_s
    if len(X0) < SPLIT_MIN_ROWS:
        return _newton(system, X0)
    if _serial_s >= POOL_AFTER_S:
        from . import _pool
        out = _pool.newton(system, X0)
        if out is not None:
            return out
    t0 = time.perf_counter()
    out = _newton(system, X0)
    _serial_s += time.perf_counter() - t0
    return out


def solve(system: EquationSystem, cfg: SolveConfig | None = None) -> list[Solution]:
    """Multistart search; every converged essential restart, sorted by
    residual, then by coordinates rounded to 6 decimals.

    The solution list carries no completeness guarantee: the solution set
    may be under-sampled at the configured number of restarts.  An empty
    list is a valid outcome.
    """
    cfg = cfg or SolveConfig()
    if system.size == 0:
        return []
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    X0 = np.array([_sample(np.random.default_rng(s), system.size) for s in seeds])
    X, fnorm, status = _solve_rows(system, X0)

    rows = np.flatnonzero(status == CONVERGED)
    points = np.concatenate((X[rows], np.ones((len(rows), 1))), axis=1)
    rows = rows[is_essential(system, points, ESSENTIAL_TOL)]
    order = sorted(rows, key=lambda i: (fnorm[i],) + tuple(np.round(X[i].view(float), 6)))
    return [Solution(system.assignment_from_vector(X[i]), float(fnorm[i])) for i in order]
