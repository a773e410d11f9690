"""Multistart damped Newton search for solutions of the pinned systems.

Restarts draw starting points from an annulus, one per child of the
configured seed, and run as the rows of one lockstep Newton iteration:
every iteration evaluates the Jacobians of all live rows in one call,
solves them as a stack, and runs a backtracking line search on the
residual norm with per-row rules.

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
SolveError.  Converged rows are deduplicated and only essential solutions
(essential_margin, the distance of every dilogarithm argument from 0, 1
and infinity, at least essential_tol) are kept.  Every row's
arithmetic is independent of the other rows in the block, so the same
seed gives the same solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .diagram import Label
from .equations import EquationSystem, EvaluationError
from .potential import Assignment

# Rows per residual or Jacobian call; line-search candidates count one row
# each.  Bounds the working memory independently of the number of restarts.
BLOCK_ROWS = 256

# Tikhonov weight lam of the Gauss-Newton step, relative to
# ||J||_F^2 = trace(J^H J): J^H J + lam I is invertible wherever J != 0.
REGULARISATION = 1e-10

# Backtracking step lengths tried after a rejected full step, in stages:
# 1/2 .. 1/8, then 1/16 .. 2^-29 for the rows that rejected all of those.
# About 90% of accepted steps have t >= 1/8, so the long tail is rare.
_BACKTRACK = (0.5 ** np.arange(1, 4), 0.5 ** np.arange(4, 30))

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
    MAX_ITER: "no convergence after {max_iter} iterations (residual {fnorm:.3e})",
}


class SolveError(RuntimeError):
    """Raised by refine() when Newton fails to converge."""


@dataclass(frozen=True)
class SolveConfig:
    restarts: int = 512
    max_iter: int = 200
    residual_tol: float = 1e-12
    dedupe_tol: float = 1e-8
    # Cut-off of essential_margin.  The regularised step also converges
    # onto points near the non-essential boundary, where the region/side
    # bridge can fail (5_2 W at seeds 2 and 3 with a cut of 1e-6 or 1e-4);
    # the closed-form twist points have margins of at least 1.1e-2.
    essential_tol: float = 1e-3
    seed: int = 0
    radius_min: float = 0.1
    radius_max: float = 10.0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iter < 1:
            raise ValueError("restarts and max_iter must be at least 1")
        if min(self.residual_tol, self.dedupe_tol, self.essential_tol) <= 0:
            raise ValueError("tolerances must be positive")
        if self.residual_tol >= self.dedupe_tol:
            raise ValueError("residual_tol must be below dedupe_tol")
        if not (0 < self.radius_min < self.radius_max):
            raise ValueError("invalid sampling annulus")


@dataclass(frozen=True)
class Solution:
    assignment: dict[Label, complex]
    residual_norm: float
    essential: bool
    component_hint: int = -1

    def vector(self, order: Sequence[Label]) -> np.ndarray:
        return np.array([self.assignment[v] for v in order], dtype=complex)


def _blocks(fn, X: np.ndarray) -> np.ndarray:
    """fn over the rows of X, BLOCK_ROWS rows per call."""
    if len(X) <= BLOCK_ROWS:
        return fn(X)
    return np.concatenate([fn(X[i:i + BLOCK_ROWS]) for i in range(0, len(X), BLOCK_ROWS)])


def _norms(F: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row (last axis) of a contiguous complex array;
    an overflowing or non-finite row gives inf or nan, which compares below
    no residual norm."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(np.square(F.view(float)).sum(axis=-1))


def _steps(J: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Regularised Gauss-Newton steps -(J^H J + lam I)^-1 J^H F of a stack of
    rows, lam = REGULARISATION * ||J||_F^2, and which rows are singular."""
    JH = J.conj().swapaxes(-1, -2)
    A = JH @ J
    diag = np.einsum("...ii->...i", A)
    diag += REGULARISATION * diag.real.sum(axis=-1, keepdims=True)
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


def _line_search(system: EquationSystem, x: np.ndarray, step: np.ndarray,
                 fnorm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per row, the first x + t*step, t = 1, 1/2, ..., 2^-29, whose residual
    norm is below fnorm.  Returns (accepted, x, F, norm) for the new points.

    t = 1 is evaluated for every row, then each stage of _BACKTRACK for the
    rows that rejected every earlier length, all lengths of a stage in one
    call; the first accepted length is the same as in a sequential search.
    """
    cand = x + step
    F = _blocks(system.residual_vector, cand)
    cnorm = _norms(F)
    accepted = cnorm < fnorm
    for lengths in _BACKTRACK:
        rejected = np.flatnonzero(~accepted)
        per_call = max(1, BLOCK_ROWS // len(lengths))
        for i in range(0, len(rejected), per_call):
            rows = rejected[i:i + per_call]
            shorter = x[rows, None, :] + lengths[:, None] * step[rows, None, :]
            Fs = system.residual_vector(shorter.reshape(-1, x.shape[1])).reshape(
                shorter.shape[:2] + (F.shape[1],))
            norms = _norms(Fs)
            ok = norms < fnorm[rows, None]
            found = ok.any(axis=1)
            first = ok.argmax(axis=1)[found]
            rows = rows[found]
            cand[rows] = shorter[found, first]
            F[rows] = Fs[found, first]
            cnorm[rows] = norms[found, first]
            accepted[rows] = True
    return accepted, cand, F, cnorm


def _newton(system: EquationSystem, X0: np.ndarray, cfg: SolveConfig
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep damped Newton from every row of X0 (rows, n).

    Returns the last iterate, its residual norm and the status code of
    every row.  The per-row rules: the step is capped at 1 + |x|, the line
    search takes the first halving with a smaller residual norm, 20 slow
    steps (ratio > 0.9) above 1e-6 are stagnation, and a residual or
    coordinate beyond 1e12 or a coordinate below 1e-12 is divergence.
    """
    X = np.array(X0, dtype=complex)
    F = _blocks(system.residual_vector, X)
    fnorm = _norms(F)
    status = np.full(len(X), RUNNING)
    status[fnorm <= cfg.residual_tol] = CONVERGED
    status[~np.isfinite(fnorm)] = LEFT_DOMAIN
    slow = np.zeros(len(X), dtype=int)
    live = np.flatnonzero(status == RUNNING)
    for _ in range(cfg.max_iter):
        if not live.size:
            break
        x, fn = X[live], fnorm[live]
        step, singular = _steps(_blocks(system.jacobian, x), F[live])
        bad_step = ~np.isfinite(step.view(float)).all(axis=-1) & ~singular
        status[live[singular]] = SINGULAR
        status[live[bad_step]] = NONFINITE_STEP
        keep = ~(singular | bad_step)
        if not keep.all():
            live, x, fn, step = live[keep], x[keep], fn[keep], step[keep]
        # Cap the step length relative to the iterate; wild early jumps
        # throw restarts out of every basin.
        step_len = _norms(step)
        max_len = 1.0 + _norms(x)
        over = step_len > max_len
        step[over] *= (max_len[over] / step_len[over])[:, None]

        accepted, x, Fx, fx = _line_search(system, x, step, fn)
        status[live[~accepted]] = STALLED
        live, x, Fx, fx, ratio = (live[accepted], x[accepted], Fx[accepted], fx[accepted],
                                  fx[accepted] / fn[accepted])
        X[live], F[live], fnorm[live] = x, Fx, fx
        converged = fx <= cfg.residual_tol
        # A Newton basin shows fast decrease; persistent crawling means the
        # restart is wandering and is cheaper to abandon than to ride out.
        slow[live] = np.where(ratio > 0.9, slow[live] + 1, 0)
        stagnant = ~converged & (slow[live] >= 20) & (fx > 1e-6)
        ax = np.abs(x)
        diverged = (~converged & ~stagnant
                    & ((fx > 1e12) | (ax.max(axis=-1) > 1e12) | (ax.min(axis=-1) < 1e-12)))
        status[live[converged]] = CONVERGED
        status[live[stagnant]] = STAGNATION
        status[live[diverged]] = DIVERGED
        live = live[~(converged | stagnant | diverged)]
    status[live] = MAX_ITER
    return X, fnorm, status


def _failure(system: EquationSystem, x: np.ndarray, fnorm: float, code: int,
             cfg: SolveConfig) -> SolveError:
    message = _FAILURES[code].format(fnorm=fnorm, max_iter=cfg.max_iter)
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

    Raises SolveError on divergence, singular Jacobians, or when the limit
    is not essential.
    """
    cfg = cfg or SolveConfig()
    pin_value = complex(a[system.pin])
    if pin_value == 0:
        raise SolveError("pinned variable is zero")
    # Rescale so the pinned variable sits at 1 (the scaling quotient).
    scaled = {v: complex(val) / pin_value for v, val in a.items()}
    X, fnorm, status = _newton(system, system.vector_from_assignment(scaled)[None, :], cfg)
    if status[0] != CONVERGED:
        raise _failure(system, X[0], float(fnorm[0]), status[0], cfg)
    assignment = system.assignment_from_vector(X[0])
    if not is_essential(system, assignment, cfg.essential_tol):
        raise SolveError("converged to a non-essential point")
    return Solution(assignment, float(fnorm[0]), True)


def _sample(rng: np.random.Generator, size: int, cfg: SolveConfig) -> np.ndarray:
    radius = np.exp(rng.uniform(np.log(cfg.radius_min), np.log(cfg.radius_max), size))
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
    X0 = np.array([_sample(np.random.default_rng(s), system.size, cfg) for s in seeds])
    X, fnorm, status = _newton(system, X0, cfg)

    rows = np.flatnonzero(status == CONVERGED)
    points = np.concatenate((X[rows], np.ones((len(rows), 1))), axis=1)
    rows = rows[is_essential(system, points, cfg.essential_tol)]
    hits = [(X[i], float(fnorm[i])) for i in rows]
    if not hits:
        return []
    # Deterministic merge order, then greedy clustering by max coordinate distance.
    hits.sort(key=lambda h: (h[1],) + tuple(np.round(h[0].view(float), 6)))
    clusters: list[list[tuple[np.ndarray, float]]] = []
    for x, fn in hits:
        for cluster in clusters:
            if np.max(np.abs(cluster[0][0] - x)) < cfg.dedupe_tol:
                cluster.append((x, fn))
                break
        else:
            clusters.append([(x, fn)])
    solutions = []
    for idx, cluster in enumerate(clusters):
        x, fn = min(cluster, key=lambda h: h[1])
        solutions.append(Solution(system.assignment_from_vector(x), fn, True, component_hint=idx))
    solutions.sort(key=lambda s: s.residual_norm)
    solutions = [replace(s, component_hint=i) for i, s in enumerate(solutions)]
    return solutions
