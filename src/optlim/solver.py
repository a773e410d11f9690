"""Multistart damped Newton search for solutions of the pinned systems.

Restarts draw starting points from an annulus, iterate Newton with a
backtracking line search on the residual norm, then deduplicate converged
points and keep only essential solutions (no dilogarithm argument near 0,
1 or infinity).  Restarts run one after another, each from its own child
of the configured seed, so the same seed gives the same solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .diagram import Label
from .equations import EquationSystem, EvaluationError
from .potential import Assignment


class SolveError(RuntimeError):
    """Raised by refine() when Newton fails to converge."""


@dataclass(frozen=True)
class SolveConfig:
    restarts: int = 512
    max_iter: int = 200
    residual_tol: float = 1e-12
    dedupe_tol: float = 1e-8
    essential_tol: float = 1e-8
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


def _newton(system: EquationSystem, x0: np.ndarray, cfg: SolveConfig) -> tuple[np.ndarray, float, int]:
    """Damped Newton iteration; returns (x, residual_norm, iterations)."""
    x = np.asarray(x0, dtype=complex).copy()

    def norm_at(pt):
        try:
            with np.errstate(all="ignore"):
                value = float(np.linalg.norm(system.residual_vector(pt)))
            return value if np.isfinite(value) else np.inf
        except (EvaluationError, FloatingPointError, OverflowError):
            return np.inf

    fnorm = norm_at(x)
    if fnorm <= cfg.residual_tol:
        return x, fnorm, 0
    slow = 0
    for it in range(1, cfg.max_iter + 1):
        try:
            with np.errstate(all="ignore"):
                F = system.residual_vector(x)
                J = system.jacobian(x)
        except EvaluationError as exc:
            raise SolveError(f"iterate left the essential domain: {exc}") from exc
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise SolveError("singular Jacobian at iterate") from exc
        if not np.all(np.isfinite(step.view(float))):
            raise SolveError("non-finite Newton step")
        # Cap the step length relative to the iterate; wild early jumps
        # throw restarts out of every basin.
        step_len = float(np.linalg.norm(step))
        max_len = 1.0 + float(np.linalg.norm(x))
        if step_len > max_len:
            step *= max_len / step_len
        t = 1.0
        improved = False
        for _ in range(30):
            cand = x + t * step
            cand_norm = norm_at(cand)
            if cand_norm < fnorm:
                ratio = cand_norm / fnorm
                x, fnorm = cand, cand_norm
                improved = True
                break
            t *= 0.5
        if not improved:
            raise SolveError(f"line search stalled at residual {fnorm:.3e}")
        if fnorm <= cfg.residual_tol:
            return x, fnorm, it
        # A Newton basin shows fast decrease; persistent crawling means the
        # restart is wandering and is cheaper to abandon than to ride out.
        slow = slow + 1 if ratio > 0.9 else 0
        if slow >= 20 and fnorm > 1e-6:
            raise SolveError(f"stagnation at residual {fnorm:.3e}")
        if fnorm > 1e12 or np.max(np.abs(x)) > 1e12 or np.min(np.abs(x)) < 1e-12:
            raise SolveError("divergence")
    raise SolveError(f"no convergence after {cfg.max_iter} iterations (residual {fnorm:.3e})")


def is_essential(system: EquationSystem, a: Assignment, tol: float) -> bool:
    """No dilogarithm argument within tol of {0, 1} or larger than 1/tol."""
    for m in system.potential.dilog_monomials():
        v = m.value(a)
        if abs(v) < tol or abs(v - 1.0) < tol or abs(v) > 1.0 / tol:
            return False
    return True


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
    x0 = system.vector_from_assignment(scaled)
    x, fnorm, _ = _newton(system, x0, cfg)
    assignment = system.assignment_from_vector(x)
    if not is_essential(system, assignment, cfg.essential_tol):
        raise SolveError("converged to a non-essential point")
    return Solution(assignment, fnorm, True)


def _sample(rng: np.random.Generator, size: int, cfg: SolveConfig) -> np.ndarray:
    radius = np.exp(rng.uniform(np.log(cfg.radius_min), np.log(cfg.radius_max), size))
    angle = rng.uniform(-np.pi, np.pi, size)
    return radius * np.exp(1j * angle)


def _run_restart(system: EquationSystem, cfg: SolveConfig, seed_seq) -> tuple[np.ndarray, float] | None:
    rng = np.random.default_rng(seed_seq)
    x0 = _sample(rng, system.size, cfg)
    try:
        x, fnorm, _ = _newton(system, x0, cfg)
    except SolveError:
        return None
    return x, fnorm


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
    raw = [_run_restart(system, cfg, s) for s in seeds]

    hits = [(x, fn) for item in raw if item is not None for x, fn in [item]]
    hits = [(x, fn) for x, fn in hits
            if is_essential(system, system.assignment_from_vector(x), cfg.essential_tol)]
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
