"""Corrected potential values at solutions: volume and Chern-Simons data.

At a solution every mu_k = w_k dW/dw_k lies in 2*pi*i*Z.  The corrected
value

    raw = W(w) - sum_k mu_k log(w_k)

is then well defined up to real shifts (multiples of pi^2 depending on the
normalization), so its imaginary part is the hyperbolic volume on the
nose, while the Chern-Simons part -Re(raw) is reported reduced into
(-pi^2/2, pi^2/2].  The mu_k are snapped to exact integer multiples of
2*pi*i before the correction to suppress O(residual) noise.

W, the mu_k, the snapping and the correction come from one array pass of
the potential's compiled system over one gather of monomial values
(EquationSystem.corrected_value), for one solution or for a batch
(w0_batch); a batch row equals the single-solution result.

An independent volume cross-check sums the Bloch-Wigner function over the
five tetrahedra of each crossing octahedron, with the two
negatively-oriented tetrahedra folded through D(1/u) = -D(u); all shapes
of all crossings go through one bloch_wigner call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diagram import LinkDiagram
from .equations import EvaluationError, build_system, row_sums
from .numerics import PI2, bloch_wigner, reduce_centered
from .potential import Assignment, Potential
from .solver import Solution


@dataclass(frozen=True)
class OptimisticResult:
    w0: complex                  # canonical representative: -cs_mod_pi2 + i*vol
    vol: float                   # Im(raw), exact under rescaling and branch changes
    cs_mod_pi2: float            # -Re(raw) reduced into (-pi^2/2, pi^2/2]
    raw: complex                 # unreduced principal-branch value
    bw_vol: float | None         # Bloch-Wigner cross-check (region potentials only)
    mu_integers: tuple[int, ...]


def _assignment(solution: Solution | Assignment) -> Assignment:
    return solution.assignment if isinstance(solution, Solution) else solution


def w0(potential: Potential, solution: Solution | Assignment,
       diagram: LinkDiagram | None = None,
       mu_tol: float = 1e-6) -> OptimisticResult:
    """Corrected potential value at a solution.

    Accepts either a Solution or a bare assignment.  When the diagram is
    supplied and the potential is a region potential, the Bloch-Wigner
    volume is computed as a cross-check.  W and the mu_k come from one
    pass of the potential's own system (build_system), compiled on its
    first use.
    """
    return w0_batch(potential, [solution], diagram, mu_tol)[0]


def w0_batch(potential: Potential, solutions: Sequence[Solution | Assignment],
             diagram: LinkDiagram | None = None,
             mu_tol: float = 1e-6) -> list[OptimisticResult]:
    """w0 at every solution, with one array pass over all of them.

    Each result equals the one w0 gives for that solution alone.
    """
    points = [_assignment(s) for s in solutions]
    if not points:
        return []
    system = build_system(potential)
    w = np.array([system.point_from_assignment(a) for a in points])
    raw, mu_integers = system.corrected_value(w, mu_tol)
    bw = [None] * len(points)
    if diagram is not None and potential.kind == "W":
        bw = _bw_volumes(diagram, points).tolist()
    results = []
    for r, k, b in zip(raw.tolist(), mu_integers.tolist(), bw):
        cs = reduce_centered(-r.real, PI2)
        results.append(OptimisticResult(w0=complex(-cs, r.imag), vol=r.imag, cs_mod_pi2=cs,
                                        raw=r, bw_vol=b, mu_integers=tuple(k)))
    return results


# Signs of the five tetrahedron volumes of a crossing octahedron, in the
# order of the shapes formed in _bw_volumes.
_BW_SIGNS = np.array([1.0, 1.0, -1.0, -1.0, 1.0])[:, None, None]


def _bw_volumes(diagram: LinkDiagram, points: Sequence[Assignment]) -> np.ndarray:
    """The Bloch-Wigner sum at every point, all 5 * crossings shapes of all
    points in one bloch_wigner call."""
    corners, signs = diagram._region_corners
    w = np.array([[a[r] for r in diagram.regions] for a in points], dtype=complex)
    if np.count_nonzero(w) != w.size:
        raise EvaluationError("zero region value")
    wj, wk, wl, wm = w.T[corners]                  # (crossings, points) each
    shapes = np.array((wm / wj, wk / wj, wl / wk, wl / wm, wj * wl / (wk * wm)))
    try:
        volumes = bloch_wigner(shapes) * _BW_SIGNS
    except ValueError as exc:
        bad = ~np.isfinite(shapes) | (shapes == 0.0) | (shapes == 1.0)
        cr = diagram.crossings[np.argwhere(bad)[0][1]]
        raise EvaluationError(f"degenerate shape at crossing {cr.regions}: {exc}") from exc
    # The five shapes are summed in order, then the crossings by row_sums.
    return row_sums((volumes.sum(axis=0) * signs[:, None]).T)


def bw_volume(diagram: LinkDiagram, solution: Solution | Assignment) -> float:
    """Signed Bloch-Wigner sum over the crossing octahedra.

    Each crossing contributes its five tetrahedron volumes

        D(wm/wj) + D(wk/wj) - D(wl/wk) - D(wl/wm) + D(wj*wl/(wk*wm))

    multiplied by the crossing sign.
    """
    return float(_bw_volumes(diagram, [_assignment(solution)])[0])


def mod_eq(a: complex, b: complex, modulus: float, tol: float) -> bool:
    """Equality of complex values modulo real shifts by the given modulus.

    Imaginary parts must agree within tol; the real difference must be
    within tol of an integer multiple of the modulus.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    a, b = complex(a), complex(b)
    if abs(a.imag - b.imag) > tol:
        return False
    shift = (a.real - b.real) / modulus
    return abs(shift - round(shift)) * modulus <= tol
