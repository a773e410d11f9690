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
(EquationSystem.corrected_value), over w0's one point or the rows of
w0_batch's array; one helper builds the results of both, so a batch row
equals the single-solution result bit for bit.

The volume cross-check sums the Bloch-Wigner function D over the five
tetrahedra of each crossing octahedron, with the two negatively-oriented
tetrahedra folded through D(1/u) = -D(u).  For a region potential those
five shapes, with their signs, are the crossing's five Li2 arguments, so
every W0 of a region potential carries bw_vol = sum_t s_t D(m_t) over
W's own Li2 terms, read from the Li2 arguments and li2 values that W0
already holds, by the one numerics formula for D.  bw_volume takes the
same sum through the region potential's system, so bw_vol equals
bw_volume bit for bit.  At its flipped point a sign-flipped region
potential has the base potential's Li2 arguments, so its bw_vol is the
base value: to the bit when only signs tau flip, to rounding when some
exponent eps is -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diagram import LinkDiagram
from .equations import build_system
from .numerics import PI2, reduce_centered
from .potential import Assignment, Potential, assemble_W
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


def w0(potential: Potential, solution: Solution | Assignment, *,
       diagram: LinkDiagram | None = None) -> OptimisticResult:
    """Corrected potential value at a solution.

    Accepts either a Solution or a bare assignment.  W and the mu_k come
    from one pass of the potential's own system (build_system), compiled on
    its first use, over the one point; for a region potential the same
    pass gives the Bloch-Wigner volume.  A diagram, if given, must be the
    one the potential's variables are the regions of (ValueError
    otherwise); it changes nothing else.
    """
    if diagram is not None and diagram.regions != potential.variables:
        raise ValueError("the diagram's regions are not the potential's variables")
    system = build_system(potential)
    raw, k, bw = system.corrected_value(system.point_from_assignment(_assignment(solution)))
    return _result(raw.item(), k.tolist(), None if bw is None else bw.item())


def w0_batch(potential: Potential, solutions: Sequence[Solution | Assignment]
             ) -> list[OptimisticResult]:
    """w0 at every solution, with one array pass over all of them.

    Each result equals the one w0 gives for that solution alone.
    """
    points = [_assignment(s) for s in solutions]
    if not points:
        return []
    system = build_system(potential)
    w = np.array([system.point_from_assignment(a) for a in points])
    raw, mu_integers, bw = system.corrected_value(w)
    bw = [None] * len(points) if bw is None else bw.tolist()
    return [_result(*row) for row in zip(raw.tolist(), mu_integers.tolist(), bw)]


def _result(raw: complex, mu_integers: list[int], bw_vol: float | None) -> OptimisticResult:
    """The result of one point's raw value, mu integers and Bloch-Wigner sum."""
    cs = reduce_centered(-raw.real, PI2)
    return OptimisticResult(w0=complex(-cs, raw.imag), vol=raw.imag, cs_mod_pi2=cs, raw=raw,
                            bw_vol=bw_vol, mu_integers=tuple(mu_integers))


def bw_volume(diagram: LinkDiagram, solution: Solution | Assignment) -> float:
    """Signed Bloch-Wigner sum over the crossing octahedra.

    Each crossing contributes its five tetrahedron volumes

        D(wm/wj) + D(wk/wj) - D(wl/wk) - D(wl/wm) + D(wj*wl/(wk*wm))

    multiplied by the crossing sign: the Li2 terms of the region potential
    with D in place of Li2, read through its system
    (EquationSystem.bloch_wigner_volume), as w0's bw_vol is.
    """
    system = build_system(assemble_W(diagram))
    return float(system.bloch_wigner_volume(system.point_from_assignment(_assignment(solution))))


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
