"""Corrected potential values at solutions: volume and Chern-Simons data.

At a solution every mu_k = w_k dW/dw_k lies in 2*pi*i*Z.  The corrected
value

    raw = W(w) - sum_k mu_k log(w_k)

is then well defined up to real shifts (multiples of pi^2 depending on the
normalization), so its imaginary part is the hyperbolic volume on the
nose, while the Chern-Simons part -Re(raw) is reported reduced into
(-pi^2/2, pi^2/2].  The mu_k are snapped to exact integer multiples of
2*pi*i before the correction to suppress O(residual) noise.

An independent volume cross-check sums the Bloch-Wigner function over the
five tetrahedra of each crossing octahedron, with the two
negatively-oriented tetrahedra folded through D(1/u) = -D(u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagram import LinkDiagram
from .equations import EvaluationError, build_system, mu_integer_multipliers
from .numerics import PI2, bloch_wigner, plog, reduce_centered
from .potential import Assignment, Potential, evaluate
from .solver import Solution


@dataclass(frozen=True)
class OptimisticResult:
    w0: complex                  # canonical representative: -cs_mod_pi2 + i*vol
    vol: float                   # Im(raw), exact under rescaling and branch changes
    cs_mod_pi2: float            # -Re(raw) reduced into (-pi^2/2, pi^2/2]
    raw: complex                 # unreduced principal-branch value
    bw_vol: float | None         # Bloch-Wigner cross-check (region potentials only)
    mu_integers: tuple[int, ...]


def w0(potential: Potential, solution: Solution | Assignment,
       diagram: LinkDiagram | None = None,
       mu_tol: float = 1e-6) -> OptimisticResult:
    """Corrected potential value at a solution.

    Accepts either a Solution or a bare assignment.  When the diagram is
    supplied and the potential is a region potential, the Bloch-Wigner
    volume is computed as a cross-check.  The mu_k come from the
    potential's own system (build_system), compiled on its first use.
    """
    a = solution.assignment if isinstance(solution, Solution) else solution
    multipliers = mu_integer_multipliers(build_system(potential), a, tol=mu_tol)
    correction = sum(
        (2j * math.pi * multipliers[v]) * plog(a[v]) for v in potential.variables
    )
    raw = evaluate(potential, a) - correction
    vol = raw.imag
    cs = reduce_centered(-raw.real, PI2)
    bw = None
    if diagram is not None and potential.kind == "W":
        bw = bw_volume(diagram, a)
    return OptimisticResult(
        w0=complex(-cs, vol),
        vol=vol,
        cs_mod_pi2=cs,
        raw=raw,
        bw_vol=bw,
        mu_integers=tuple(multipliers[v] for v in potential.variables),
    )


def bw_volume(diagram: LinkDiagram, solution: Solution | Assignment) -> float:
    """Signed Bloch-Wigner sum over the crossing octahedra.

    Each crossing contributes its five tetrahedron volumes

        D(wm/wj) + D(wk/wj) - D(wl/wk) - D(wl/wm) + D(wj*wl/(wk*wm))

    multiplied by the crossing sign.
    """
    a = solution.assignment if isinstance(solution, Solution) else solution
    total = 0.0
    for cr in diagram.crossings:
        wj, wk, wl, wm = (complex(a[r]) for r in cr.regions)
        if 0 in (wj, wk, wl, wm):
            raise EvaluationError("zero region value")
        try:
            total += cr.sign * (
                bloch_wigner(wm / wj)
                + bloch_wigner(wk / wj)
                - bloch_wigner(wl / wk)
                - bloch_wigner(wl / wm)
                + bloch_wigner(wj * wl / (wk * wm))
            )
        except ValueError as exc:
            raise EvaluationError(f"degenerate shape at crossing {cr.regions}: {exc}") from exc
    return total


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
