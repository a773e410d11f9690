"""Bridge between region solutions and side solutions of the same diagram.

Each crossing octahedron carries two shape-parameter systems: the five
tetrahedra seen by the region potential and the four seen by the side
potential.  With u' = 1/(1-u) and u'' = 1 - 1/u, the side ratios follow
from the region ratios and vice versa.  Positive crossings use

    zb/za = (wm/wj)'' (wk/wj)'' (q)'        q = wj*wl/(wk*wm)
    zc/zb = (wk/wj)'  (wk/wl)'  (q)''
    zd/zc = (wk/wl)'' (wm/wl)'' (q)'
    za/zd = (wm/wl)'  (wm/wj)'  (q)''

with inverses

    wm/wj = (zb/za)' (za/zd)''      wk/wj = (zb/za)' (zc/zb)''
    wk/wl = (zd/zc)' (zc/zb)''      wm/wl = (zd/zc)' (za/zd)''
    q     = (za/zb)'' (zb/zc)' (zc/zd)'' (zd/za)'

and negative crossings the analogous relations with primed and
double-primed roles exchanged.  Values propagate along a spanning tree of
the side (resp. region) adjacency graph; non-tree constraints are checked,
so inconsistent inputs are rejected rather than silently projected.  The
converted point, scaled so that the pin is 1, must then satisfy the other
potential's system: its residual_vector, the solver's residual.  A
crossing whose ratios make some u' or u'' undefined (u = 1) is rejected.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .diagram import Crossing, Label, LinkDiagram
from .equations import _FlippedTerms, attach_system, build_system
from .numerics import PI2
from .optimistic import OptimisticResult, mod_eq, w0
from .potential import Assignment, EvaluationError, Potential, assemble_V, assemble_W
from .solver import Solution, _norms


# The bridge's tolerance: the non-tree ratio constraints and 4-corner ratios
# are checked to it relatively, the converted point's residual and the
# W0 = V0 mod 4 pi^2 congruence absolutely.  Two more checks have their own
# fixed 1e-10: w_to_z's cyclic ratio product at each crossing (absolutely),
# and check_w_nondegenerate / check_z_nondegenerate (relatively).
BRIDGE_TOL = 1e-9


class CorrespondenceError(ValueError):
    """Degenerate crossing data or inconsistent ratio constraints."""


def _values(a: Assignment, labels) -> tuple[complex, ...]:
    try:
        return tuple(map(complex, map(a.__getitem__, labels)))
    except KeyError as exc:
        raise EvaluationError(f"variable {exc.args[0]!r} not assigned") from None


# ---------------------------------------------------------------------------
# Nondegeneracy


def check_w_nondegenerate(diagram: LinkDiagram, a: Assignment, tol: float = 1e-10) -> bool:
    """True when wj + wl != wk + wm at every crossing (relative tolerance)."""
    for cr in diagram.crossings:
        wj, wk, wl, wm = _values(a, cr.regions)
        scale = max(abs(wj), abs(wk), abs(wl), abs(wm), 1.0)
        if abs((wj + wl) - (wk + wm)) <= tol * scale:
            return False
    return True


def check_z_nondegenerate(diagram: LinkDiagram, a: Assignment, tol: float = 1e-10) -> bool:
    """True when za != zc and zb != zd at every crossing."""
    for cr in diagram.crossings:
        za, zb, zc, zd = _values(a, cr.sides)
        scale = max(abs(za), abs(zb), abs(zc), abs(zd), 1.0)
        if abs(za - zc) <= tol * scale or abs(zb - zd) <= tol * scale:
            return False
    return True


# ---------------------------------------------------------------------------
# Per-crossing ratio data


def side_ratios_from_w(crossing: Crossing, a: Assignment) -> tuple[complex, complex, complex, complex]:
    """(zb/za, zc/zb, zd/zc, za/zd) determined by the region values."""
    wj, wk, wl, wm = _values(a, crossing.regions)
    if 0 in (wj, wk, wl, wm):
        raise CorrespondenceError("zero region value")
    # u' = 1/(1-u), u'' = 1 - 1/u; a negative crossing exchanges their roles.
    try:
        if crossing.sign > 0:
            u = (wm / wj, wk / wj, wk / wl, wm / wl, wj * wl / (wk * wm))
        else:
            u = (wj / wm, wj / wk, wl / wk, wl / wm, wk * wm / (wj * wl))
        p = [1.0 / (1.0 - x) for x in u]
        pp = [1.0 - 1.0 / x for x in u]
    except ZeroDivisionError:
        raise CorrespondenceError(
            f"degenerate crossing {crossing.regions}: a region ratio equals 1") from None
    if crossing.sign < 0:
        p, pp = pp, p
    return (pp[0] * pp[1] * p[4], p[1] * p[2] * pp[4],
            pp[2] * pp[3] * p[4], p[3] * p[0] * pp[4])


def region_ratios_from_z(crossing: Crossing, a: Assignment):
    """Pairwise region ratios and the 4-corner ratio from the side values.

    Returns (pairs, quad) with pairs = [((num, den), value), ...] giving
    wm/wj-style ratios and quad the value of wj*wl/(wk*wm) (positive sign)
    or wk*wm/(wj*wl) (negative sign).
    """
    za, zb, zc, zd = _values(a, crossing.sides)
    j, k, l, m = crossing.regions
    if 0 in (za, zb, zc, zd):
        raise CorrespondenceError("zero side value")
    # u' = 1/(1-u) and u'' = 1 - 1/u of the side ratios each relation reads.
    try:
        if crossing.sign > 0:
            p_ba, p_dc = 1.0 / (1.0 - zb / za), 1.0 / (1.0 - zd / zc)
            pp_cb, pp_ad = 1.0 - 1.0 / (zc / zb), 1.0 - 1.0 / (za / zd)
            pairs = [((m, j), p_ba * pp_ad), ((k, j), p_ba * pp_cb),
                     ((k, l), p_dc * pp_cb), ((m, l), p_dc * pp_ad)]
            quad = ((1.0 - 1.0 / (za / zb)) * (1.0 / (1.0 - zb / zc))
                    * (1.0 - 1.0 / (zc / zd)) * (1.0 / (1.0 - zd / za)))
        else:
            p_ad, p_cb = 1.0 / (1.0 - za / zd), 1.0 / (1.0 - zc / zb)
            pp_ba, pp_dc = 1.0 - 1.0 / (zb / za), 1.0 - 1.0 / (zd / zc)
            pairs = [((j, m), p_ad * pp_ba), ((j, k), p_cb * pp_ba),
                     ((l, k), p_cb * pp_dc), ((l, m), p_ad * pp_dc)]
            quad = ((1.0 / (1.0 - za / zb)) * (1.0 - 1.0 / (zb / zc))
                    * (1.0 / (1.0 - zc / zd)) * (1.0 - 1.0 / (zd / za)))
    except ZeroDivisionError:
        raise CorrespondenceError(
            f"degenerate crossing {crossing.sides}: a side ratio equals 1") from None
    return pairs, quad


# ---------------------------------------------------------------------------
# Ratio-graph propagation


def _propagate(labels, edges, what: str) -> dict[Label, complex]:
    """Assign values from ratio constraints value[v] = r * value[u], edges
    [(u, v, r), ...], by breadth-first search: every ratio is validated
    first, each component's lowest label (by str) gets 1, neighbours are
    taken in edge order, and every non-tree edge is verified to BRIDGE_TOL,
    relative, when the search reaches it."""
    adj: dict[Label, list[tuple[Label, complex]]] = {lab: [] for lab in labels}
    for u, v, r in edges:
        if r == 0 or not (math.isfinite(r.real) and math.isfinite(r.imag)):
            raise CorrespondenceError(f"degenerate {what} ratio {r!r}")
        adj[u].append((v, r))
        adj[v].append((u, 1.0 / r))
    values: dict[Label, complex] = {}
    for root in sorted(labels, key=str):
        if root in values:
            continue
        values[root] = 1.0 + 0.0j
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, r in adj[u]:
                want = values[u] * r
                if v not in values:
                    values[v] = want
                    queue.append(v)
                elif abs(values[v] - want) > BRIDGE_TOL * max(1.0, abs(want)):
                    raise CorrespondenceError(
                        f"inconsistent {what} constraint at {v!r}: "
                        f"{values[v]} vs {want} (input is not a true solution)")
    return values


def _checked(potential: Potential, values: dict[Label, complex], what: str) -> Solution:
    """The converted values as a Solution, with the residual norm of the
    potential's pinned system at them scaled to pin 1, the solver's
    Euclidean norm; CorrespondenceError when it exceeds BRIDGE_TOL."""
    system = build_system(potential)
    pin = values[system.pin]
    res = system.residual_vector([values[v] / pin for v in system.unknowns])
    with np.errstate(over="ignore"):
        residual_norm = float(_norms(res))
    if residual_norm > BRIDGE_TOL:
        raise CorrespondenceError(
            f"converted {what} values violate the {what} system ({residual_norm:.2e})")
    return Solution(values, residual_norm)


def w_to_z(diagram: LinkDiagram, w: Solution | Assignment) -> Solution:
    """Convert a region solution to the side solution of the same octahedra."""
    a = w.assignment if isinstance(w, Solution) else w
    if diagram.kinked_crossings():
        raise CorrespondenceError("diagram has kinks; no side potential exists")
    if not check_w_nondegenerate(diagram, a):
        raise CorrespondenceError("degenerate crossing: wj + wl = wk + wm")
    edges = []
    for cr in diagram.crossings:
        r = side_ratios_from_w(cr, a)
        cyc = r[0] * r[1] * r[2] * r[3]
        if abs(cyc - 1.0) > 1e-10:
            raise CorrespondenceError(f"cyclic ratio product {cyc} != 1 at crossing {cr.sides}")
        edges.extend(zip(cr.sides, cr.sides[1:] + cr.sides[:1], r))
    return _checked(assemble_V(diagram), _propagate(diagram.sides, edges, "side"), "side")


def z_to_w(diagram: LinkDiagram, z: Solution | Assignment) -> Solution:
    """Convert a side solution to the region solution of the same octahedra."""
    a = z.assignment if isinstance(z, Solution) else z
    if not check_z_nondegenerate(diagram, a):
        raise CorrespondenceError("degenerate crossing: za = zc or zb = zd")
    edges, quads = [], []
    for cr in diagram.crossings:
        pairs, quad = region_ratios_from_z(cr, a)
        edges.extend((den, num, val) for (num, den), val in pairs)
        quads.append(quad)
    values = _propagate(diagram.regions, edges, "region")
    for cr, quad in zip(diagram.crossings, quads):
        wj, wk, wl, wm = _values(values, cr.regions)
        want = wj * wl / (wk * wm) if cr.sign > 0 else wk * wm / (wj * wl)
        if abs(want - quad) > BRIDGE_TOL * max(1.0, abs(quad)):
            raise CorrespondenceError("inconsistent 4-corner ratio (input is not a true solution)")
    return _checked(assemble_W(diagram), values, "region")


# ---------------------------------------------------------------------------
# The region/side congruence


@dataclass(frozen=True)
class BridgeReport:
    z: Solution
    w0_region: OptimisticResult
    v0_side: OptimisticResult
    congruent_mod_4pi2: bool


def verify_bridge(diagram: LinkDiagram, w: Solution | Assignment) -> BridgeReport:
    """Convert w to z and check W0(w) == V0(z) mod 4 pi^2, to BRIDGE_TOL.

    W0 is that of assemble_W(diagram), the region potential and system
    that solve, the twist table and the sign flips of `optlim verify`
    evaluate.  Representation-level equality of the two sides is accepted
    by construction and not checked.
    """
    a = w.assignment if isinstance(w, Solution) else w
    z = w_to_z(diagram, a)
    res_w = w0(assemble_W(diagram), a)
    res_v = w0(assemble_V(diagram), z.assignment)
    ok = mod_eq(res_w.raw, res_v.raw, 4.0 * PI2, BRIDGE_TOL)
    return BridgeReport(z=z, w0_region=res_w, v0_side=res_v, congruent_mod_4pi2=ok)


# ---------------------------------------------------------------------------
# Sign flips of the variables


def _normalize_signs(potential: Potential, values) -> list:
    """A dict over the variables or a sequence in potential.variables order
    as a list in that order; ValueError unless every value is +-1."""
    if isinstance(values, dict):
        out = [values.get(v) for v in potential.variables]
    else:
        out = list(values)
        if len(out) != len(potential.variables):
            raise ValueError("sign vector length mismatch")
    for v, s in zip(potential.variables, out):
        if s not in (-1, 1):
            raise ValueError(f"sign for {v!r} must be +-1")
    return out


def sign_flip(potential: Potential, taus, epsilons) -> Potential:
    """Substituted potential with each variable w replaced by tau * w^eps.

    taus and epsilons are dicts over the variables or sequences in
    potential.variables order, every value +-1.  The result carries its
    equation system, derived from the base potential's
    (EquationSystem.sign_flipped) instead of compiled: the base system's
    arrays times the signs.  Its terms are spelled out the first time they
    are read; w0 reads only the arrays.
    """
    taus = _normalize_signs(potential, taus)
    epsilons = _normalize_signs(potential, epsilons)
    system = build_system(potential).sign_flipped(taus, epsilons)
    return attach_system(Potential(_FlippedTerms(potential.terms, system), potential.variables,
                                   potential.kind), system)


def sign_flip_point(potential: Potential, taus, epsilons, a: Assignment) -> dict[Label, complex]:
    """The transformed solution (tau_k w_k^(eps_k)) matching sign_flip;
    EvaluationError when a variable is missing, or is 0 where eps_k = -1."""
    taus = _normalize_signs(potential, taus)
    epsilons = _normalize_signs(potential, epsilons)
    try:
        return {v: t * complex(a[v]) ** e for v, t, e in zip(potential.variables, taus, epsilons)}
    except KeyError as exc:
        raise EvaluationError(f"variable {exc.args[0]!r} not assigned") from None
    except ZeroDivisionError:
        raise EvaluationError("zero variable value") from None
