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
so inconsistent inputs are rejected rather than silently projected.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .diagram import Crossing, Label, LinkDiagram
from .equations import build_system
from .numerics import PI2, PI2_OVER_6, bloch_wigner, li2, plog, shape_double_prime, shape_prime
from .optimistic import OptimisticResult, mod_eq, w0
from .potential import Assignment, Potential, assemble_V, assemble_W
from .solver import Solution


# The bridge's one tolerance: the non-tree ratio constraints and 4-corner
# ratios are checked to it relatively, the converted point's residual and the
# W0 = V0 mod 4 pi^2 congruence absolutely.
BRIDGE_TOL = 1e-9


class CorrespondenceError(ValueError):
    """Degenerate crossing data or inconsistent ratio constraints."""


def _values(a: Assignment, labels) -> tuple[complex, ...]:
    return tuple(complex(a[x]) for x in labels)


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
    p, pp = shape_prime, shape_double_prime
    if crossing.sign > 0:
        q = wj * wl / (wk * wm)
        return (
            pp(wm / wj) * pp(wk / wj) * p(q),
            p(wk / wj) * p(wk / wl) * pp(q),
            pp(wk / wl) * pp(wm / wl) * p(q),
            p(wm / wl) * p(wm / wj) * pp(q),
        )
    q = wk * wm / (wj * wl)
    return (
        p(wj / wm) * p(wj / wk) * pp(q),
        pp(wj / wk) * pp(wl / wk) * p(q),
        p(wl / wk) * p(wl / wm) * pp(q),
        pp(wl / wm) * pp(wj / wm) * p(q),
    )


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
    p, pp = shape_prime, shape_double_prime
    if crossing.sign > 0:
        pairs = [
            ((m, j), p(zb / za) * pp(za / zd)),
            ((k, j), p(zb / za) * pp(zc / zb)),
            ((k, l), p(zd / zc) * pp(zc / zb)),
            ((m, l), p(zd / zc) * pp(za / zd)),
        ]
        quad = pp(za / zb) * p(zb / zc) * pp(zc / zd) * p(zd / za)
    else:
        pairs = [
            ((j, m), p(za / zd) * pp(zb / za)),
            ((j, k), p(zc / zb) * pp(zb / za)),
            ((l, k), p(zc / zb) * pp(zd / zc)),
            ((l, m), p(za / zd) * pp(zd / zc)),
        ]
        quad = p(za / zb) * pp(zb / zc) * p(zc / zd) * pp(zd / za)
    return pairs, quad


# ---------------------------------------------------------------------------
# Ratio-graph propagation


def _propagate(labels, edges, what: str) -> dict[Label, complex]:
    """Assign values from ratio constraints value[v] = r * value[u].

    Breadth-first from the lowest label with base value 1; every non-tree
    edge is verified to BRIDGE_TOL, relative.
    """
    adj: dict[Label, list[tuple[Label, complex]]] = {lab: [] for lab in labels}
    for u, v, r in edges:
        if r == 0 or not (math.isfinite(r.real) and math.isfinite(r.imag)):
            raise CorrespondenceError(f"degenerate {what} ratio {r!r}")
        adj[u].append((v, r))
        adj[v].append((u, 1.0 / r))
    order = sorted(labels, key=str)
    values: dict[Label, complex] = {}
    for root in order:
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


def w_to_z(diagram: LinkDiagram, w: Solution | Assignment) -> Solution:
    """Convert a region solution to the side solution of the same octahedra."""
    a = w.assignment if isinstance(w, Solution) else w
    if diagram.kinked_crossings():
        raise CorrespondenceError("diagram has kinks; no side potential exists")
    if not check_w_nondegenerate(diagram, a):
        raise CorrespondenceError("degenerate crossing: wj + wl = wk + wm")
    edges = []
    for cr in diagram.crossings:
        sa, sb, sc, sd = cr.sides
        r_ba, r_cb, r_dc, r_ad = side_ratios_from_w(cr, a)
        cyc = r_ba * r_cb * r_dc * r_ad
        if abs(cyc - 1.0) > 1e-10:
            raise CorrespondenceError(f"cyclic ratio product {cyc} != 1 at crossing {cr.sides}")
        edges.extend([(sa, sb, r_ba), (sb, sc, r_cb), (sc, sd, r_dc), (sd, sa, r_ad)])
    values = _propagate(diagram.sides, edges, "side")
    res = build_system(assemble_V(diagram)).residual(values)
    residual_norm = float(np.max(np.abs(res))) if len(res) else 0.0
    if residual_norm > BRIDGE_TOL:
        raise CorrespondenceError(
            f"converted side values violate the side system ({residual_norm:.2e})")
    return Solution(values, residual_norm)


def z_to_w(diagram: LinkDiagram, z: Solution | Assignment) -> Solution:
    """Convert a side solution to the region solution of the same octahedra."""
    a = z.assignment if isinstance(z, Solution) else z
    if not check_z_nondegenerate(diagram, a):
        raise CorrespondenceError("degenerate crossing: za = zc or zb = zd")
    edges = []
    quads = []
    for cr in diagram.crossings:
        pairs, quad = region_ratios_from_z(cr, a)
        for (num, den), val in pairs:
            edges.append((den, num, val))
        quads.append((cr, quad))
    values = _propagate(diagram.regions, edges, "region")
    for cr, quad in quads:
        wj, wk, wl, wm = _values(values, cr.regions)
        want = wj * wl / (wk * wm) if cr.sign > 0 else wk * wm / (wj * wl)
        if abs(want - quad) > BRIDGE_TOL * max(1.0, abs(quad)):
            raise CorrespondenceError("inconsistent 4-corner ratio (input is not a true solution)")
    res = build_system(assemble_W(diagram)).residual(values)
    residual_norm = float(np.max(np.abs(res))) if len(res) else 0.0
    if residual_norm > BRIDGE_TOL:
        raise CorrespondenceError(
            f"converted region values violate the region system ({residual_norm:.2e})")
    return Solution(values, residual_norm)


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
    (EquationSystem.sign_flipped) instead of compiled.  Its terms come from
    the base system's flip table: one array pass keys every monomial by the
    eps of its own variables and its tau parity, and each term is looked up
    under its monomials' keys, so flipped monomials and terms are built once
    per base system and key and shared by every later flip.
    """
    taus = _normalize_signs(potential, taus)
    epsilons = _normalize_signs(potential, epsilons)
    return build_system(potential).sign_flipped(taus, epsilons).potential


def sign_flip_point(potential: Potential, taus, epsilons, a: Assignment) -> dict[Label, complex]:
    """The transformed solution (tau_k w_k^(eps_k)) matching sign_flip."""
    taus = _normalize_signs(potential, taus)
    epsilons = _normalize_signs(potential, epsilons)
    return {v: t * complex(a[v]) ** e for v, t, e in zip(potential.variables, taus, epsilons)}


# ---------------------------------------------------------------------------
# Octahedron shape identities


@dataclass(frozen=True)
class OctahedronReport:
    u: tuple[complex, complex, complex, complex, complex]
    identity1_defect: float      # distance of identity 1 from 0 mod 4 pi^2
    identity2_defect: float
    volume_defect: float         # D additivity defect


def _mod4pi2_defect(delta: complex) -> float:
    shift = delta.real / (4.0 * PI2)
    return abs(delta.imag) + abs(shift - round(shift)) * 4.0 * PI2


def check_octahedron_identities(t1: complex, t2: complex, t3: complex, t4: complex,
                           tol_degenerate: float = 1e-8) -> OctahedronReport:
    """Check the two dilogarithm identities tying the four-term and
    five-term shape parameters of one octahedron, and the volume additivity
    D(t1)+..+D(t4) = D(u1)+..+D(u5).

    The horizontal shapes must satisfy t1*t2*t3*t4 = 1 (closure around the
    central axis); all nine shapes must avoid {0, 1}.
    """
    t = tuple(complex(x) for x in (t1, t2, t3, t4))
    prod = t[0] * t[1] * t[2] * t[3]
    if abs(prod - 1.0) > 1e-8:
        raise CorrespondenceError(f"t1*t2*t3*t4 = {prod}, expected 1: not an octahedron")
    p, pp = shape_prime, shape_double_prime
    t1, t2, t3, t4 = t
    for x in t:
        if abs(x) < tol_degenerate or abs(x - 1.0) < tol_degenerate:
            raise CorrespondenceError(f"degenerate horizontal shape {x}")
    u1 = p(t1) * pp(t4)
    u2 = p(t1) * pp(t2)
    u3 = p(t3) * pp(t2)
    u4 = p(t3) * pp(t4)
    u5 = 1.0 / (p(t1) * pp(t2) * p(t3) * pp(t4))
    for x in (u1, u2, u3, u4, u5):
        if abs(x) < tol_degenerate or abs(x - 1.0) < tol_degenerate:
            raise CorrespondenceError(f"degenerate derived shape {x}")

    L, L1 = plog, lambda zz: plog(1.0 - zz)
    lhs = li2(t1) - li2(1.0 / t2) + li2(t3) - li2(1.0 / t4)
    a14 = -L1(t1) + L1(1.0 / t4)
    a12 = -L1(t1) + L1(1.0 / t2)
    a32 = -L1(t3) + L1(1.0 / t2)
    a34 = -L1(t3) + L1(1.0 / t4)
    tele = L1(t1) - L1(1.0 / t2) + L1(t3) - L1(1.0 / t4)

    rhs1 = (li2(u1) + li2(u2) - li2(1.0 / u3) - li2(1.0 / u4) + li2(u5)
            - PI2_OVER_6 + L(u1) * L(u2)
            - a14 * L(u2) - a12 * L(u1)
            + a14 * L1(u1) + a12 * L1(u2)
            + a32 * L1(1.0 / u3) + a34 * L1(1.0 / u4)
            + tele * L1(u5))
    rhs2 = (li2(u1) - li2(1.0 / u2) - li2(1.0 / u3) + li2(u4) - li2(1.0 / u5)
            + PI2_OVER_6 - L(u2) * L(u3)
            + a32 * L(u2) + a12 * L(u3)
            + a14 * L1(u1) + a12 * L1(1.0 / u2)
            + a32 * L1(1.0 / u3) + a34 * L1(u4)
            + tele * L1(1.0 / u5))

    vol_defect = abs(
        sum(bloch_wigner(x) for x in t)
        - sum(bloch_wigner(x) for x in (u1, u2, u3, u4, u5))
    )
    return OctahedronReport(
        u=(u1, u2, u3, u4, u5),
        identity1_defect=_mod4pi2_defect(lhs - rhs1),
        identity2_defect=_mod4pi2_defect(lhs - rhs2),
        volume_defect=vol_defect,
    )
