"""Oriented link diagrams: PD-code parsing, face traversal, corner data.

A diagram is stored as a list of crossings, each carrying a sign and the
four region corners (j, k, l, m) and four side corners (a, b, c, d) of the
oriented normal form: both strands drawn pointing downward, j the region
between the outgoing arcs, l between the incoming arcs, k to the right,
m to the left; side a at the lower left, then b, c, d counterclockwise.
A crossing is positive when the over-strand runs upper-right to lower-left.

PD tuples are read starting at the incoming under-strand.  The convention
for converting tuples to corner data is fixed once and for all by the
requirement that the standard figure-eight PD code reproduce the region
potential of the built-in ``4_1`` diagram; see tests.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

Label = Union[int, str]

_PD_TOKEN = re.compile(r"X\(([^()]*)\)")

# Rotation slots of a PD tuple, counted from the incoming under-strand.
# Corner q sits between slots q and q+1 (mod 4).  The maps below give, for
# each crossing sign, the corner index holding each of (j, k, l, m) and the
# slot holding each of (a, b, c, d).
_CORNERS_POS = (1, 0, 3, 2)
_CORNERS_NEG = (2, 1, 0, 3)
_SIDE_SLOTS_POS = (2, 1, 0, 3)
_SIDE_SLOTS_NEG = (3, 2, 1, 0)


class DiagramError(ValueError):
    """Raised for malformed PD codes or inconsistent diagrams."""


@dataclass(frozen=True)
class Crossing:
    """One crossing with corner regions (j,k,l,m) and corner sides (a,b,c,d)."""

    sign: int
    regions: tuple[Label, Label, Label, Label]
    sides: tuple[Label, Label, Label, Label]

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise DiagramError(f"crossing sign must be +-1, got {self.sign}")

    @property
    def strand_roles(self) -> dict[str, Label]:
        """Map under_in/under_out/over_in/over_out to side labels."""
        a, b, c, d = self.sides
        if self.sign > 0:
            return {"under_in": c, "under_out": a, "over_in": d, "over_out": b}
        return {"under_in": d, "under_out": b, "over_in": c, "over_out": a}

    def is_kinked(self) -> bool:
        """True when two adjacent corner sides coincide (Reidemeister-I loop)."""
        a, b, c, d = self.sides
        return a == b or b == c or c == d or d == a


@dataclass(frozen=True)
class LinkDiagram:
    crossings: tuple[Crossing, ...]
    regions: tuple[Label, ...]
    sides: tuple[Label, ...]
    components: int
    # Potentials assembled from this diagram, keyed by W variant or "V";
    # filled by potential.assemble_W / assemble_V.  Not part of the value.
    _potentials: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def _region_corners(self) -> tuple[np.ndarray, np.ndarray]:
        """Index into regions of the j, k, l and m corner of every crossing,
        (4, ncrossings), and the crossing signs, for array passes over all
        crossings."""
        index = {r: i for i, r in enumerate(self.regions)}
        corners = np.array([[index[r] for r in cr.regions] for cr in self.crossings],
                           dtype=np.intp).reshape(-1, 4).T.copy()
        return corners, np.array([cr.sign for cr in self.crossings], dtype=float)

    @property
    def n(self) -> int:
        return len(self.regions)

    @property
    def g(self) -> int:
        return len(self.sides)

    def kinked_crossings(self) -> list[int]:
        return [i for i, c in enumerate(self.crossings) if c.is_kinked()]


@dataclass(frozen=True)
class ValidationReport:
    crossings: int
    regions: int
    sides: int
    components: int
    kinks: int
    euler_ok: bool
    side_borders_ok: bool

    @property
    def ok(self) -> bool:
        return self.euler_ok and self.side_borders_ok


# ---------------------------------------------------------------------------
# PD codes


def parse_pd(text: str) -> list[tuple[int, int, int, int]]:
    """Parse a whitespace/comma separated list of X(a,b,c,d) tuples.

    Side labels are normalized to 1..2C preserving their order.
    """
    if not text or not text.strip():
        raise DiagramError("empty PD code")
    stripped = _PD_TOKEN.sub("", text)
    if stripped.strip(" ,\t\n"):
        raise DiagramError(f"malformed PD token near {stripped.strip()[:20]!r}")
    tuples = []
    for tok in _PD_TOKEN.findall(text):
        parts = [p.strip() for p in tok.split(",")]
        if len(parts) != 4:
            raise DiagramError(f"crossing tuple X({tok}) has arity {len(parts)}, expected 4")
        try:
            tuples.append(tuple(int(p) for p in parts))
        except ValueError:
            raise DiagramError(f"non-integer label in X({tok})") from None
    counts: dict[int, int] = {}
    for tup in tuples:
        for lab in tup:
            counts[lab] = counts.get(lab, 0) + 1
    bad = {lab: c for lab, c in counts.items() if c != 2}
    if bad:
        raise DiagramError(f"side labels must appear exactly twice, violated by {bad}")
    relabel = {lab: i + 1 for i, lab in enumerate(sorted(counts))}
    return [tuple(relabel[lab] for lab in tup) for tup in tuples]


def render_pd(diagram: LinkDiagram) -> str:
    """Emit a PD code reproducing the diagram (up to relabeling) when rebuilt."""
    order = _strand_traversal(diagram.crossings)
    new_label = {side: i + 1 for i, side in enumerate(order)}
    tuples = []
    for cr in diagram.crossings:
        a, b, c, d = (new_label[s] for s in cr.sides)
        if cr.sign > 0:
            tuples.append((c, b, a, d))
        else:
            tuples.append((d, c, b, a))
    return " ".join("X({},{},{},{})".format(*t) for t in tuples)


# ---------------------------------------------------------------------------
# Diagram construction from PD codes


def _dart_mates(pd: Sequence[tuple[int, int, int, int]]):
    occ: dict[int, list[tuple[int, int]]] = {}
    for ci, tup in enumerate(pd):
        for slot, lab in enumerate(tup):
            occ.setdefault(lab, []).append((ci, slot))
    mate = {}
    for ends in occ.values():
        mate[ends[0]] = ends[1]
        mate[ends[1]] = ends[0]
    return occ, mate


def _check_connected(pd, occ):
    if not pd:
        raise DiagramError("empty PD code")
    adj: dict[int, set[int]] = {ci: set() for ci in range(len(pd))}
    for ends in occ.values():
        (c1, _), (c2, _) = ends
        adj[c1].add(c2)
        adj[c2].add(c1)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != len(pd):
        raise DiagramError("disconnected diagram (split diagrams are not accepted)")


def _orient(pd, occ, mate):
    """Return direction['in'|'out'] per dart and the component count.

    Slot 0 is the incoming under-strand and slot 2 the outgoing one; these
    anchors are propagated along arcs and across over-passages.  Components
    that never pass under are oriented by increasing side labels.
    """
    direction: dict[tuple[int, int], str] = {}

    def set_dir(dart, val):
        old = direction.get(dart)
        if old is not None and old != val:
            raise DiagramError("inconsistent orientation trace")
        direction[dart] = val

    def propagate():
        changed = True
        while changed:
            changed = False
            for dart, val in list(direction.items()):
                m = mate[dart]
                opp = "out" if val == "in" else "in"
                if direction.get(m) != opp:
                    set_dir(m, opp)
                    changed = True
                ci, slot = dart
                if slot in (1, 3):
                    other = (ci, 4 - slot)
                    if direction.get(other) != opp:
                        set_dir(other, opp)
                        changed = True

    for ci in range(len(pd)):
        set_dir((ci, 0), "in")
        set_dir((ci, 2), "out")
    propagate()

    # Strand components: arcs chained through crossings (slot 0 <-> 2, 1 <-> 3).
    comp_of: dict[int, int] = {}
    comps: list[list[int]] = []
    for lab in sorted(occ):
        if lab in comp_of:
            continue
        cycle = []
        cur = lab
        arrive = occ[lab][0]
        while cur not in comp_of:
            comp_of[cur] = len(comps)
            cycle.append(cur)
            ci, slot = arrive
            leave = (ci, (slot + 2) % 4)
            cur = pd[ci][leave[1]]
            arrive = mate[leave]
        comps.append(cycle)

    # Orient components that never pass under: labels increase along the strand.
    for cycle in comps:
        dart = occ[cycle[0]][0]
        if dart in direction:
            continue
        ascents_fwd = sum(1 for i, lab in enumerate(cycle) if cycle[(i + 1) % len(cycle)] == lab + 1)
        ascents_bwd = sum(1 for i, lab in enumerate(cycle) if cycle[(i - 1) % len(cycle)] == lab + 1)
        if ascents_fwd == ascents_bwd:
            raise DiagramError("cannot orient component without under-crossings")
        # The traversal above arrives at occ[lab][0]; forward means that end is 'in'.
        set_dir(dart, "in" if ascents_fwd > ascents_bwd else "out")
        propagate()

    if len(direction) != 4 * len(pd):
        raise DiagramError("inconsistent orientation trace")
    for ci in range(len(pd)):
        if direction[(ci, 0)] != "in" or direction[(ci, 2)] != "out":
            raise DiagramError("inconsistent orientation trace")
        if direction[(ci, 1)] == direction[(ci, 3)]:
            raise DiagramError("inconsistent orientation trace")
    return direction, len(comps)


def _faces(pd, mate):
    """Face id per corner (crossing, q) with corner q between slots q, q+1."""
    face_of: dict[tuple[int, int], int] = {}
    nfaces = 0
    for ci in range(len(pd)):
        for q in range(4):
            if (ci, q) in face_of:
                continue
            cur = (ci, q)
            while cur not in face_of:
                face_of[cur] = nfaces
                nci, nslot = mate[(cur[0], (cur[1] + 1) % 4)]
                cur = (nci, nslot)
            nfaces += 1
    return face_of, nfaces


def build_diagram(pd: Sequence[tuple[int, int, int, int]]) -> LinkDiagram:
    """Build the full diagram (faces, signs, corner data) from a PD code."""
    pd = [tuple(t) for t in pd]
    occ, mate = _dart_mates(pd)
    if any(len(v) != 2 for v in occ.values()):
        raise DiagramError("side labels must appear exactly twice")
    _check_connected(pd, occ)
    direction, ncomps = _orient(pd, occ, mate)
    face_of, nfaces = _faces(pd, mate)
    C = len(pd)
    if nfaces != C + 2:
        raise DiagramError(f"face count {nfaces} != C+2 = {C + 2}; rotation system is not planar")

    crossings = []
    for ci, tup in enumerate(pd):
        sign = 1 if direction[(ci, 3)] == "in" else -1
        corner_idx = _CORNERS_POS if sign > 0 else _CORNERS_NEG
        side_slots = _SIDE_SLOTS_POS if sign > 0 else _SIDE_SLOTS_NEG
        regions = tuple(face_of[(ci, q)] + 1 for q in corner_idx)
        sides = tuple(tup[s] for s in side_slots)
        crossings.append(Crossing(sign, regions, sides))

    region_labels = tuple(range(1, nfaces + 1))
    side_labels = tuple(sorted(occ))
    return LinkDiagram(tuple(crossings), region_labels, side_labels, ncomps)


def from_crossings(crossings: Iterable[Crossing],
                   regions: Sequence[Label] | None = None,
                   sides: Sequence[Label] | None = None) -> LinkDiagram:
    """Assemble a diagram from explicit corner data, deriving label lists."""
    crossings = tuple(crossings)
    if regions is None:
        regions = _first_appearance(c.regions for c in crossings)
    if sides is None:
        sides = _first_appearance(c.sides for c in crossings)
    side_count: dict[Label, int] = {}
    for c in crossings:
        for s in c.sides:
            side_count[s] = side_count.get(s, 0) + 1
    bad = {s: k for s, k in side_count.items() if k != 2}
    if bad:
        raise DiagramError(f"each side must occur at exactly two corners, violated by {bad}")
    ncomps = len(_strand_components(crossings))
    return LinkDiagram(crossings, tuple(regions), tuple(sides), ncomps)


def _first_appearance(tuples) -> tuple:
    seen: dict = {}
    for tup in tuples:
        for lab in tup:
            seen.setdefault(lab, None)
    return tuple(seen)


def _strand_components(crossings: Sequence[Crossing]) -> list[list[Label]]:
    """Cycles of sides under the successor map in -> out at each crossing."""
    succ: dict[Label, Label] = {}
    for cr in crossings:
        roles = cr.strand_roles
        for key_in, key_out in (("under_in", "under_out"), ("over_in", "over_out")):
            s_in, s_out = roles[key_in], roles[key_out]
            if s_in in succ:
                raise DiagramError(f"side {s_in!r} enters two crossings; orientation inconsistent")
            succ[s_in] = s_out
    comps = []
    seen: set[Label] = set()
    for start in succ:
        if start in seen:
            continue
        cyc = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            cyc.append(cur)
            cur = succ[cur]
        comps.append(cyc)
    return comps


def _strand_traversal(crossings: Sequence[Crossing]) -> list[Label]:
    order = []
    for cyc in _strand_components(crossings):
        order.extend(cyc)
    return order


# ---------------------------------------------------------------------------
# Validation


def side_region_borders(diagram: LinkDiagram) -> dict[Label, list[frozenset]]:
    """For each side, the pair of regions it borders at each of its two ends."""
    # Around a crossing the stubs a,b,c,d separate the corner regions:
    # a between m and j, b between j and k, c between k and l, d between l and m.
    out: dict[Label, list[frozenset]] = {s: [] for s in diagram.sides}
    for cr in diagram.crossings:
        j, k, l, m = cr.regions
        a, b, c, d = cr.sides
        for side, pair in ((a, (m, j)), (b, (j, k)), (c, (k, l)), (d, (l, m))):
            out[side].append(frozenset(pair))
    return out


def validate(diagram: LinkDiagram) -> ValidationReport:
    C = len(diagram.crossings)
    borders = side_region_borders(diagram)
    side_ok = all(len(pairs) == 2 and pairs[0] == pairs[1] for pairs in borders.values())
    return ValidationReport(
        crossings=C,
        regions=diagram.n,
        sides=diagram.g,
        components=diagram.components,
        kinks=len(diagram.kinked_crossings()),
        euler_ok=(diagram.n == C + 2 and diagram.g == 2 * C),
        side_borders_ok=side_ok,
    )


# ---------------------------------------------------------------------------
# Relabeling and isomorphism


def relabel(diagram: LinkDiagram, region_map: dict, side_map: dict) -> LinkDiagram:
    crossings = tuple(
        Crossing(c.sign,
                 tuple(region_map[r] for r in c.regions),
                 tuple(side_map[s] for s in c.sides))
        for c in diagram.crossings
    )
    return LinkDiagram(crossings,
                       tuple(region_map[r] for r in diagram.regions),
                       tuple(side_map[s] for s in diagram.sides),
                       diagram.components)


def is_isomorphic(d1: LinkDiagram, d2: LinkDiagram) -> bool:
    """Relabeling-invariant equality of the corner incidence structures."""
    if (len(d1.crossings) != len(d2.crossings) or d1.n != d2.n or d1.g != d2.g
            or sorted(c.sign for c in d1.crossings) != sorted(c.sign for c in d2.crossings)):
        return False

    cr1 = list(d1.crossings)
    cr2 = list(d2.crossings)

    def extend(mapping, pairs):
        out = dict(mapping)
        for u, v in pairs:
            if out.setdefault(u, v) != v:
                return None
        if len(set(out.values())) != len(out):
            return None
        return out

    def backtrack(i, used, rmap, smap):
        if i == len(cr1):
            return True
        c1 = cr1[i]
        for j2, c2 in enumerate(cr2):
            if j2 in used or c2.sign != c1.sign:
                continue
            new_r = extend(rmap, zip(c1.regions, c2.regions))
            if new_r is None:
                continue
            new_s = extend(smap, zip(c1.sides, c2.sides))
            if new_s is None:
                continue
            if backtrack(i + 1, used | {j2}, new_r, new_s):
                return True
        return False

    return backtrack(0, frozenset(), {}, {})


# ---------------------------------------------------------------------------
# JSON crossing-list format


def to_json_dict(diagram: LinkDiagram) -> dict:
    return {
        "crossings": [
            {"sign": c.sign, "regions": list(c.regions), "sides": list(c.sides)}
            for c in diagram.crossings
        ],
        "n": diagram.n,
        "g": diagram.g,
    }


def from_json_dict(data: dict) -> LinkDiagram:
    try:
        crossings = [
            Crossing(int(c["sign"]), tuple(c["regions"]), tuple(c["sides"]))
            for c in data["crossings"]
        ]
    except (KeyError, TypeError) as exc:
        raise DiagramError(f"malformed crossing list: {exc}") from exc
    d = from_crossings(crossings)
    if "n" in data and data["n"] != d.n:
        raise DiagramError(f"declared n={data['n']} but found {d.n} regions")
    if "g" in data and data["g"] != d.g:
        raise DiagramError(f"declared g={data['g']} but found {d.g} sides")
    return d


def from_json(text: str) -> LinkDiagram:
    return from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Built-in diagrams: the twist-knot family


def _twist_crossings(n: int) -> list[Crossing]:
    """Twist-knot diagram with n+3 crossings: a two-crossing clasp and a
    chain of n+1 twist crossings.

    Regions are c, d, e, w0..w{n+1}; sides a, b, x0..x{n+1}, y0..y{n+1}.
    The corner data reproduces the region potential of the family and, at
    the parametrized solutions, the side equation system as well.
    """
    if n < 1:
        raise DiagramError("twist index must be >= 1")
    w = [f"w{i}" for i in range(n + 2)]
    x = [f"x{i}" for i in range(n + 2)]
    y = [f"y{i}" for i in range(n + 2)]
    crs = []
    if n % 2 == 1:
        crs.append(Crossing(+1, (w[0], "c", w[n + 1], "d"), ("b", y[0], y[n + 1], "a")))
        crs.append(Crossing(+1, (w[n + 1], "e", w[0], "d"), ("a", x[n + 1], x[0], "b")))
    else:
        crs.append(Crossing(-1, ("d", w[0], "c", w[n + 1]), ("a", "b", y[0], y[n + 1])))
        crs.append(Crossing(-1, ("e", w[0], "d", w[n + 1]), (x[n + 1], x[0], "b", "a")))
    for k in range(1, n + 2):
        K = k - 1
        if K % 2 == (n + 1) % 2:
            crs.append(Crossing(-1, ("e", w[k], "c", w[k - 1]), (x[k - 1], x[k], y[k], y[k - 1])))
        else:
            crs.append(Crossing(-1, ("c", w[k - 1], "e", w[k]), (y[k], y[k - 1], x[k - 1], x[k])))
    return crs


def twist_diagram(n: int) -> LinkDiagram:
    w = [f"w{i}" for i in range(n + 2)]
    regions = tuple(["c", "d", "e"] + w)
    sides = tuple(["a", "b"]
                  + [f"x{i}" for i in range(n + 2)]
                  + [f"y{i}" for i in range(n + 2)])
    crossings = tuple(_twist_crossings(n))
    return LinkDiagram(crossings, regions, sides, components=1)


# Region relabeling carrying the twist diagram of the figure-eight knot onto
# the labels 1..6 used by its printed region potential.
_FIG8_REGION_MAP = {"w0": 4, "c": 2, "w2": 1, "d": 3, "e": 5, "w1": 6}
_FIG8_SIDE_MAP = {"a": 1, "b": 2, "x0": 3, "y0": 4, "x1": 5, "y1": 6, "x2": 7, "y2": 8}


def builtin(name: str) -> LinkDiagram:
    """Built-in diagrams: '4_1', '5_2' and the twist family 'T1'..'T5'."""
    if name == "4_1":
        d = relabel(twist_diagram(1), _FIG8_REGION_MAP, _FIG8_SIDE_MAP)
        return LinkDiagram(d.crossings, tuple(range(1, 7)), tuple(range(1, 9)), 1)
    if name == "5_2":
        return twist_diagram(2)
    m = re.fullmatch(r"T([0-9]+)", name)
    if m:
        idx = int(m.group(1))
        if 1 <= idx <= 5:
            return twist_diagram(idx)
    raise DiagramError(f"unknown built-in diagram {name!r}")
