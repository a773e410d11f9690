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

A PD code may describe a link of any number of components.  Each strand
component is traced once and runs in the direction that enters its
under-crossings at slot 0; a component that never passes under runs the
way its side labels increase.  See ``_orient``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cache
from typing import Iterable, Sequence, Union


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
    """Return the crossing signs and the component count.

    Each strand component is traced once, through crossings from slot 0 to
    2 and from 1 to 3 or back, recording the slot at which the trace enters
    each crossing.  A component runs in the direction that enters its
    under-crossings at slot 0, the incoming under-strand; one entering
    under-crossings at both slot 0 and slot 2 is inconsistent, which is
    checked for every component first.  A component that never passes
    under runs the way its side labels increase: the direction with more
    steps from a label to its successor label.  A crossing is positive
    when its over-strand enters at slot 3.
    """
    traced: set[int] = set()
    comps = []
    for lab in sorted(occ):
        if lab in traced:
            continue
        labels, entries = [], []
        cur, (ci, slot) = lab, occ[lab][0]
        while cur not in traced:
            traced.add(cur)
            labels.append(cur)
            entries.append((ci, slot))
            leave = (ci, (slot + 2) % 4)
            cur = pd[ci][leave[1]]
            ci, slot = mate[leave]
        under = {slot for _, slot in entries if slot % 2 == 0}
        if under == {0, 2}:
            raise DiagramError("inconsistent orientation trace")
        comps.append((labels, entries, under))

    signs = [0] * len(pd)
    for labels, entries, under in comps:
        if under:
            forward = under == {0}
        else:
            ascents_fwd = sum(1 for i, lab in enumerate(labels) if labels[(i + 1) % len(labels)] == lab + 1)
            ascents_bwd = sum(1 for i, lab in enumerate(labels) if labels[i - 1] == lab + 1)
            if ascents_fwd == ascents_bwd:
                raise DiagramError("cannot orient component without under-crossings")
            forward = ascents_fwd > ascents_bwd
        for ci, slot in entries:
            if slot % 2 == 1:
                # Run against the trace, the over-strand enters where the trace left.
                signs[ci] = 1 if (slot == 3) == forward else -1
    return signs, len(comps)


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
    signs, ncomps = _orient(pd, occ, mate)
    face_of, nfaces = _faces(pd, mate)
    C = len(pd)
    if nfaces != C + 2:
        raise DiagramError(f"face count {nfaces} != C+2 = {C + 2}; rotation system is not planar")

    crossings = []
    for ci, (tup, sign) in enumerate(zip(pd, signs)):
        corner_idx = _CORNERS_POS if sign > 0 else _CORNERS_NEG
        side_slots = _SIDE_SLOTS_POS if sign > 0 else _SIDE_SLOTS_NEG
        regions = tuple(face_of[(ci, q)] + 1 for q in corner_idx)
        sides = tuple(tup[s] for s in side_slots)
        crossings.append(Crossing(sign, regions, sides))

    region_labels = tuple(range(1, nfaces + 1))
    side_labels = tuple(sorted(occ))
    return LinkDiagram(tuple(crossings), region_labels, side_labels, ncomps)


def from_crossings(crossings: Iterable[Crossing]) -> LinkDiagram:
    """Assemble a diagram from explicit corner data, deriving label lists."""
    crossings = tuple(crossings)
    regions = _first_appearance(c.regions for c in crossings)
    sides = _first_appearance(c.sides for c in crossings)
    side_count: dict[Label, int] = {}
    for c in crossings:
        for s in c.sides:
            side_count[s] = side_count.get(s, 0) + 1
    bad = {s: k for s, k in side_count.items() if k != 2}
    if bad:
        raise DiagramError(f"each side must occur at exactly two corners, violated by {bad}")
    ncomps = len(_strand_components(crossings))
    return LinkDiagram(crossings, regions, sides, ncomps)


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
        a, b, c, d = cr.sides
        # The under-strand's (in, out) sides, then the over-strand's.
        pairs = ((c, a), (d, b)) if cr.sign > 0 else ((d, b), (c, a))
        for s_in, s_out in pairs:
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
# JSON crossing-list format


def from_json_dict(data: dict) -> LinkDiagram:
    crossings = []
    try:
        for i, c in enumerate(data["crossings"]):
            sign, regions, sides = c["sign"], c["regions"], c["sides"]
            if (type(sign) is not int or sign not in (-1, 1)
                    or not isinstance(regions, list) or not isinstance(sides, list)
                    or len(regions) != 4 or len(sides) != 4
                    or any(type(lab) not in (int, str) for lab in regions + sides)):
                raise DiagramError(f"crossing {i} needs an integer sign of 1 or -1 and lists of four "
                                   f"integer or string regions and sides, got {c!r}")
            crossings.append(Crossing(sign, tuple(regions), tuple(sides)))
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


@cache
def twist_diagram(n: int) -> LinkDiagram:
    """The twist-knot diagram of index n, built once per process like
    builtin: the same n returns the same object."""
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


@cache
def builtin(name: str) -> LinkDiagram:
    """Built-in diagrams: '4_1', '5_2' and the twist family 'T1', 'T2', ...
    up to twistknot.MAX_INDEX, spelled exactly so.

    A built-in diagram is a constant, built once per process: the same
    name returns the same object ('5_2' is 'T2'), and with it the
    potentials, systems and product kernels compiled on it.
    """
    from .twistknot import MAX_INDEX

    if name == "4_1":
        crossings = tuple(Crossing(c.sign, tuple(_FIG8_REGION_MAP[r] for r in c.regions),
                                   tuple(_FIG8_SIDE_MAP[s] for s in c.sides))
                          for c in twist_diagram(1).crossings)
        return LinkDiagram(crossings, tuple(range(1, 7)), tuple(range(1, 9)), 1)
    if name == "5_2":
        return twist_diagram(2)
    if name in [f"T{n}" for n in range(1, MAX_INDEX + 1)]:
        return twist_diagram(int(name[1:]))
    raise DiagramError(f"unknown built-in diagram {name!r}")
