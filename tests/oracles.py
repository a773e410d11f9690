"""Reference constructions that only the tests use.

Each is a second, independent way to reach something the package
computes: a monomial's value as a product of Python complex powers
(against EquationSystem.monomial_values), the twist region potential from
its printed block structure
(against assemble_W of the twist diagram), the region values w_k as
closed forms in t and the recurrence extended by one step (against
twistknot.parametrize), the defining polynomial of t derived exactly from
that extended recurrence (against twistknot.DEFINING_POLYNOMIALS), a PD
code rendered from a diagram with a relabeling-invariant comparison of
diagrams (against build_diagram),
a diagram written as a JSON crossing list (against from_json_dict),
the two dilogarithm identities and the volume additivity of one crossing
octahedron's four-term and five-term shapes (against li2, plog and
bloch_wigner), and the array dilogarithm with float constants, which numpy
casts to complex on every call (against numerics._li2, bit for bit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from optlim.correspondence import CorrespondenceError
from optlim.diagram import Crossing, Label, LinkDiagram, _strand_components
from optlim.numerics import (_LI2_TERMS, PI2, PI2_OVER_6, _bernoulli_series_coeffs,
                             bloch_wigner, li2, plog, shape_double_prime, shape_prime)
from optlim.potential import (DEFAULT, Assignment, EvaluationError, Monomial, Potential,
                              WNVariant, region_terms_W)
from optlim.twistknot import REFERENCE_ROWS, TwistError, _check_index, parametrize

# Closed forms w_k = (numerator in t, ascending) / ((t-3) * t^(2k)), k = 0..6.
REGION_CLOSED_FORMS: dict[int, list[int]] = {
    0: [1, 1],
    1: [-16, 0, -1],
    2: [256, -256, 112, -16, -3, 1],
    3: [-4096, 8192, -7424, 3584, -864, 32, 27, -4],
    4: [65536, -196608, 274432, -225280, 115456, -35584, 5152, 320, -231, 25],
    5: [-1048576, 4194304, -7929856, 9175040, -7094272, 3760128, -1337088,
        287232, -21232, -6048, 1751, -144],
    6: [16777216, -83886080, 200278016, -298844160, 307822592, -228524032,
        123846656, -48324608, 12842496, -1930752, -2544, 66288, -12587, 841],
}


def eval_poly(coeffs, t: complex) -> complex:
    """Horner evaluation in extended precision.

    The tabulated closed-form numerators cancel by up to eight orders of
    magnitude, so plain double Horner would lose the 1e-10 agreement the
    recurrence cross-check asserts.
    """
    tt = np.clongdouble(t)
    acc = np.clongdouble(0)
    for c in reversed(list(coeffs)):
        acc = acc * tt + c
    return complex(acc)


def recurrence_closure(n: int, t: complex) -> tuple[complex, complex]:
    """Extend the recurrence one extra step; returns (x_{n+1}, y_{n+1}).

    At roots of the defining polynomial these equal the pinned values
    (3, 1), which is what makes the parametrization a solution.
    """
    p = parametrize(n, t)
    dx = -p.x(n - 1) + p.x(n) + p.y(n)
    if dx == 0 or p.y(n - 1) == 0:
        raise TwistError("closure denominator vanished")
    return (p.x(n) * p.y(n) / dx,
            p.x(n) + p.y(n) - p.x(n) * p.y(n) / p.y(n - 1))


# ---------------------------------------------------------------------------
# The defining polynomial from the recurrence, exactly
#
# A polynomial is a list of Fraction coefficients in ascending powers of t
# without trailing zeros; a rational function is a (numerator, denominator)
# pair of them in lowest terms with a monic denominator.


def _poly_mul(p: list, q: list) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_add(p: list, q: list) -> list:
    out = [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
           for i in range(max(len(p), len(q)))]
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_divmod(p: list, q: list) -> tuple[list, list]:
    rem, quot = list(p), [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    while len(rem) >= len(q):
        c, k = rem[-1] / q[-1], len(rem) - len(q)
        quot[k] = c
        for i, b in enumerate(q):
            rem[i + k] -= c * b
        while rem and rem[-1] == 0:
            rem.pop()
    return quot, rem


def _poly_gcd(p: list, q: list) -> list:
    """The monic gcd, by Euclid's algorithm over the rationals."""
    while q:
        p, q = q, _poly_divmod(p, q)[1]
    return [c / p[-1] for c in p]


def _ratio(num: list, den: list) -> tuple[list, list]:
    g = _poly_gcd(num, den)
    num, den = _poly_divmod(num, g)[0], _poly_divmod(den, g)[0]
    return [c / den[-1] for c in num], [c / den[-1] for c in den]


def _rf_add(a, b, sign: int = 1):
    return _ratio(_poly_add(_poly_mul(a[0], b[1]), [sign * c for c in _poly_mul(b[0], a[1])]),
                  _poly_mul(a[1], b[1]))


def _rf_mul(a, b):
    return _ratio(_poly_mul(a[0], b[0]), _poly_mul(a[1], b[1]))


def _rf_div(a, b):
    return _ratio(_poly_mul(a[0], b[1]), _poly_mul(a[1], b[0]))


def recurrence_polynomial(n: int) -> list[int]:
    """The primitive integer polynomial (ascending, positive leading
    coefficient) whose roots t close the twist recurrence at index n.

    Runs parametrize's recurrence one step past n on rational functions of
    t with exact rational coefficients and returns the primitive gcd of the
    numerators of x_{n+1} - 3 and y_{n+1} - 1.
    """
    def poly(*coeffs):
        return [Fraction(c) for c in coeffs]

    # x0 = t, x1 = t(t+2)/(t^2 - 4t + 8), y0 = (t+2)/t, y1 = 4/t
    x = [(poly(0, 1), poly(1)), _ratio(poly(0, 2, 1), poly(8, -4, 1))]
    y = [(poly(2, 1), poly(0, 1)), (poly(4), poly(0, 1))]
    for k in range(1, n + 1):
        xy = _rf_mul(x[k], y[k])
        x.append(_rf_div(xy, _rf_add(_rf_add(x[k], y[k]), x[k - 1], -1)))
        y.append(_rf_add(_rf_add(x[k], y[k]), _rf_div(xy, y[k - 1]), -1))
    g = _poly_gcd(_rf_add(x[n + 1], (poly(3), poly(1)), -1)[0],
                  _rf_add(y[n + 1], (poly(1), poly(1)), -1)[0])
    scale = math.lcm(*(c.denominator for c in g))
    ints = [int(c * scale) for c in g]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def region_closed_form(k: int, t: complex) -> complex:
    """Reference closed form of the region value w_k in terms of t."""
    if k not in REGION_CLOSED_FORMS:
        raise TwistError(f"closed form for w_{k} not tabulated")
    t = complex(t)
    num = eval_poly(REGION_CLOSED_FORMS[k], t)
    return num / ((t - 3) * t ** (2 * k))


# ---------------------------------------------------------------------------
# Monomial values


def monomial_value(m: Monomial, a: Assignment) -> complex:
    """coeff * prod(w ** e) in Python complex arithmetic, factor by factor
    in the monomial's order: the reference the compiled gather
    (EquationSystem.monomial_values) matches bit for bit."""
    out = complex(m.coeff)
    for var, e in m.exps:
        try:
            w = complex(a[var])
        except KeyError:
            raise EvaluationError(f"variable {var!r} not assigned") from None
        if w == 0:
            raise EvaluationError(f"variable {var!r} is zero")
        out *= w ** e
    return out


# ---------------------------------------------------------------------------
# The printed region potential, assembled directly from its block structure


def twist_potential(n: int, variant: WNVariant = DEFAULT) -> Potential:
    """The closed-form region potential of the twist diagram.

    Two explicit clasp blocks plus the alternating chain blocks

        A_k: lower region e, upper region c, over w_k, w_{k+1}
        B_k: the same with c and e exchanged,

    both negative crossings.  Each block (sign, (j, k, l, m)) gives the
    terms of potential.region_terms_W.  Equals the crossing-by-crossing
    assembly of the built-in diagram as a term multiset; the pipeline reads
    that assembly, and this second construction serves as its check.
    """
    _check_index(n)
    w = [f"w{i}" for i in range(n + 2)]

    def A(K):
        return -1, ("e", w[K + 1], "c", w[K])

    def B(K):
        return -1, ("c", w[K + 1], "e", w[K])

    if n % 2 == 1:
        blocks = [(+1, (w[0], "d", w[n + 1], "c")), (+1, (w[n + 1], "e", w[0], "d"))]
        for k in range(0, (n - 1) // 2 + 1):
            blocks += [A(2 * k), B(2 * k + 1)]
    else:
        blocks = [(-1, ("d", w[n + 1], "c", w[0])), (-1, ("e", w[n + 1], "d", w[0])), B(0)]
        for k in range(1, n // 2 + 1):
            blocks += [A(2 * k - 1), B(2 * k)]
    terms = tuple(t for sign, regions in blocks for t in region_terms_W(sign, regions, variant))
    variables = tuple(["c", "d", "e"] + w)
    return Potential(terms, variables, "W")


def reference_rows(n: int) -> list[tuple[complex, float, float]]:
    _check_index(n)
    return list(REFERENCE_ROWS[n])


# ---------------------------------------------------------------------------
# PD rendering and diagram isomorphism


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


def _strand_traversal(crossings: Sequence[Crossing]) -> list[Label]:
    order = []
    for cyc in _strand_components(crossings):
        order.extend(cyc)
    return order


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
    central axis); all nine shapes must avoid {0, 1}.  CorrespondenceError
    otherwise.
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


# ---------------------------------------------------------------------------
# The array dilogarithm with float constants

# The series coefficients as float, split into even and odd powers as
# numerics splits them.
_LI2_EVEN, _LI2_ODD = (np.array(_bernoulli_series_coeffs(2 * _LI2_TERMS)[2::2])
                       .reshape(-1, 2).T[..., None].copy())


def li2_float_constants(z: np.ndarray) -> np.ndarray:
    """numerics._li2 as written with float constants and float sign and
    shift arrays, on a complex array of at least one dimension whose -0.0
    parts are made +0.0.  numpy casts each float operand to the complex
    value that numerics builds once at import, so the two agree bit for bit."""
    # Inversion for |z| > 1: Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2 / 2.
    inv = np.abs(z) > 1.0
    y = np.divide(1.0, z, out=z.copy(), where=inv)
    # Reflection for Re y > 1/2: Li2(y) = pi^2/6 - log(y) log(1 - y) - Li2(1 - y).
    refl = y.real > 0.5
    s = np.subtract(1.0, y, out=y.copy(), where=refl)
    # The logs of both reductions, 0 where a reduction does not apply; at
    # s = 1 - y = 0 log(s) is taken as 0, the log product being 0 there.
    lg = np.log(-z + 0.0, out=np.zeros(z.shape, complex), where=inv)
    ly = np.log(y, out=np.zeros(z.shape, complex), where=refl)
    ls = np.log(s, out=np.zeros(z.shape, complex), where=refl & (s != 0.0))
    sign = np.where(inv, -1.0, 1.0)
    shift = sign * (PI2_OVER_6 * refl - ly * ls) - PI2_OVER_6 * inv - 0.5 * lg * lg
    sign = np.where(refl, -sign, sign)
    # The series on |s| <= 1, Re s <= 1/2.  u = -log(1 - s) is formed as
    # s * log(w) / (w - 1) with w = 1 - s (the log1p correction), so tiny
    # |s| keeps its relative accuracy; where w - 1 rounds to 0 the ratio
    # log(w) / (w - 1) is 1.
    w = 1.0 - s
    d = w - 1.0
    u = s * np.divide(np.log(w), d, out=np.ones(z.shape, complex), where=d != 0.0)
    x = u * u
    # The pair values as contiguous (pairs, n) rows, Horner in place on the
    # last row: the same operations, in the same order, for every element.
    pairs = _LI2_ODD * x.reshape(1, -1)
    pairs += _LI2_EVEN
    x2 = (x * x).reshape(-1)
    p = pairs[-1]
    for row in pairs[-2::-1]:
        p *= x2
        p += row
    return shift + sign * (u + x * (u * p.reshape(x.shape) - 0.25))
