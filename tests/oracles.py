"""Reference constructions that only the tests use.

Each is a second, independent way to reach something the package
computes: a monomial's value as a product of Python complex powers
(against EquationSystem.monomial_values), the twist region potential from
its printed block structure
(against assemble_W of the twist diagram), the region values w_k as
closed forms in t and the recurrence extended by one step (against
twistknot.parametrize), and a PD code rendered from a diagram with a
relabeling-invariant comparison of diagrams (against build_diagram).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from optlim.diagram import Crossing, Label, LinkDiagram, _strand_components
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
