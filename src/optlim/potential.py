"""Potential functions built per crossing from a link diagram.

The region potential W assigns to each positive crossing

    -Li2(wl/wm) - Li2(wl/wk) + Li2(wj*wl/(wk*wm)) + Li2(wm/wj) + Li2(wk/wj)
    - pi^2/6 + log(wm/wj) log(wk/wj)

and the negated dilogarithm/constant pattern to each negative crossing,
with the log product -log(wm/wj)log(wk/wj).  This DEFAULT form is the W
that solve, w0 and the region/side bridge evaluate.  The ALT_NEG_LOG
variant writes the negative log product as -log(wj/wm)log(wj/wk); the two
differ only where wm/wj or wk/wj is a negative real, and ALT_NEG_LOG is
kept as a reference form for tests and benchmarks.

The side potential V assigns Li2(zb/za) - Li2(zb/zc) + Li2(zd/zc) -
Li2(zd/za) to every crossing, read in the frame where the over-strand runs
upper-right to lower-left (at negative crossings this rotates the stored
side labels by one corner).

Evaluation uses the principal branches throughout: monomial values are
formed first, then fed to log / Li2.  The compiled equation system of the
potential does this with array arithmetic; see equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Literal, Mapping, Sequence

from .diagram import Crossing, DiagramError, Label, LinkDiagram

if TYPE_CHECKING:
    from .equations import EquationSystem

WNVariant = Literal["default", "alt_neg_log"]
DEFAULT: WNVariant = "default"
ALT_NEG_LOG: WNVariant = "alt_neg_log"

Assignment = Mapping[Label, complex]


class EvaluationError(ValueError):
    """Raised when a potential is evaluated at a degenerate assignment."""


@dataclass(frozen=True)
class Monomial:
    """A signed Laurent monomial  coeff * prod(var^exp)."""

    exps: tuple[tuple[Label, int], ...]
    coeff: int = 1

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Label, int]], coeff: int = 1) -> "Monomial":
        acc: dict[Label, int] = {}
        for var, e in pairs:
            acc[var] = acc.get(var, 0) + e
            if acc[var] == 0:
                del acc[var]
        return Monomial(tuple(sorted(acc.items(), key=lambda p: str(p[0]))), coeff)

    @staticmethod
    def ratio(num: Label, den: Label) -> "Monomial":
        return Monomial.from_pairs([(num, 1), (den, -1)])


@dataclass(frozen=True)
class Term:
    """One summand: a signed dilogarithm, log product, or pi^2/6 constant."""

    kind: Literal["dilog", "logprod", "const"]
    sign: int
    m1: Monomial | None = None
    m2: Monomial | None = None

    @staticmethod
    def dilog(sign: int, m: Monomial) -> "Term":
        return Term("dilog", sign, m)

    @staticmethod
    def logprod(sign: int, m1: Monomial, m2: Monomial) -> "Term":
        # the product is commutative; canonical order makes terms comparable
        def key(m):
            return tuple((str(v), e) for v, e in m.exps), m.coeff

        if key(m2) < key(m1):
            m1, m2 = m2, m1
        return Term("logprod", sign, m1, m2)

    @staticmethod
    def const(sign: int) -> "Term":
        return Term("const", sign)


@dataclass(frozen=True)
class Potential:
    terms: Sequence[Term]
    variables: tuple[Label, ...]
    kind: Literal["W", "V"]
    # The potential's EquationSystem, compiled and set once by
    # equations.build_system.  The system does not refer back, so ownership
    # runs one way.  Not part of the potential's value.
    _system: EquationSystem | None = field(default=None, init=False, repr=False, compare=False)


def region_terms_W(sign: int, regions: tuple[Label, Label, Label, Label],
                   variant: WNVariant = DEFAULT) -> list[Term]:
    """The seven W-terms (five dilogs, a constant, a log product) of a
    crossing of the given sign with regions (j, k, l, m)."""
    j, k, l, m = regions
    s = sign
    terms = [
        Term.dilog(-s, Monomial.ratio(l, m)),
        Term.dilog(-s, Monomial.ratio(l, k)),
        Term.dilog(+s, Monomial.from_pairs([(j, 1), (l, 1), (k, -1), (m, -1)])),
        Term.dilog(+s, Monomial.ratio(m, j)),
        Term.dilog(+s, Monomial.ratio(k, j)),
        Term.const(-s),
    ]
    if s > 0 or variant == DEFAULT:
        terms.append(Term.logprod(s, Monomial.ratio(m, j), Monomial.ratio(k, j)))
    else:
        terms.append(Term.logprod(s, Monomial.ratio(j, m), Monomial.ratio(j, k)))
    return terms


def crossing_terms_V(crossing: Crossing) -> list[Term]:
    """The four V-terms of one crossing.

    The side potential is read in the unoriented normal form with the
    over-strand upper-right to lower-left, so the stored corner sides are
    rotated by one position at negative crossings before applying
    Li2(b/a) - Li2(b/c) + Li2(d/c) - Li2(d/a).
    """
    if crossing.is_kinked():
        raise DiagramError(f"kinked crossing {crossing.sides}: a side ratio degenerates to 1")
    a, b, c, d = crossing.sides
    if crossing.sign < 0:
        a, b, c, d = d, a, b, c
    return [
        Term.dilog(+1, Monomial.ratio(b, a)),
        Term.dilog(-1, Monomial.ratio(b, c)),
        Term.dilog(+1, Monomial.ratio(d, c)),
        Term.dilog(-1, Monomial.ratio(d, a)),
    ]


def assemble_W(diagram: LinkDiagram, variant: WNVariant = DEFAULT) -> Potential:
    """The region potential, assembled once per diagram object and variant."""
    potential = diagram._potentials.get(variant)
    if potential is None:
        terms: list[Term] = []
        for crossing in diagram.crossings:
            terms.extend(region_terms_W(crossing.sign, crossing.regions, variant))
        potential = Potential(tuple(terms), tuple(diagram.regions), "W")
        diagram._potentials[variant] = potential
    return potential


def assemble_V(diagram: LinkDiagram) -> Potential:
    """The side potential, assembled once per diagram object."""
    potential = diagram._potentials.get("V")
    if potential is None:
        kinks = diagram.kinked_crossings()
        if kinks:
            raise DiagramError(f"diagram has kinks at crossings {kinks}; remove them first")
        terms: list[Term] = []
        for crossing in diagram.crossings:
            terms.extend(crossing_terms_V(crossing))
        potential = Potential(tuple(terms), tuple(diagram.sides), "V")
        diagram._potentials["V"] = potential
    return potential


def evaluate(potential: Potential | EquationSystem, a: Assignment) -> complex:
    """Evaluate at a complex assignment with principal branches.

    Monomial values are computed first and then logged, so the result is a
    single well-defined branch choice (the one used by the reference
    numerical tables).  The values come from the gather of the potential's
    equation system (EquationSystem.monomial_values), which every mu_k and
    W0 read as well.  A system, such as a sign flip, stands for its
    potential.
    """
    from .equations import build_system

    system = build_system(potential)
    return complex(system.potential_value(system.point_from_assignment(a)))
