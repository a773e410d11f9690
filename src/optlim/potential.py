"""Potential functions built per crossing from a link diagram.

The region potential W assigns to each positive crossing

    -Li2(wl/wm) - Li2(wl/wk) + Li2(wj*wl/(wk*wm)) + Li2(wm/wj) + Li2(wk/wj)
    - pi^2/6 + log(wm/wj) log(wk/wj)

and the negated dilogarithm/constant pattern to each negative crossing,
with the log product either -log(wm/wj)log(wk/wj) (default) or the
equivalent -log(wj/wm)log(wj/wk) (the ALT_NEG_LOG variant under which the
region/side bridge congruence holds exactly).  The side potential V assigns
Li2(zb/za) - Li2(zb/zc) + Li2(zd/zc) - Li2(zd/za) to every crossing, read
in the frame where the over-strand runs upper-right to lower-left (at
negative crossings this rotates the stored side labels by one corner).

Evaluation uses the principal branches throughout: monomial values are
formed first, then fed to log / Li2.  The compiled equation system of the
potential does this with array arithmetic; see equations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Literal, Mapping

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

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def exponent(self, var: Label) -> int:
        for v, e in self.exps:
            if v == var:
                return e
        return 0

    def variables(self) -> tuple[Label, ...]:
        return tuple(v for v, _ in self.exps)

    def value(self, a: Assignment) -> complex:
        out = complex(self.coeff)
        for var, e in self.exps:
            try:
                w = complex(a[var])
            except KeyError:
                raise EvaluationError(f"variable {var!r} not assigned") from None
            if w == 0:
                raise EvaluationError(f"variable {var!r} is zero")
            out *= w ** e
        return out


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
    terms: tuple[Term, ...]
    variables: tuple[Label, ...]
    kind: Literal["W", "V"]
    # The EquationSystem at the default pin, set once by
    # equations.build_system, or by EquationSystem.sign_flipped for a
    # sign-flipped potential.  Not part of the potential's value.
    _system: EquationSystem | None = field(default=None, init=False, repr=False, compare=False)
    # Flipped terms and monomials shared by this potential's sign flips,
    # filled by correspondence.sign_flip.  Not part of the value either.
    _flips: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def dilog_monomials(self) -> list[Monomial]:
        return [t.m1 for t in self.terms if t.kind == "dilog"]

    def term_counter(self) -> Counter:
        return Counter(self.terms)


def _ratio(num: Label, den: Label) -> Monomial:
    return Monomial.ratio(num, den)


def crossing_terms_W(crossing: Crossing, variant: WNVariant = DEFAULT) -> list[Term]:
    """The seven W-terms of one crossing (five dilogs, a constant, a log product)."""
    j, k, l, m = crossing.regions
    s = crossing.sign
    terms = [
        Term.dilog(-s, _ratio(l, m)),
        Term.dilog(-s, _ratio(l, k)),
        Term.dilog(+s, Monomial.from_pairs([(j, 1), (l, 1), (k, -1), (m, -1)])),
        Term.dilog(+s, _ratio(m, j)),
        Term.dilog(+s, _ratio(k, j)),
        Term.const(-s),
    ]
    if s > 0 or variant == DEFAULT:
        terms.append(Term.logprod(s, _ratio(m, j), _ratio(k, j)))
    else:
        terms.append(Term.logprod(s, _ratio(j, m), _ratio(j, k)))
    return terms


def crossing_terms_V(crossing: Crossing) -> list[Term]:
    """The four V-terms of one crossing.

    The side potential is read in the unoriented normal form with the
    over-strand upper-right to lower-left, so the stored corner sides are
    rotated by one position at negative crossings before applying
    Li2(b/a) - Li2(b/c) + Li2(d/c) - Li2(d/a).
    """
    a, b, c, d = crossing.sides
    if crossing.sign < 0:
        a, b, c, d = d, a, b, c
    if a == b or b == c or c == d or d == a:
        raise DiagramError(f"kinked crossing {crossing.sides}: a side ratio degenerates to 1")
    return [
        Term.dilog(+1, _ratio(b, a)),
        Term.dilog(-1, _ratio(b, c)),
        Term.dilog(+1, _ratio(d, c)),
        Term.dilog(-1, _ratio(d, a)),
    ]


def assemble_W(diagram: LinkDiagram, variant: WNVariant = DEFAULT) -> Potential:
    """The region potential, assembled once per diagram object and variant."""
    potential = diagram._potentials.get(variant)
    if potential is None:
        terms: list[Term] = []
        for crossing in diagram.crossings:
            terms.extend(crossing_terms_W(crossing, variant))
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


def evaluate(potential: Potential, a: Assignment) -> complex:
    """Evaluate at a complex assignment with principal branches.

    Monomial values are computed first and then logged, so the result is a
    single well-defined branch choice (the one used by the reference
    numerical tables).  The values come from the gather of the potential's
    equation system (EquationSystem.monomial_values), which every mu_k and
    W0 read as well.
    """
    from .equations import build_system

    system = build_system(potential)
    return complex(system.potential_value(system.point_from_assignment(a)))


def to_json_dict(potential: Potential) -> dict:
    def mono(m: Monomial) -> dict:
        return {"coeff": m.coeff, "exponents": {str(v): e for v, e in m.exps}}

    terms = []
    for t in potential.terms:
        rec: dict = {"kind": t.kind, "sign": t.sign}
        if t.m1 is not None:
            rec["m1"] = mono(t.m1)
        if t.m2 is not None:
            rec["m2"] = mono(t.m2)
        terms.append(rec)
    return {"kind": potential.kind,
            "variables": [str(v) for v in potential.variables],
            "terms": terms}
