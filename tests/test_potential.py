"""Potential assembly: crossing terms, exact printed form, evaluation."""

import math
from collections import Counter

import pytest

from optlim import (ALT_NEG_LOG, DEFAULT, Monomial, Term, assemble_V,
                    assemble_W, build_diagram, builtin, evaluate, parse_pd)
from optlim.diagram import Crossing, DiagramError
from optlim.potential import EvaluationError, Potential, crossing_terms_V, region_terms_W

from conftest import dilog_monomials, make_rng
from oracles import monomial_value


def ratio(a, b):
    return Monomial.ratio(a, b)


def quad(j, l, k, m):
    return Monomial.from_pairs([(j, 1), (l, 1), (k, -1), (m, -1)])


def pos_terms(j, k, l, m):
    return [
        Term.dilog(-1, ratio(l, m)),
        Term.dilog(-1, ratio(l, k)),
        Term.dilog(+1, quad(j, l, k, m)),
        Term.dilog(+1, ratio(m, j)),
        Term.dilog(+1, ratio(k, j)),
        Term.const(-1),
        Term.logprod(+1, ratio(m, j), ratio(k, j)),
    ]


def neg_terms(j, k, l, m):
    return [
        Term.dilog(+1, ratio(l, m)),
        Term.dilog(+1, ratio(l, k)),
        Term.dilog(-1, quad(j, l, k, m)),
        Term.dilog(-1, ratio(m, j)),
        Term.dilog(-1, ratio(k, j)),
        Term.const(+1),
        Term.logprod(-1, ratio(m, j), ratio(k, j)),
    ]


# The printed region potential of the figure-eight diagram, term by term.
FIG8_PRINTED = (
    pos_terms(4, 2, 1, 3)
    + pos_terms(1, 5, 4, 3)
    + neg_terms(5, 6, 2, 4)
    + neg_terms(2, 6, 5, 1)
)


class TestCrossingTermsW:
    def test_positive_crossing_block(self):
        c = Crossing(+1, (4, 2, 1, 3), (1, 2, 3, 4))
        assert Counter(region_terms_W(c.sign, c.regions)) == Counter(pos_terms(4, 2, 1, 3))

    def test_negative_crossing_block(self):
        c = Crossing(-1, (5, 6, 2, 4), (1, 2, 3, 4))
        assert Counter(region_terms_W(c.sign, c.regions)) == Counter(neg_terms(5, 6, 2, 4))

    def test_alt_variant_changes_only_logprod(self):
        c = Crossing(-1, (5, 6, 2, 4), (1, 2, 3, 4))
        default = region_terms_W(c.sign, c.regions, DEFAULT)
        alt = region_terms_W(c.sign, c.regions, ALT_NEG_LOG)
        assert Counter(t for t in default if t.kind != "logprod") == \
            Counter(t for t in alt if t.kind != "logprod")
        (lp,) = [t for t in alt if t.kind == "logprod"]
        assert lp == Term.logprod(-1, ratio(5, 4), ratio(5, 6))

    def test_monomials_have_degree_zero(self):
        for sign in (+1, -1):
            c = Crossing(sign, (1, 2, 3, 4), (1, 2, 3, 4))
            for t in region_terms_W(c.sign, c.regions):
                for m in (t.m1, t.m2):
                    if m is not None:
                        assert sum(e for _, e in m.exps) == 0

    def test_repeated_regions_accumulate(self):
        c = Crossing(+1, (1, 2, 1, 2), (1, 2, 3, 4))
        quad_term = [t for t in region_terms_W(c.sign, c.regions) if t.kind == "dilog"
                     and len(t.m1.exps) == 2 and abs(t.m1.exps[0][1]) == 2]
        assert quad_term  # (w1*w1)/(w2*w2) collapses to exponents +-2


class TestAssembleW:
    def test_printed_figure_eight_exact(self, fig8):
        p = assemble_W(fig8)
        assert Counter(p.terms) == Counter(FIG8_PRINTED)
        assert p.variables == tuple(range(1, 7))

    def test_term_counts(self):
        for name, C in (("4_1", 4), ("5_2", 5), ("T4", 7)):
            p = assemble_W(builtin(name))
            kinds = Counter(t.kind for t in p.terms)
            assert kinds["dilog"] == 5 * C
            assert kinds["logprod"] == C
            assert kinds["const"] == C

    def test_mirror_negates_dilog_pattern(self, fig8):
        mirrored = [Crossing(-c.sign, c.regions, c.sides) for c in fig8.crossings]
        for orig, mirr in zip(fig8.crossings, mirrored):
            t_orig = region_terms_W(orig.sign, orig.regions)
            t_mirr = region_terms_W(mirr.sign, mirr.regions)
            flipped = Counter(
                Term(t.kind, -t.sign, t.m1, t.m2) for t in t_orig
                if t.kind in ("dilog", "const"))
            assert Counter(t for t in t_mirr if t.kind in ("dilog", "const")) == flipped


class TestCrossingTermsV:
    def test_positive_crossing(self):
        c = Crossing(+1, (1, 2, 3, 4), (1, 2, 3, 4))
        expected = [
            Term.dilog(+1, ratio(2, 1)),
            Term.dilog(-1, ratio(2, 3)),
            Term.dilog(+1, ratio(4, 3)),
            Term.dilog(-1, ratio(4, 1)),
        ]
        assert Counter(crossing_terms_V(c)) == Counter(expected)

    def test_negative_crossing_rotates_frame(self):
        c = Crossing(-1, (1, 2, 3, 4), (1, 2, 3, 4))
        expected = [
            Term.dilog(+1, ratio(1, 4)),
            Term.dilog(-1, ratio(1, 2)),
            Term.dilog(+1, ratio(3, 2)),
            Term.dilog(-1, ratio(3, 4)),
        ]
        assert Counter(crossing_terms_V(c)) == Counter(expected)

    def test_four_terms_no_constants(self):
        for sign in (+1, -1):
            terms = crossing_terms_V(Crossing(sign, (1, 2, 3, 4), (5, 6, 7, 8)))
            assert len(terms) == 4
            assert all(t.kind == "dilog" for t in terms)

    def test_kink_rejected(self):
        c = Crossing(+1, (1, 2, 3, 4), (1, 1, 2, 3))
        with pytest.raises(DiagramError, match="kink"):
            crossing_terms_V(c)


class TestAssembleV:
    def test_figure_eight_counts(self, fig8):
        p = assemble_V(fig8)
        assert len(p.terms) == 16
        assert len(p.variables) == 8

    def test_t2_counts(self):
        p = assemble_V(builtin("T2"))
        assert len(p.terms) == 20
        assert len(p.variables) == 10

    def test_kinked_diagram_rejected(self):
        d = build_diagram(parse_pd("X(1,2,2,1)"))
        with pytest.raises(DiagramError, match="kink"):
            assemble_V(d)


class TestEvaluate:
    def test_empty_potential(self):
        p = Potential((), ("x",), "W")
        assert evaluate(p, {"x": 2.0}) == 0

    def test_single_dilog_classical_value(self):
        p = Potential((Term.dilog(+1, ratio("w1", "w2")),), ("w1", "w2"), "W")
        val = evaluate(p, {"w1": -1.0, "w2": 1.0})
        assert val == pytest.approx(-math.pi ** 2 / 12, abs=1e-12)

    def test_zero_variable_rejected(self):
        p = Potential((Term.dilog(+1, ratio("w1", "w2")),), ("w1", "w2"), "W")
        with pytest.raises(EvaluationError):
            evaluate(p, {"w1": 0.0, "w2": 1.0})

    def test_non_essential_rejected(self):
        p = Potential((Term.dilog(+1, ratio("w1", "w2")),), ("w1", "w2"), "W")
        with pytest.raises(EvaluationError, match="non-essential"):
            evaluate(p, {"w1": 2.0, "w2": 2.0})

    def test_monomial_values_scale_invariant(self, fig8):
        p = assemble_W(fig8)
        rng = make_rng(3)
        from conftest import random_essential_assignment
        a = random_essential_assignment(p, rng)
        lam = 0.7 - 1.3j
        scaled = {v: lam * val for v, val in a.items()}
        for m in dilog_monomials(p):
            assert monomial_value(m, scaled) == pytest.approx(monomial_value(m, a), rel=1e-12)


def to_json_dict(potential: Potential) -> dict:
    """The potential as a JSON document: its kind, variables and terms."""
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


class TestSerialization:
    def test_json_dict_shape(self, fig8):
        doc = to_json_dict(assemble_W(fig8))
        assert doc["kind"] == "W"
        assert len(doc["terms"]) == 28
        assert all("sign" in t and "kind" in t for t in doc["terms"])
