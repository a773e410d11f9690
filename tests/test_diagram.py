"""Diagram construction: PD parsing, faces, signs, corner conventions."""

import json

import pytest

from optlim import DiagramError, build_diagram, builtin, parse_pd, twist_diagram, validate
from optlim.diagram import Crossing, from_crossings, from_json_dict, side_region_borders

from conftest import BORROMEAN_PD, FIG8_PD, WHITEHEAD_PD
from oracles import is_isomorphic, render_pd, to_json_dict

KINK_PD = "X(1,2,2,1)"
TREFOIL_PD = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
KNOT61_PD = "X(1,4,2,5) X(7,10,8,11) X(3,9,4,8) X(9,3,10,2) X(5,12,6,1) X(11,6,12,7)"


class TestParsePD:
    def test_figure_eight(self):
        pd = parse_pd(FIG8_PD)
        assert len(pd) == 4
        labels = sorted({lab for tup in pd for lab in tup})
        assert labels == list(range(1, 9))

    def test_commas_and_whitespace(self):
        assert parse_pd("X(1,2,2,1)") == parse_pd(" X( 1 , 2 , 2 , 1 ) ")

    def test_labels_normalized(self):
        pd = parse_pd("X(10,20,20,10)")
        assert pd == [(1, 2, 2, 1)]

    def test_arity_error(self):
        with pytest.raises(DiagramError, match="arity"):
            parse_pd("X(1,1)")

    def test_closure_error(self):
        with pytest.raises(DiagramError, match="twice"):
            parse_pd("X(1,2,3,4)")

    def test_empty_error(self):
        with pytest.raises(DiagramError):
            parse_pd("   ")

    def test_garbage_error(self):
        with pytest.raises(DiagramError):
            parse_pd("garbage")


class TestBuildDiagram:
    def test_figure_eight_counts(self):
        d = build_diagram(parse_pd(FIG8_PD))
        assert (len(d.crossings), d.n, d.g) == (4, 6, 8)
        assert d.components == 1

    def test_figure_eight_signs(self):
        d = build_diagram(parse_pd(FIG8_PD))
        assert sorted(c.sign for c in d.crossings) == [-1, -1, 1, 1]

    def test_matches_builtin_structure(self, fig8):
        d = build_diagram(parse_pd(FIG8_PD))
        assert is_isomorphic(d, fig8)

    @pytest.mark.parametrize("pd_text,C", [
        (TREFOIL_PD, 3), (FIG8_PD, 4), (KNOT61_PD, 6), (KINK_PD, 1),
    ])
    def test_euler_counts(self, pd_text, C):
        d = build_diagram(parse_pd(pd_text))
        assert d.n == C + 2
        assert d.g == 2 * C

    def test_corner_incidences(self):
        # sides a, b touch region j; sides c, d touch region l
        for pd_text in (TREFOIL_PD, FIG8_PD, KNOT61_PD):
            d = build_diagram(parse_pd(pd_text))
            borders = side_region_borders(d)
            for cr in d.crossings:
                j, k, l, m = cr.regions
                a, b, c, dd = cr.sides
                assert any(j in pair for pair in borders[a])
                assert any(j in pair for pair in borders[b])
                assert any(l in pair for pair in borders[c])
                assert any(l in pair for pair in borders[dd])

    def test_each_side_borders_two_regions(self):
        d = build_diagram(parse_pd(KNOT61_PD))
        for pairs in side_region_borders(d).values():
            assert len(pairs) == 2 and pairs[0] == pairs[1]

    def test_disconnected_rejected(self):
        with pytest.raises(DiagramError, match="disconnected"):
            build_diagram(parse_pd("X(1,2,2,1) X(3,4,4,3)"))

    @pytest.mark.parametrize("pd_text,components,signs", [
        (WHITEHEAD_PD, 2, [-1, -1, -1, 1, 1]),
        (BORROMEAN_PD, 3, [-1, 1, 1, -1, 1, -1]),
        # the component of labels 1, 6, 7 and 5 never passes under; it runs
        # the way its labels increase
        ("X(4,7,2,6) X(3,1,4,6) X(8,1,3,5) X(2,7,8,5)", 2, [1, -1, 1, -1]),
    ], ids=["whitehead", "borromean", "never-under"])
    def test_link_components_and_signs(self, pd_text, components, signs):
        d = build_diagram(parse_pd(pd_text))
        assert d.components == components
        assert [c.sign for c in d.crossings] == signs

    @pytest.mark.parametrize("pd_text,message", [
        ("X(1,2,2,3) X(1,4,4,3)", "inconsistent orientation trace"),
        # labels 2, 3 enter under-crossings at slots 0 and 2; labels 1, 4,
        # traced first, never pass under and tie their ascents: the
        # inconsistency is reported
        ("X(2,4,3,1) X(2,1,3,4)", "inconsistent orientation trace"),
        ("X(4,1,4,2) X(2,3,1,3)", "cannot orient component without under-crossings"),
    ])
    def test_orientation_errors(self, pd_text, message):
        with pytest.raises(DiagramError, match=f"^{message}$"):
            build_diagram(parse_pd(pd_text))


class TestValidate:
    def test_figure_eight_report(self, fig8):
        rep = validate(fig8)
        assert (rep.crossings, rep.regions, rep.sides) == (4, 6, 8)
        assert rep.kinks == 0
        assert rep.euler_ok and rep.side_borders_ok

    def test_kink_unknot(self):
        d = build_diagram(parse_pd(KINK_PD))
        rep = validate(d)
        assert rep.kinks == 1
        assert rep.euler_ok

    def test_reidemeister_one_loop_detected(self):
        # figure-eight with an extra curl inserted on one arc
        curled = "X(4,2,5,9) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8) X(10,10,9,1)"
        d = build_diagram(parse_pd(curled))
        assert validate(d).kinks >= 1
        assert validate(d).euler_ok


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["4_1", "5_2", "T3", "T4"])
    def test_builtin_render_parse_build(self, name):
        d = builtin(name)
        rebuilt = build_diagram(parse_pd(render_pd(d)))
        assert is_isomorphic(rebuilt, d)

    def test_pd_built_round_trip(self):
        d = build_diagram(parse_pd(KNOT61_PD))
        rebuilt = build_diagram(parse_pd(render_pd(d)))
        assert is_isomorphic(rebuilt, d)


class TestJson:
    def test_round_trip(self, fig8):
        doc = to_json_dict(fig8)
        again = from_json_dict(json.loads(json.dumps(doc)))
        assert is_isomorphic(again, fig8)
        assert again.n == fig8.n and again.g == fig8.g

    def test_declared_counts_checked(self, fig8):
        doc = to_json_dict(fig8)
        doc["n"] = 99
        with pytest.raises(DiagramError, match="declared"):
            from_json_dict(doc)

    @pytest.mark.parametrize("edit", [
        {"regions": [[1], [2], [3], [4]]},
        {"regions": [1.0, 2, 3, 4]},
        {"sides": [1, 2, None, 4]},
        {"sides": [1, 2, 3, False]},
        {"sign": 1.5},
        {"sign": True},
        {"sign": 2},
        {"sign": "-1"},
        {"regions": [1, 2, 3]},
        {"sides": [1, 2, 3, 4, 5]},
        {"regions": "4213"},
        {"regions": {"4": 0, "2": 0, "1": 0, "3": 0}},
        {"sides": "abcd"},
    ])
    def test_malformed_crossing_named(self, fig8, edit):
        doc = to_json_dict(fig8)
        doc["crossings"][1].update(edit)
        with pytest.raises(DiagramError, match="^crossing 1 needs an integer sign"):
            from_json_dict(doc)

    def test_side_count_validated(self):
        bad = {"crossings": [
            {"sign": 1, "regions": [1, 2, 3, 4], "sides": [1, 2, 3, 4]},
        ]}
        with pytest.raises(DiagramError):
            from_json_dict(bad)


class TestBuiltin:
    def test_figure_eight_regions(self, fig8):
        assert fig8.regions == tuple(range(1, 7))
        assert len(fig8.crossings) == 4

    def test_t3_crossing_count(self):
        assert len(builtin("T3").crossings) == 6

    def test_twist_family_counts(self):
        for n in range(1, 6):
            d = builtin(f"T{n}")
            rep = validate(d)
            assert rep.crossings == n + 3
            assert rep.euler_ok and rep.side_borders_ok and rep.kinks == 0

    def test_5_2_is_t2(self):
        assert is_isomorphic(builtin("5_2"), builtin("T2"))

    def test_4_1_is_t1_relabelled(self, fig8):
        assert is_isomorphic(fig8, twist_diagram(1))

    def test_unknown_names(self):
        for bad in ("T0", "T6", "T05", "T+5", "unknot", "8_19"):
            with pytest.raises(DiagramError):
                builtin(bad)

    def test_built_once_per_process(self):
        assert builtin("T2") is builtin("T2")
        assert builtin("5_2") is builtin("T2") is twist_diagram(2)
        assert builtin("4_1") is builtin("4_1")


class TestCrossing:
    def test_sign_validation(self):
        with pytest.raises(DiagramError):
            Crossing(0, (1, 2, 3, 4), (1, 2, 3, 4))

    def test_kink_flag(self):
        c = Crossing(1, (1, 2, 3, 1), (1, 1, 2, 3))
        assert c.is_kinked()

    def test_from_crossings_counts_components(self):
        assert from_crossings(builtin("4_1").crossings).components == 1
        # The links trace each crossing's under- and over-strand in -> out
        # pairs across components.
        for pd, components in ((WHITEHEAD_PD, 2), (BORROMEAN_PD, 3)):
            d = build_diagram(parse_pd(pd))
            assert d.components == components
            assert from_crossings(d.crossings).components == d.components
