"""Tests for the decorated (reserve/relief) colouring construction."""

import hashlib
import json
import random

import pytest

from kchi.decorated import (
    DecoratedColouring,
    RegionPartition,
    _repair_cycle,
    _step_audit,
    critical_colouring,
    validate_decorated,
)
from kchi.errors import CertificateError, PremiseError
from kchi.factor import _edge_handout, _solver_for
from kchi.generators import gen_multigraph
from kchi.graphs import Multigraph

from helpers import (
    complete,
    cycle,
    random_multigraph,
    random_regions,
    random_simple,
    reference_step_audit,
    reference_validate_decorated,
    star,
)


def all_free(palette, n):
    return RegionPartition.all_free(palette, n)


class TestRegionPartition:
    def test_all_free(self):
        reg = all_free(3, 2)
        assert reg.free[0] == {0, 1, 2}
        assert reg.reserve[1] == frozenset()

    def test_not_a_partition(self):
        with pytest.raises(PremiseError, match="partition"):
            RegionPartition.from_sets(2, [{0, 1}], [{1}], [set()])

    def test_wrong_vertex_count(self):
        with pytest.raises(PremiseError, match="per vertex"):
            RegionPartition.from_sets(2, [{0, 1}], [set(), set()], [set()])

    def test_premise_fails_on_low_slack(self):
        reg = RegionPartition.from_sets(2, [{0}, {0, 1}, {0, 1}], [set()] * 3, [{1}, set(), set()])
        with pytest.raises(PremiseError, match="vertex 0: .* below degree 2"):
            critical_colouring(complete(3), 2, reg)


class TestCriticalColouring:
    def test_triangle_all_free(self):
        g = complete(3)
        dec = critical_colouring(g, 2, all_free(2, 3))
        assert dec.reserved == {} and dec.relief == {}
        assert dec.colour_of == {0: 0, 1: 0, 2: 0}
        assert dec.uncovered_at == {0: frozenset(), 1: frozenset({0, 1, 2})}
        assert validate_decorated(g, all_free(2, 3), dec).ok

    def test_five_cycle_all_free(self):
        g = cycle(5)
        reg = all_free(2, 5)
        dec = critical_colouring(g, 2, reg)
        assert set(dec.colour_of.values()) == {0}
        assert dec.uncovered_at[1] == frozenset(range(5))
        assert validate_decorated(g, reg, dec).ok

    def test_reserve_vertex_donates_edge(self):
        # Odd cycle where colour 0 is reserve at vertex 0: the edge to its
        # successor moves to the reserved set, tagged (0, 0); the rest of the
        # triangle is matched.
        g = complete(3)
        reg = RegionPartition.from_sets(
            2, [{1}, {0, 1}, {0, 1}], [{0}, set(), set()], [set()] * 3
        )
        dec = critical_colouring(g, 2, reg)
        assert dec.reserved == {0: (0, 0)}
        assert dec.relief == {}
        assert dec.colour_of == {2: 0, 1: 1}
        assert dec.uncovered_at == {0: frozenset(), 1: frozenset({1})}
        assert validate_decorated(g, reg, dec).ok

    def test_blocked_small_degree_vertex_skipped(self):
        # Vertex 0 blocks colour 0 but its degree (2) is below the remaining
        # palette (3), so it is simply left out: both its edges stay alive.
        g = complete(3)
        reg = RegionPartition.from_sets(
            3, [{1, 2}, {0, 1, 2}, {0, 1, 2}], [set()] * 3, [{0}, set(), set()]
        )
        dec = critical_colouring(g, 3, reg)
        assert dec.reserved == {} and dec.relief == {}
        assert dec.colour_of == {2: 0, 0: 1, 1: 2}
        assert dec.uncovered_at == {
            0: frozenset(),
            1: frozenset({2}),
            2: frozenset({1}),
        }
        assert validate_decorated(g, reg, dec).ok

    def test_blocked_vertex_is_covered_before_its_colour_comes_up(self):
        # Vertex 4 blocks colour 2 and sits on a triangle with the two
        # heavy vertices.  The covering rule marks it once (step 0, while
        # it still has plenty of slack), then covers it by degree priority
        # at step 1, so its blocked colour never catches it at full degree
        # and no repair is needed.
        g = Multigraph(5, [(0, 1), (0, 4), (1, 4), (0, 2), (0, 2), (1, 3), (1, 3)])
        reg = RegionPartition.from_sets(
            4,
            [{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 3}],
            [set()] * 5,
            [set(), set(), set(), set(), {2}],
        )
        dec = critical_colouring(g, 4, reg)
        assert dec.reserved == {} and dec.relief == {}
        assert dec.colour_of == {3: 0, 5: 0, 4: 1, 2: 1, 1: 2, 6: 2, 0: 3}
        assert dec.uncovered_at == {
            0: frozenset({4}),
            1: frozenset({3}),
            2: frozenset({2}),
            3: frozenset({2, 3, 4}),
        }
        assert validate_decorated(g, reg, dec).ok

    def test_premise_violation_names_vertex(self):
        g = complete(3)
        reg = RegionPartition.from_sets(
            2, [{0}, {0, 1}, {0, 1}], [set()] * 3, [{1}, set(), set()]
        )
        with pytest.raises(PremiseError, match="vertex 0"):
            critical_colouring(g, 2, reg)

    def test_palette_mismatch(self):
        with pytest.raises(PremiseError, match="palette"):
            critical_colouring(complete(3), 3, all_free(2, 3))

    def test_edgeless_graph_marks_everything(self):
        g = Multigraph(3, [])
        reg = all_free(2, 3)
        dec = critical_colouring(g, 2, reg)
        assert dec.colour_of == {}
        assert dec.uncovered_at[0] == frozenset({0, 1, 2})
        assert validate_decorated(g, reg, dec).ok

    def test_edgeless_graph_longer_palette(self):
        # no edge at any step: every colour marks every vertex
        g = Multigraph(4, [])
        reg = all_free(5, 4)
        dec = critical_colouring(g, 5, reg)
        everyone = frozenset(range(4))
        assert dec == DecoratedColouring({}, {}, {}, {c: everyone for c in range(5)})
        assert validate_decorated(g, reg, dec).ok

    def test_edgeless_graphs_get_the_closed_form_decoration(self):
        rng = random.Random(20261022)
        for n in range(13):
            g = Multigraph(n, [])
            for palette in range(7):
                for _ in range(3):
                    regions = random_regions(g, palette, rng)
                    dec = critical_colouring(g, palette, regions)
                    assert dec == DecoratedColouring.edgeless(n, palette)
                    assert dec == DecoratedColouring(
                        {}, {}, {}, {c: frozenset(range(n)) for c in range(palette)}
                    )
                    assert validate_decorated(g, regions, dec).ok

    def test_edges_run_out_before_the_palette(self):
        # K_{1,3} with six colours: the star is spent after three steps, and
        # the last three colours leave every vertex unspanned
        g = star(3)
        everyone = frozenset(range(4))
        expected = DecoratedColouring(
            {}, {}, {0: 0, 1: 1, 2: 2},
            {0: frozenset({2, 3}), 1: frozenset({1, 3}), 2: frozenset({1, 2}),
             3: everyone, 4: everyone, 5: everyone},
        )
        mixed = RegionPartition.from_sets(
            6,
            [{0, 1, 2, 3}, {1, 5}, {0}, {2, 3, 4}],
            [{4}, {0}, {1, 2}, {5}],
            [{5}, {2, 3, 4}, {3, 4, 5}, {0, 1}],
        )
        for reg in (all_free(6, 4), mixed):
            dec = critical_colouring(g, 6, reg)
            assert dec == expected
            assert validate_decorated(g, reg, dec).ok

    def test_empty_graph_empty_palette(self):
        g = Multigraph(0, [])
        dec = critical_colouring(g, 0, RegionPartition(0, (), (), ()))
        assert dec.colour_of == {} and dec.uncovered_at == {}

    def test_deterministic(self):
        g = Multigraph(5, [(0, 1), (0, 4), (1, 4), (0, 2), (0, 2), (1, 3), (1, 3)])
        reg = random_regions(g, 5, random.Random(7))
        first = critical_colouring(g, 5, reg)
        second = critical_colouring(g, 5, reg)
        assert first == second

    def test_forced_clash_is_retried(self):
        # On this instance the default tie-break eventually has to leave a
        # vertex uncovered right beside an older mark (no covering choice
        # avoids it at that point).  The perturbed retry takes a different
        # trajectory through the earlier steps and decorates cleanly.
        from kchi.decorated import _MarkingClash, _colouring_attempt

        g = Multigraph(9, [
            (0, 1), (0, 2), (0, 5), (0, 5), (0, 6), (0, 8), (1, 3), (1, 5),
            (1, 5), (1, 5), (1, 7), (1, 8), (1, 8), (1, 8), (2, 5), (2, 5),
            (2, 5), (2, 6), (2, 6), (2, 6), (2, 6), (2, 7), (3, 4), (3, 5),
            (3, 5), (3, 5), (3, 5), (4, 6), (4, 7), (4, 7), (4, 7), (4, 7),
        ])
        reg = RegionPartition.from_sets(
            12,
            [
                {0, 4, 5, 6, 7, 8, 9, 10, 11},
                set(range(12)),
                set(),
                {0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11},
                {0, 2, 3, 8, 9, 11},
                {1, 4, 5, 6, 8, 10},
                {0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11},
                {2, 3, 5, 6, 7, 8, 9, 10, 11},
                {2, 8},
            ],
            [
                {1, 2, 3}, set(), set(range(12)), set(), {1, 5, 6, 10},
                {0, 2, 3, 7, 9, 11}, set(), {4},
                {0, 3, 4, 5, 6, 7, 9, 11},
            ],
            [
                set(), set(), set(), {2}, {4, 7}, set(), {4}, {0, 1},
                {1, 10},
            ],
        )
        with pytest.raises(_MarkingClash):
            _colouring_attempt(g, 12, reg, 0)
        dec = critical_colouring(g, 12, reg)
        assert validate_decorated(g, reg, dec).ok


class TestCycleRepair:
    """The odd-cycle dispatch, one repair route at a time.

    The colouring drives this through the factor solver, whose covering
    rule steers graphs away from the later routes, so each route is
    exercised directly here on a hand-built cycle.
    """

    def run(self, g, cyc, c, remaining, regions, deg_now):
        reserved, relief, colour_of = {}, {}, {}
        _repair_cycle(
            cyc, c, remaining, regions, deg_now,
            _edge_handout(g, _solver_for(g)), reserved, relief, colour_of,
        )
        return reserved, relief, colour_of

    def test_all_free_cycle_kept_whole(self):
        g = cycle(5)
        reserved, relief, colour_of = self.run(
            g, (0, 1, 2, 3, 4), 0, 3, all_free(3, 5), [2] * 5
        )
        assert reserved == {} and relief == {}
        assert sorted(colour_of) == list(range(5))

    def test_reserve_donation_spares_other_edges(self):
        g = complete(3)
        reg = RegionPartition.from_sets(
            2, [{1}, {0, 1}, {0, 1}], [{0}, set(), set()], [set()] * 3
        )
        reserved, relief, colour_of = self.run(g, (0, 1, 2), 0, 2, reg, [2] * 3)
        # vertex 0 donates the edge to its cycle successor; 1-2 is matched
        assert reserved == {0: (0, 0)}
        assert relief == {}
        assert colour_of == {2: 0}

    def test_lowest_reserve_vertex_wins(self):
        g = complete(3)
        reg = RegionPartition.from_sets(
            2, [{1}, {1}, {0, 1}], [{0}, {0}, set()], [set()] * 3
        )
        reserved, _, _ = self.run(g, (2, 0, 1), 0, 2, reg, [2] * 3)
        assert list(reserved.values()) == [(0, 0)]

    def test_small_blocked_vertex_left_unspanned(self):
        g = complete(3)
        reg = RegionPartition.from_sets(
            3, [{1, 2}, {0, 1, 2}, {0, 1, 2}], [set()] * 3, [{0}, set(), set()]
        )
        reserved, relief, colour_of = self.run(g, (0, 1, 2), 0, 3, reg, [2] * 3)
        assert reserved == {} and relief == {}
        # both edges at the skipped vertex 0 stay alive for later colours
        assert colour_of == {2: 0}

    def test_reserve_beats_blocked_skip(self):
        g = complete(3)
        reg = RegionPartition.from_sets(
            3, [{1, 2}, {1, 2}, {0, 1, 2}], [set(), {0}, set()], [{0}, set(), set()]
        )
        reserved, relief, colour_of = self.run(g, (0, 1, 2), 0, 3, reg, [2] * 3)
        assert reserved == {2: (1, 0)} and relief == {}
        assert colour_of == {1: 0}

    def test_relief_pair_around_full_blocked_vertex(self):
        g = cycle(5)
        reg = RegionPartition.from_sets(
            2,
            [{0, 1}, {0, 1}, {1}, {0, 1}, {0, 1}],
            [set()] * 5,
            [set(), set(), {0}, set(), set()],
        )
        reserved, relief, colour_of = self.run(
            g, (0, 1, 2, 3, 4), 0, 2, reg, [2] * 5
        )
        assert reserved == {}
        # the two predecessors of the blocked vertex form the cherry
        assert relief == {0: 0, 1: 0}
        assert colour_of == {3: 0}

    def test_relief_scan_wraps_around(self):
        g = cycle(5)
        reg = RegionPartition.from_sets(
            2,
            [{1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}],
            [set()] * 5,
            [{0}, set(), set(), set(), set()],
        )
        reserved, relief, colour_of = self.run(
            g, (0, 1, 2, 3, 4), 0, 2, reg, [2] * 5
        )
        # blocked vertex is cyc[0], so the cherry comes from cyc[3], cyc[4]
        assert relief == {3: 0, 4: 0}
        assert colour_of == {1: 0}

    def test_unrepairable_cycle_raises(self):
        g = complete(3)
        reg = RegionPartition.from_sets(
            2, [{1}] * 3, [set()] * 3, [{0}] * 3
        )
        with pytest.raises(CertificateError, match="no repair"):
            self.run(g, (0, 1, 2), 0, 2, reg, [2] * 3)


class TestValidateDecorated:
    def test_rejects_even_monochromatic_cycle(self):
        g = cycle(4)
        dec = DecoratedColouring({}, {}, {e: 0 for e in range(4)}, {})
        report = validate_decorated(g, all_free(2, 4), dec)
        assert not report.ok
        assert any("neither an edge nor an odd cycle" in f for f in report.failures)

    def test_rejects_adjacent_marks(self):
        g = Multigraph(2, [(0, 1)])
        dec = DecoratedColouring({}, {}, {0: 0}, {0: frozenset({0, 1})})
        report = validate_decorated(g, all_free(1, 2), dec)
        assert not report.ok
        assert any("joined by edge" in f for f in report.failures)

    def test_rejects_unspanned_full_degree_vertex(self):
        g = complete(3)
        dec = DecoratedColouring({}, {}, {0: 1, 1: 1, 2: 1}, {})
        report = validate_decorated(g, all_free(2, 3), dec)
        assert not report.ok
        assert any("unspanned" in f for f in report.failures)

    def test_rejects_degree_above_remaining_slack(self):
        g = star(2)
        reg = RegionPartition.from_sets(
            2, [{0, 1}, {0, 1}, {0}], [set()] * 3, [set(), set(), {1}]
        )
        dec = critical_colouring(g, 2, reg)
        assert validate_decorated(g, reg, dec).ok
        tampered = DecoratedColouring(
            dec.reserved, dec.relief, dec.colour_of, {0: frozenset(), 1: dec.uncovered_at[0]}
        )
        report = validate_decorated(g, reg, tampered)
        assert not report.ok
        assert any("above its remaining" in f for f in report.failures)

    def test_rejects_alpha_outside_reserve(self):
        g = complete(3)
        reg = RegionPartition.from_sets(
            2, [{1}, {0, 1}, {0, 1}], [{0}, set(), set()], [set()] * 3
        )
        dec = critical_colouring(g, 2, reg)
        tampered = DecoratedColouring({0: (0, 1)}, {}, dec.colour_of, dec.uncovered_at)
        report = validate_decorated(g, reg, tampered)
        assert not report.ok
        assert any("reserve" in f for f in report.failures)

    def test_rejects_missing_edge(self):
        g = complete(3)
        dec = DecoratedColouring({}, {}, {0: 0, 1: 1}, {})
        report = validate_decorated(g, all_free(2, 3), dec)
        assert not report.ok
        assert any("assigned nowhere" in f for f in report.failures)


class TestValidatorClauses:
    """One input per clause of ``validate_decorated``, each naming its failure."""

    # C5 with colour 0 blocked at vertex 2: the cherry 0-1-2 of colour 0 is a
    # relief pair (middle 1 free, end 0 free, end 2 blocked), edge 3-4 has
    # colour 0 and edges 2-3 and 4-0 colour 1
    RELIEF = DecoratedColouring({}, {0: 0, 1: 0}, {3: 0, 2: 1, 4: 1}, {0: frozenset(), 1: frozenset({1})})

    @staticmethod
    def c5_regions(free_1=(0, 1, 2), free_2=(1, 2)):
        free = [{0, 1, 2}, set(free_1), set(free_2), {0, 1, 2}, {0, 1, 2}]
        return RegionPartition.from_sets(3, free, [set()] * 5, [{0, 1, 2} - f for f in free])

    def test_relief_cherry_accepted(self):
        report = validate_decorated(cycle(5), self.c5_regions(), self.RELIEF)
        assert report.ok, report.failures

    @pytest.mark.parametrize(
        "relief, colour_of, free_1, free_2, failure",
        [
            ({0: 5, 1: 5}, {3: 0, 2: 1, 4: 1}, (0, 1, 2), (1, 2), "β colour 5 outside the palette"),
            ({0: 0, 1: 0, 2: 0}, {3: 1, 4: 2}, (0, 1, 2), (1, 2),
             "β colour 0: component (0, 1, 2, 3) is not a length-2 path"),
            ({0: 0, 1: 0}, {3: 0, 2: 1, 4: 1}, (1, 2), (1, 2), "β colour 0: middle vertex 1 lacks it as free"),
            ({0: 0, 1: 0}, {3: 0, 2: 1, 4: 1}, (0, 1, 2), (0, 1, 2),
             "β colour 0: endpoints [0, 2] lack the free/blocked pattern"),
            ({0: 0, 1: 0}, {2: 0, 3: 1, 4: 2}, (0, 1, 2), (1, 2), "β vertex 2 not isolated in colour class 0"),
        ],
    )
    def test_relief_cherry_rejected(self, relief, colour_of, free_1, free_2, failure):
        dec = DecoratedColouring({}, relief, colour_of, self.RELIEF.uncovered_at)
        report = validate_decorated(cycle(5), self.c5_regions(free_1, free_2), dec)
        assert failure in report.failures

    @pytest.mark.parametrize(
        "reserved, colour_of, failure",
        [
            ({0: (0, 0), 1: (0, 0)}, {2: 0}, "α not injective: tag (0, 0) repeated"),
            ({0: (2, 0)}, {1: 1, 2: 0}, "α tag vertex 2 is not an endpoint of edge 0"),
            ({0: (0, 7)}, {1: 1, 2: 0}, "α colour 7 outside the palette"),
            ({0: (0, 0)}, {0: 1, 1: 1, 2: 0}, "reserved/relief/coloured edge sets overlap"),
            ({0: (0, 0)}, {1: 1, 2: 0, 9: 0}, "coloured refers to unknown edges [9]"),
            ({}, {0: 0, 1: 0, 2: 0}, "odd cycle of colour 0 visits vertex 0 without it free"),
        ],
    )
    def test_alpha_edge_set_and_cycle_clauses(self, reserved, colour_of, failure):
        # K3 whose vertex 0 holds colour 0 in reserve, not free
        reg = RegionPartition.from_sets(2, [{1}, {0, 1}, {0, 1}], [{0}, set(), set()], [set()] * 3)
        report = validate_decorated(complete(3), reg, DecoratedColouring(reserved, {}, colour_of, {}))
        assert failure in report.failures


class TestStepAudit:
    """Tampered decorations: every per-step failure string, in its order."""

    def test_k4_with_moved_edges_and_stray_marks(self):
        g = complete(4)
        reg = all_free(3, 4)
        colour_of = {1: 0, 4: 0, 0: 2, 5: 7, 2: 2, 3: 2}
        marks = {0: frozenset({0, 1}), 9: frozenset({2}), -1: frozenset(), 2: frozenset({0, 3})}
        dec = DecoratedColouring({}, {}, colour_of, marks)
        step = [
            "marking recorded for unknown colour 9",
            "marking recorded for unknown colour -1",
            "marked vertices 0 (step 0) and 1 (step 0) joined by edge 0 still alive then",
            "marked vertices 0 (step 2) and 1 (step 0) joined by edge 0 still alive then",
            "marked vertices 0 (step 0) and 3 (step 2) joined by edge 2 still alive then",
            "marked vertices 0 (step 2) and 3 (step 2) joined by edge 2 still alive then",
            "step 1: vertex 0 has full degree but is unspanned",
            "step 1: vertex 1 has full degree but is unspanned",
            "step 1: vertex 2 has full degree but is unspanned",
            "step 1: vertex 3 has full degree but is unspanned",
            "after step 1: unmarked vertex 2 has degree 2 above its remaining free+reserve 1",
            "after step 1: unmarked vertex 3 has degree 2 above its remaining free+reserve 1",
            "after step 2: unmarked vertex 2 has degree 1 above its remaining free+reserve 0",
        ]
        assert _step_audit(g, reg, dec) == step
        assert validate_decorated(g, reg, dec).failures == [
            "colour 2: component (0, 1, 2, 3) is neither an edge nor an odd cycle",
            "f colour 7 outside the palette",
        ] + step

    def test_mixed_regions_with_a_reserve_tag(self):
        g = Multigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 2)])
        reg = RegionPartition.from_sets(
            4,
            [{0, 1}, {0, 1, 2}, {2, 3}, {0}, {1, 2, 3}],
            [{2}, {3}, {0}, {1, 2}, set()],
            [{3}, set(), {1}, {3}, {0}],
        )
        assert validate_decorated(g, reg, critical_colouring(g, 4, reg)).ok
        dec = DecoratedColouring(
            {4: (1, 3)}, {}, {0: 3, 1: 0, 2: 1, 3: -2},
            {1: frozenset({0, 4}), 0: frozenset({4, 2}), 3: frozenset({2, 3, 4})},
        )
        step = [
            "step 2: vertex 1 has full degree but is unspanned",
            "after step 2: unmarked vertex 1 has degree 2 above its remaining free+reserve 1",
            "after step 2: unmarked vertex 3 has degree 1 above its remaining free+reserve 0",
            "step 3: vertex 3 has full degree but is unspanned",
            "step 3: vertex 4 has full degree but is unspanned",
        ]
        assert _step_audit(g, reg, dec) == step
        assert validate_decorated(g, reg, dec).failures == [
            "α vertex 1 not isolated in colour class 3",
            "f colour -2 outside the palette",
        ] + step

    def test_repeated_marks_in_descending_order(self):
        g = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
        reg = all_free(3, 3)
        dec = DecoratedColouring(
            {}, {}, {0: 5, 1: 0, 2: 1},
            {2: frozenset({0, 1, 2}), 1: frozenset({0}), 0: frozenset({1, 2})},
        )
        step = [
            "marked vertices 0 (step 2) and 1 (step 2) joined by edge 0 still alive then",
            "marked vertices 0 (step 2) and 1 (step 0) joined by edge 0 still alive then",
            "marked vertices 0 (step 1) and 1 (step 2) joined by edge 0 still alive then",
            "marked vertices 0 (step 1) and 1 (step 0) joined by edge 0 still alive then",
            "marked vertices 1 (step 0) and 2 (step 0) joined by edge 2 still alive then",
            "step 2: vertex 0 has full degree but is unspanned",
            "step 2: vertex 1 has full degree but is unspanned",
        ]
        assert _step_audit(g, reg, dec) == step
        assert validate_decorated(g, reg, dec).failures == ["f colour 5 outside the palette"] + step


def _tampered(g, palette, dec, rng):
    """``dec`` with some edges moved to random steps (some outside the
    palette), and marks added, dropped, re-keyed and reordered."""
    steps = range(-1, palette + 2)
    reserved, relief, colour_of = dict(dec.reserved), dict(dec.relief), dict(dec.colour_of)
    for e in range(g.m):
        if rng.random() < 0.3:
            for part in (reserved, relief, colour_of):
                part.pop(e, None)
            c, kind = rng.choice(steps), rng.randrange(3)
            if kind == 0:
                reserved[e] = (rng.choice(g.endpoints(e)), c)
            elif kind == 1:
                relief[e] = c
            else:
                colour_of[e] = c
    marks = dict(dec.uncovered_at)
    for _ in range(rng.randint(0, 4)):
        c = rng.choice(steps) if rng.random() < 0.8 else rng.randint(palette + 2, palette + 9)
        marks[c] = frozenset(x for x in range(g.n + 1) if rng.random() < 0.4)
    for c in list(marks):
        if rng.random() < 0.15:
            del marks[c]
    order = list(marks.items())
    rng.shuffle(order)
    return DecoratedColouring(reserved, relief, colour_of, dict(order))


def _random_decoration(rng):
    """A random host (n ≤ 9, parallel edges), palette ≤ 6 and regions, with
    a real decoration from ``critical_colouring``, a tampered copy of one,
    or random steps and marks."""
    g = random_multigraph(rng.randint(1, 9), 3, rng.uniform(0.1, 0.7), rng)
    palette = rng.randint(max(1, g.max_degree()), max(6, g.max_degree()))
    dec = None
    if g.max_degree() <= palette <= 6 and rng.random() < 0.6:
        regions = random_regions(g, palette, rng)
        try:
            dec = critical_colouring(g, palette, regions)
        except CertificateError:
            pass
    else:
        palette = rng.randint(1, 6)
        regions = random_regions(Multigraph(g.n, []), palette, rng)
    if dec is None:
        dec = DecoratedColouring({}, {}, {e: rng.randrange(palette) for e in range(g.m)}, {})
        return g, regions, _tampered(g, palette, dec, rng)
    return g, regions, dec if rng.random() < 0.3 else _tampered(g, palette, dec, rng)


def test_step_audit_matches_the_per_vertex_reference():
    """The live-vertex step audit lists the reference's failures, in order,
    on small random decorations and on constructor-shaped edgeless graphs
    (every conflict graph of the immerse_dense inputs has no edge)."""
    rng = random.Random(20261020)
    failing = 0
    for case in range(5000):
        g, regions, dec = _random_decoration(rng)
        got = _step_audit(g, regions, dec)
        assert got == reference_step_audit(g, regions, dec), case
        failing += bool(got)
    assert failing > 2000
    for case in range(40):
        n, palette = rng.randint(1, 150), rng.randint(1, 1500)
        g = Multigraph(n, [])
        regions = random_regions(g, palette, rng)
        dec = critical_colouring(g, palette, regions)
        if case % 2:
            dec = _tampered(g, palette, dec, rng)
        assert _step_audit(g, regions, dec) == reference_step_audit(g, regions, dec), case


def test_validator_matches_the_component_reference():
    """The β and f clauses, walking only each class's edges, list the
    reference's failures in order, on the step audit's corpus."""
    rng = random.Random(20261021)
    beta = f_clause = 0
    for case in range(3000):
        g, regions, dec = _random_decoration(rng)
        got = validate_decorated(g, regions, dec)
        want = reference_validate_decorated(g, regions, dec)
        assert (got.ok, got.failures, got.details) == (want.ok, want.failures, want.details), case
        beta += any(f.startswith("β") for f in got.failures)
        f_clause += any("neither an edge" in f or "without it free" in f for f in got.failures)
    assert beta > 300 and f_clause > 300, (beta, f_clause)


class TestCampaign:
    def test_random_graphs_random_regions(self):
        rng = random.Random(20260815)
        for trial in range(150):
            n = rng.randint(1, 11)
            g = random_simple(n, rng.uniform(0.15, 0.7), rng)
            palette = g.max_degree() + rng.randint(0, 2)
            if palette == 0:
                continue
            reg = random_regions(g, palette, rng)
            dec = critical_colouring(g, palette, reg)
            report = validate_decorated(g, reg, dec)
            assert report.ok, (trial, g.edges, report.failures[:4])

    def test_multigraph_campaign(self):
        rng = random.Random(99)
        for trial in range(60):
            n = rng.randint(2, 8)
            pairs = []
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.35:
                        pairs.extend([(u, v)] * rng.randint(1, 3))
            g = Multigraph(n, pairs)
            palette = g.max_degree() + rng.randint(0, 1)
            if palette == 0:
                continue
            reg = random_regions(g, palette, rng)
            dec = critical_colouring(g, palette, reg)
            assert validate_decorated(g, reg, dec).ok, (trial, g.edges)

    def test_every_edge_assigned_exactly_once(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_simple(rng.randint(2, 10), 0.5, rng)
            palette = max(g.max_degree(), 1) + 1
            reg = random_regions(g, palette, rng)
            dec = critical_colouring(g, palette, reg)
            ids = sorted(
                list(dec.reserved) + list(dec.relief) + list(dec.colour_of)
            )
            assert ids == list(range(g.m))


# Digest of the decorated colourings below, recorded before the factor
# solver's S and T became bitmasks; the solver must keep every choice.
CRITICAL_COLOURINGS = "f6e0808de2518157d27be3d63b9cc99242e27f537f2dd0379d3f427b863f3143"


def test_critical_colourings_pinned():
    """sha256 over ``critical_colouring`` on 300 seeded ``gen_multigraph``
    graphs (n ≤ 24) with random regions that meet the premise, then on the
    all-free input whose tie-breaks all clash.  About 40% of the solves have
    S ≠ ∅, so the prioritised rebuild of H[S ∪ T] decides the marks; a
    raised ``CertificateError`` is hashed by its message.
    """
    rng = random.Random(20262)
    cases = []
    for i in range(300):
        n, density, seed = 1 + i % 24, rng.random(), rng.randrange(2**32)
        g = gen_multigraph(n, density, seed, max_mult=rng.randint(1, 3))
        palette = g.max_degree() + rng.randint(0, 2)
        if palette:
            cases.append((g, palette, random_regions(g, palette, rng)))
    clash = Multigraph(8, [(0, 5), (0, 7), (1, 3), (1, 3), (1, 3), (1, 3), (3, 4), (3, 4),
                           (3, 6), (3, 6), (3, 6), (3, 6), (4, 5), (6, 7)])
    cases.append((clash, 10, all_free(10, 8)))
    h = hashlib.sha256()
    for g, palette, reg in cases:
        try:
            dec = critical_colouring(g, palette, reg)
        except CertificateError as exc:
            h.update(str(exc).encode() + b"\n")
            continue
        h.update(json.dumps([
            sorted(dec.reserved.items()),
            sorted(dec.relief.items()),
            sorted(dec.colour_of.items()),
            sorted((c, sorted(xs)) for c, xs in dec.uncovered_at.items()),
        ]).encode() + b"\n")
    assert h.hexdigest() == CRITICAL_COLOURINGS
