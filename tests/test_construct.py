"""Tests for the bridge digraph and the level-chain immersion constructor."""

import hashlib
import inspect
import random
import sys
import time
from collections import Counter
from itertools import combinations

import pytest

import kchi.construct
from kchi.construct import (
    BridgeArc,
    BridgeDigraph,
    _immerse,
    assign_bridges,
    audit_out_degree,
    build_bridge_digraph,
    construct_immersion,
    decorated_regions,
    restrict_out_degree,
)
from kchi.decorated import DecoratedColouring, critical_colouring, validate_decorated
from kchi.errors import CertificateError, PremiseError
from kchi.generators import emit_certificate, gen_alpha2
from kchi.graphs import Multigraph, alpha_at_most_2
from kchi.immersion import (
    Immersion,
    PairColouring,
    _with_split,
    chi_alpha2,
    refine_split,
    run_colouring_audits,
    verify_immersion,
)
from kchi.oracles import brute_chi

from helpers import cocktail, complete, cycle, path, reference_immerse, written_out


def random_alpha2(n, density, rng):
    have = [[False] * n for _ in range(n)]
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, w in pairs:
        if rng.random() > density:
            continue
        if any(have[u][x] and have[w][x] for x in range(n)):
            continue
        have[u][w] = have[w][u] = True
    return Multigraph(
        n, [(u, w) for u in range(n) for w in range(u + 1, n) if not have[u][w]]
    )


def checked(g):
    imm = construct_immersion(g)
    chi, _ = chi_alpha2(g)
    rep = verify_immersion(g, imm, chi)
    assert rep.ok, rep.failures
    return chi, imm


class TestSmallGraphs:
    def test_complete_graphs_are_identities(self):
        chi, imm = checked(complete(4))
        assert chi == 4 and imm.corners == (0, 1, 2, 3)
        assert imm.paths == {
            (0, 1): (0,), (0, 2): (1,), (0, 3): (2,),
            (1, 2): (3,), (1, 3): (4,), (2, 3): (5,),
        }

    def test_c5(self):
        chi, imm = checked(cycle(5))
        assert chi == 3
        assert imm.corners == (0, 3, 4)
        assert imm.paths == {(0, 3): (0, 1, 2), (0, 4): (4,), (3, 4): (3,)}

    def test_cocktail_party(self):
        chi, imm = checked(cocktail(3))
        assert chi == 3
        assert imm.corners == (1, 3, 5)
        assert imm.paths == {(1, 3): (5,), (1, 5): (7,), (3, 5): (11,)}

    def test_assorted_named_graphs(self):
        for g in [complete(1), complete(2), complete(6), cycle(4), path(3),
                  path(4), cocktail(2), cocktail(4)]:
            chi, _ = checked(g)
            assert chi == brute_chi(g)

    def test_rejects_alpha_above_two(self):
        with pytest.raises(PremiseError, match="three pairwise non-adjacent"):
            construct_immersion(cycle(7))

    def test_parallel_edges_are_usable(self):
        g = Multigraph(2, [(0, 1), (0, 1)])
        chi, imm = checked(g)
        assert chi == 2 and imm.paths == {(0, 1): (0,)}


class TestStress:
    def test_brute_chi_concordance_small(self):
        rng = random.Random(6104)
        for _ in range(300):
            g = random_alpha2(rng.randint(1, 12), rng.random(), rng)
            chi, imm = checked(g)
            assert chi == brute_chi(g), list(g.edges)

    def test_verified_at_scale(self):
        rng = random.Random(40991)
        for _ in range(150):
            g = random_alpha2(rng.randint(1, 40), rng.random(), rng)
            checked(g)

    def test_one_blossom_matching_per_construction(self, monkeypatch):
        # chi_alpha2's matching serves the top level; every deeper level is
        # a restriction of the level above's colouring and needs no matching
        counts = {"blossom": 0, "levels": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(kchi.immersion, "maximum_matching",
                            counted("blossom", kchi.immersion.maximum_matching))
        monkeypatch.setattr(kchi.construct, "run_colouring_audits",
                            counted("levels", kchi.construct.run_colouring_audits))
        rng = random.Random(7117)
        hosts = [random_alpha2(rng.randint(1, 30), rng.random(), rng) for _ in range(60)]
        deep = 0
        for g in hosts + [gen_alpha2(300, 0.003, 101)]:
            counts.update(blossom=0, levels=0)
            construct_immersion(g)
            assert counts["blossom"] == 1, list(g.edges)
            deep += counts["levels"] > 1
        assert deep >= 20
        assert counts["levels"] >= 50  # the near-complete host's level chain

    def test_corner_floor(self):
        # χ ≥ n/2 whenever no three vertices are pairwise non-adjacent
        rng = random.Random(52)
        for _ in range(80):
            g = random_alpha2(rng.randint(1, 30), rng.random(), rng)
            chi, imm = checked(g)
            assert len(imm.corners) >= (g.n + 1) // 2


# --------------------------------------------------------------------------
# Five engineered hosts that force specific certificate shapes through the
# conflict-graph machinery.  Layout everywhere: attached classes {p_i, c_i}
# owned by the last vertex v (adjacent to each c_i only), detached classes
# {q_k, r_k} whose recursion picks r_k as far corner.

PP3 = [(0, 2), (0, 4), (2, 4)]
CC3 = [(1, 3), (1, 5), (3, 5)]
CP3 = [(1, 2), (1, 4), (0, 3), (3, 4), (0, 5), (2, 5)]
V3 = [(1, 10), (3, 10), (5, 10), (6, 10), (7, 10), (8, 10), (9, 10)]
YY2 = [(6, 8), (6, 9), (7, 8), (7, 9)]

# all six mutual arcs survive, both far corners need bridges everywhere:
# one colour keeps the whole conflict triangle as an odd cycle
TRIANGLE_HOST = Multigraph(
    11,
    PP3 + CC3 + CP3 + V3 + YY2
    + [(0, 7), (2, 7), (4, 7)] + [(0, 9), (2, 9), (4, 9)]
    + [(1, 6), (3, 6), (5, 6)] + [(1, 8), (3, 8), (5, 8)],
)

# same host with one extra edge (0, 6): class 0 gains a detour through the
# detached vertex 6, the triangle loses an arc and becomes a path
YMID_HOST = Multigraph(
    11,
    PP3 + CC3 + CP3 + V3 + YY2
    + [(0, 7), (2, 7), (4, 7)] + [(0, 9), (2, 9), (4, 9)]
    + [(0, 6), (1, 6), (3, 6), (5, 6)] + [(1, 8), (3, 8), (5, 8)],
)

# reserve at class 0 for the first colour and at class 2 for the second:
# the odd cycle is repaired by donating one arc
ALPHA_HOST = Multigraph(
    11,
    PP3 + CC3 + CP3 + V3 + YY2
    + [(1, 7), (2, 7), (4, 7)] + [(0, 6), (3, 6), (5, 6)]
    + [(0, 9), (2, 9), (5, 9)] + [(1, 8), (3, 8), (4, 8)],
)

# two classes, three detached: the conflict edge's colour is free on one
# side and blocked on the other, so one bridge shortcuts through the
# neighbouring inner half
SHORTCUT_HOST = Multigraph(
    11,
    [(0, 2), (1, 3), (1, 2), (0, 3)]
    + [(1, 10), (3, 10), (4, 10), (5, 10), (6, 10), (7, 10), (8, 10), (9, 10)]
    + [(4, 6), (4, 7), (4, 8), (4, 9), (5, 6), (5, 7), (5, 8), (5, 9),
       (6, 8), (6, 9), (7, 8), (7, 9)]
    + [(1, 4), (3, 4)] + [(0, 5), (2, 5), (3, 5)]
    + [(0, 6), (1, 6), (2, 6), (3, 6)] + [(1, 7), (3, 7)]
    + [(1, 8), (3, 8)] + [(0, 9), (1, 9), (2, 9)],
)

# the conflict edge's colour is blocked on both sides: one direction is
# flagged and its later bridge detours through that colour's corner
DETOUR_HOST = Multigraph(
    9,
    [(0, 2), (1, 3), (1, 2), (0, 3)]
    + [(1, 8), (3, 8), (4, 8), (5, 8), (6, 8), (7, 8)]
    + [(4, 6), (4, 7), (5, 6), (5, 7)]
    + [(0, 5), (1, 5), (2, 5), (3, 5)] + [(1, 4), (3, 4)]
    + [(0, 7), (2, 7)] + [(1, 6), (3, 6)],
)


def spy_assignments(monkeypatch):
    seen = []
    original = kchi.construct.assign_bridges

    def wrapper(d, dec):
        routes = original(d, dec)
        seen.append((d, dec, routes))
        return routes

    monkeypatch.setattr(kchi.construct, "assign_bridges", wrapper)
    return seen


class TestBridgeDigraph:
    def digraph(self):
        g = TRIANGLE_HOST
        _, col = chi_alpha2(g)
        return g, refine_split(g, col)

    def test_triangle_host_shape(self):
        g, col = self.digraph()
        assert col.attached == ((0, 1), (2, 3), (4, 5))
        assert col.detached == ((6, 7), (8, 9))
        d = build_bridge_digraph(g, col, 10, (7, 9))
        assert d.x_nodes == ((0, 1), (2, 3), (4, 5))
        assert d.inner == (0, 2, 4) and d.corner == (1, 3, 5)
        assert d.bridged == (frozenset({7, 9}),) * 3
        assert d.droppable == (frozenset(),) * 3
        assert [(a.tail, a.head, a.mid) for a in d.arcs] == [
            (0, ("x", 1), 2), (0, ("x", 2), 4),
            (1, ("x", 0), 0), (1, ("x", 2), 4),
            (2, ("x", 0), 0), (2, ("x", 1), 2),
        ]
        assert audit_out_degree(d) == []

    def test_restriction_keeps_exactly_the_budget(self):
        g, col = self.digraph()
        d = restrict_out_degree(build_bridge_digraph(g, col, 10, (7, 9)))
        assert len(d.arcs) == 6  # budget two per class, all mutual
        assert list(d.conflict.edges) == [(0, 1), (0, 2), (1, 2)]

    def test_regions_translate_corner_types(self):
        g, col = self.digraph()
        d = restrict_out_degree(build_bridge_digraph(g, col, 10, (7, 9)))
        reg = decorated_regions(d)
        assert reg.palette == 2
        assert reg.free == (frozenset({0, 1}),) * 3
        assert reg.blocked == (frozenset(),) * 3

    def test_owner_must_be_a_singleton(self):
        g, col = self.digraph()
        with pytest.raises(PremiseError, match="not a singleton"):
            build_bridge_digraph(g, col, 0, (7, 9))

    def test_unreachable_far_corner_rejected(self):
        g = Multigraph(4, [(0, 2)])
        col = _with_split(g, [(0,), (1, 2)])
        with pytest.raises(CertificateError, match="neither half"):
            build_bridge_digraph(g, col, 0, (3,))

    def test_nonmutual_arcs_are_kept_first(self):
        g = YMID_HOST
        _, col = chi_alpha2(g)
        d = restrict_out_degree(build_bridge_digraph(g, refine_split(g, col), 10, (7, 9)))
        assert [(a.tail, a.head, a.mid) for a in d.arcs] == [
            (0, ("x", 1), 2), (0, ("y", 0), 6),
            (1, ("x", 0), 0), (1, ("x", 2), 4),
            (2, ("x", 0), 0), (2, ("x", 1), 2),
        ]
        assert list(d.conflict.edges) == [(0, 1), (1, 2)]


# A host with an independent triple ({0, 2, 6}), whose colouring still passes
# the structural audits: class {0, 1} (corner 1) owned by 8 needs bridges to
# the far corners 3 and 7 but offers a single detour, through vertex 4.
SHORT_HOST = Multigraph(
    9,
    [(1, 8)] + [(x, 8) for x in range(2, 8)]
    + [(0, 3), (0, 4), (1, 4), (0, 5), (1, 5), (0, 7)]
    + [(a, b) for a in range(2, 8) for b in range(a + 1, 8) if a // 2 != b // 2],
)


class TestOutDegreeShortfall:
    def colouring(self):
        return _with_split(SHORT_HOST, [(8,), (0, 1), (2, 3), (4, 5), (6, 7)])

    def test_offers_are_counted_before_the_budget_cut(self):
        d = build_bridge_digraph(SHORT_HOST, self.colouring(), 8, (3, 5, 7))
        assert d.bridged == (frozenset({3, 7}),) and d.settled == (frozenset({5}),)
        assert d.arcs == (BridgeArc(0, ("y", 1), 4),)
        assert audit_out_degree(d) == ["class (0, 1) offers 1 arcs for 2 corners"]

    def test_immerse_stops_at_the_audit(self):
        with pytest.raises(CertificateError, match="bridge digraph below its degree guarantee") as err:
            _immerse(SHORT_HOST, self.colouring(), set(), {})
        assert err.value.dump == {
            "owner": 8, "failures": ["class (0, 1) offers 1 arcs for 2 corners"]
        }


def test_descent_checks_the_handed_down_class_count():
    # K_6 minus a perfect matching, coloured with the class {2, 3} split but
    # no singleton listed: the no-singleton branch hands down four classes on
    # five vertices, one more than an optimal colouring of them has
    g = cocktail(3)
    classes = ((0, 1), (2,), (3,), (4, 5))
    col = PairColouring(classes, (), (), ((0, 1), (4, 5)), {})
    with pytest.raises(CertificateError, match="unexpected class count") as err:
        _immerse(g, col, set(), {})
    assert err.value.dump == {"verts": (1, 2, 3, 4, 5), "expected": 3, "got": 4}


def test_detached_singleton_must_be_universal():
    # singleton 4 sees both halves of (0, 1) and neither of (2, 3), so no
    # class is attached; it extends the level directly only if universal
    edges = [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (1, 4)]
    classes = [(0, 1), (2, 3), (4,)]
    g = Multigraph(5, edges)
    with pytest.raises(CertificateError, match="required edge missing from the host graph") as err:
        _immerse(g, _with_split(g, classes), set(), {})
    assert err.value.dump == {"route": (4, 3), "gap": (4, 3)}
    g = Multigraph(5, edges + [(2, 4), (3, 4)])
    paths = {}
    corners = _immerse(g, _with_split(g, classes), set(), paths)
    assert verify_immersion(g, Immersion(corners, paths), 3).ok


def assert_only_non_adjacent_pairs_listed(g, imm):
    """Every listed route joins two non-adjacent corners, and no listed edge
    joins two corners: the adjacent corner pairs are all left implicit."""
    corners = imm.corners
    far_apart = {(u, w) for u, w in combinations(corners, 2) if not g.has_edge(u, w)}
    assert set(imm.listed) == far_apart
    on_corners = set(corners)
    assert not [
        e for seq in imm.listed.values() for e in seq if on_corners.issuperset(g.endpoints(e))
    ]


def _with_parallel_copies(g, rng):
    """``g`` plus copies of random existing edges, placed among the others."""
    edges = list(g.edges)
    for _ in range(rng.randint(1, 2 * len(edges))):
        edges.insert(rng.randint(0, len(edges)), rng.choice(edges))
    return Multigraph(g.n, edges)


def test_two_step_shapes_match_the_four_shape_reference():
    # complete graphs, seeded hosts and the same hosts with parallel copies:
    # folding the identity and no-attached levels into the general step
    # leaves every certificate byte-identical
    shapes = Counter()
    hosts = [complete(k) for k in range(9)]
    for i in range(1400):
        rng = random.Random(700_001 + i)
        g = gen_alpha2(rng.randint(1, 40), rng.random(), 700_001 + i)
        hosts.append(g)
        if i % 2 and g.m:
            hosts.append(_with_parallel_copies(g, rng))
    for g in hosts:
        chi, col = chi_alpha2(g)
        paths = {}
        corners = reference_immerse(g, col, set(), paths, shapes)
        imm = construct_immersion(g)
        assert emit_certificate(imm) == emit_certificate(Immersion(corners, paths))
        assert_only_non_adjacent_pairs_listed(g, imm)
    assert len(hosts) >= 2000 and shapes["none attached"] >= 200, shapes


def toy_digraph(arcs, bridged, droppable, settled, corners=(20, 21)):
    """Three attached classes with inner halves 10+i and corners 13+i."""
    k = 3
    return BridgeDigraph(
        x_nodes=tuple((10 + i, 13 + i) for i in range(k)),
        y_corners=tuple(corners),
        inner=tuple(10 + i for i in range(k)),
        corner=tuple(13 + i for i in range(k)),
        arcs=tuple(arcs),
        bridged=tuple(map(frozenset, bridged)),
        droppable=tuple(map(frozenset, droppable)),
        settled=tuple(map(frozenset, settled)),
        offers=tuple(sum(a.tail == i for a in arcs) for i in range(k)),
    )


def x_arcs(*pairs):
    return [BridgeArc(i, ("x", j), 10 + j) for i, j in pairs]


class TestRestrictOutDegree:
    # node 0 offers x-arcs to 1 and 2 (both mutual) and both y-arcs, node 1
    # an x-arc to 0 and a y-arc, node 2 x-arcs to 0 and to 1 (plain)
    ARCS = (
        x_arcs((0, 1), (0, 2)) + [BridgeArc(0, ("y", 0), 18), BridgeArc(0, ("y", 1), 19)]
        + x_arcs((1, 0)) + [BridgeArc(1, ("y", 1), 19)] + x_arcs((2, 0), (2, 1))
    )

    def test_over_budget_node_is_refused(self):
        d = toy_digraph(self.ARCS, [{20}, {20}, {20}], [{21}, set(), set()], [set(), {21}, {21}])
        with pytest.raises(CertificateError, match=r"class \(10, 13\) holds arcs beyond its budget") as err:
            restrict_out_degree(d)
        assert err.value.dump == {"class": (10, 13), "arcs": 4, "budget": 2}

    def test_digraph_within_budget_comes_back_as_it_is(self):
        d = toy_digraph(self.ARCS, [{20, 21}, {20, 21}, {20, 21}], [{18, 19}, set(), set()], [set()] * 3)
        assert restrict_out_degree(d) is d

    def test_under_budget_node_is_refused(self):
        d = toy_digraph(x_arcs((0, 1), (1, 0)), [{20}, {20, 21}, set()], [set()] * 3, [{21}, set(), {20, 21}])
        with pytest.raises(CertificateError, match="arc budget below the out-degree guarantee") as err:
            restrict_out_degree(d)
        assert err.value.dump == {"class": (11, 14), "arcs": 1, "budget": 2}


class TestAssignBridges:
    def test_relief_cherry_routes_around_the_middle(self):
        # path 0-1-2 in the conflict graph, colour 20 free at 0 and 1 but
        # blocked at 2: the two relief edges reroute both bridges
        d = toy_digraph(
            x_arcs((0, 1), (1, 0), (1, 2), (2, 1)),
            bridged=[{20}, {20}, set()],
            droppable=[set(), set(), set()],
            settled=[set(), set(), {20}],
            corners=(20,),
        )
        dec = DecoratedColouring({}, {0: 0, 1: 0}, {}, {})
        assert assign_bridges(d, dec) == {
            (0, 20): (20, 11, 13),
            (1, 20): (20, 12, 14),
        }

    def test_odd_cycle_rides_the_reverse_arcs(self):
        d = toy_digraph(
            x_arcs((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)),
            bridged=[{20}] * 3,
            droppable=[set()] * 3,
            settled=[set()] * 3,
            corners=(20,),
        )
        dec = DecoratedColouring({}, {}, {0: 0, 1: 0, 2: 0}, {})
        assert assign_bridges(d, dec) == {
            (1, 20): (20, 10, 14),
            (2, 20): (20, 11, 15),
            (0, 20): (20, 12, 13),
        }

    def test_reserved_tag_names_a_present_arc(self):
        d = toy_digraph(
            x_arcs((0, 1), (1, 0)),
            bridged=[{20}, {20}, set()],
            droppable=[set(), set(), set()],
            settled=[set(), set(), {20}],
            corners=(20,),
        )
        dec = DecoratedColouring({0: (2, 0)}, {}, {}, {})
        with pytest.raises(CertificateError, match="absent arc"):
            assign_bridges(d, dec)

    def test_conflicting_certificates_rejected(self):
        # the same conflict edge is both donated and coloured, so the 2-cycle
        # claim lands on an arc that the reserve tag already dropped
        d = toy_digraph(
            x_arcs((0, 1), (1, 0)),
            bridged=[{20}, {20}, set()],
            droppable=[set(), set(), set()],
            settled=[set(), set(), set()],
            corners=(20,),
        )
        dec = DecoratedColouring({0: (0, 0)}, {}, {0: 0}, {})
        with pytest.raises(CertificateError, match="claimed twice"):
            assign_bridges(d, dec)

    def test_too_few_arcs_for_the_waiting_corners(self):
        d = toy_digraph(
            x_arcs((0, 1)),
            bridged=[{20, 21}, set(), set()],
            droppable=[set()] * 3,
            settled=[{21}, {20, 21}, {20, 21}],
        )
        dec = DecoratedColouring({}, {}, {}, {})
        with pytest.raises(CertificateError, match="not enough free arcs"):
            assign_bridges(d, dec)


class TestEngineeredHosts:
    def test_triangle_host_keeps_the_whole_cycle(self, monkeypatch):
        seen = spy_assignments(monkeypatch)
        chi, imm = checked(TRIANGLE_HOST)
        assert chi == 6 and imm.corners == (1, 3, 5, 7, 9, 10)
        ((d, dec, routes),) = seen
        assert dec.reserved == {} and dec.relief == {}
        assert set(dec.colour_of.values()) == {0}  # one colour took the triangle
        assert routes == {
            (0, 7): (7, 4, 1), (1, 7): (7, 0, 3), (2, 7): (7, 2, 5),
            (0, 9): (9, 0, 2, 1), (1, 9): (9, 2, 4, 3), (2, 9): (9, 4, 0, 5),
        }

    def test_alpha_host_donates_one_arc(self, monkeypatch):
        seen = spy_assignments(monkeypatch)
        chi, imm = checked(ALPHA_HOST)
        assert chi == 6
        ((d, dec, routes),) = seen
        assert dec.reserved == {0: (0, 0)}
        assert dec.colour_of == {2: 0, 1: 1}
        assert routes == {
            (1, 7): (7, 4, 3), (2, 7): (7, 2, 5),      # kept matched edge
            (0, 9): (9, 0, 4, 1), (1, 9): (9, 2, 0, 3),  # leftovers
        }

    def test_shortcut_host_borrows_the_blocked_inner(self, monkeypatch):
        seen = spy_assignments(monkeypatch)
        chi, imm = checked(SHORTCUT_HOST)
        assert chi == 6
        ((d, dec, routes),) = seen
        assert dec.colour_of == {0: 0}
        assert routes[(0, 5)] == (5, 2, 1)  # bridged side crosses to inner 2
        assert routes[(1, 9)] == (9, 2, 0, 3)

    def test_detour_host_flags_one_direction(self, monkeypatch):
        seen = spy_assignments(monkeypatch)
        chi, imm = checked(DETOUR_HOST)
        assert chi == 5
        ((d, dec, routes),) = seen
        assert dec.colour_of == {0: 0}  # the blocked-blocked colour
        assert routes == {
            (0, 7): (7, 0, 5, 2, 1),  # detour through the settled corner 5
            (1, 7): (7, 2, 0, 3),
        }

    def test_ymid_host_routes_through_a_detached_vertex(self, monkeypatch):
        seen = spy_assignments(monkeypatch)
        chi, imm = checked(YMID_HOST)
        assert chi == 6
        ((d, dec, routes),) = seen
        assert routes[(0, 9)] == (9, 0, 6, 1)
        assert routes[(2, 7)] == (7, 4, 0, 5)

    @pytest.mark.parametrize(
        "density, seed", [(0.37584929805804157, 601180945), (0.4729279253079284, 152907695)]
    )
    def test_generated_hosts_take_the_length_4_detour(self, density, seed):
        g = gen_alpha2(11, density, seed)
        chi, imm = checked(g)
        assert chi == brute_chi(g)
        assert 4 in {len(ids) for ids in imm.paths.values()}

    def test_only_non_adjacent_corner_pairs_are_listed(self):
        hosts = [TRIANGLE_HOST, YMID_HOST, ALPHA_HOST, SHORTCUT_HOST, DETOUR_HOST]
        hosts += [gen_alpha2(11, 0.37584929805804157, 601180945)]
        hosts += [gen_alpha2(11, 0.4729279253079284, 152907695)]
        for g in hosts:
            assert_only_non_adjacent_pairs_listed(g, construct_immersion(g))

    def test_hosts_are_well_formed(self):
        for g in [TRIANGLE_HOST, YMID_HOST, ALPHA_HOST, SHORTCUT_HOST, DETOUR_HOST]:
            assert alpha_at_most_2(g)
            assert chi_alpha2(g)[0] == brute_chi(g)

    def test_decorated_layer_validates_each_host(self):
        for g in [TRIANGLE_HOST, YMID_HOST, ALPHA_HOST, SHORTCUT_HOST, DETOUR_HOST]:
            _, col = chi_alpha2(g)
            col = refine_split(g, col)
            corners = tuple(sorted(cls[1] for cls in col.detached))
            d = restrict_out_degree(build_bridge_digraph(g, col, g.n - 1, corners))
            h = d.conflict
            regions = decorated_regions(d)
            dec = critical_colouring(h, len(corners), regions)
            rep = validate_decorated(h, regions, dec)
            assert rep.ok, rep.failures


def owner_steps(monkeypatch, g):
    """The arguments of each per-owner step while constructing ``g``."""
    calls = []
    original = kchi.construct._owner_bridges

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kchi.construct, "_owner_bridges", spy)
    construct_immersion(g)
    monkeypatch.setattr(kchi.construct, "_owner_bridges", original)
    return calls


def full_path(g, col, v, corners):
    """The per-owner step with a digraph for every owner: build, audit,
    restrict, decorate when contended (else the edgeless decoration), assign."""
    d = build_bridge_digraph(g, col, v, corners)
    bad = audit_out_degree(d)
    if bad:
        raise CertificateError(
            "bridge digraph below its degree guarantee", dump={"owner": v, "failures": bad[:6]}
        )
    restrict_out_degree(d)
    if d.contended:
        regions = decorated_regions(d)
        dec = critical_colouring(d.conflict, len(d.y_corners), regions)
    else:
        dec = DecoratedColouring.edgeless(len(d.x_nodes), len(d.y_corners))
    routes = assign_bridges(d, dec)
    return [routes[(i, y)] for i, bridged in enumerate(d.bridged) for y in sorted(bridged)]


def contention_corpus():
    """Per host, each per-owner step as ``(args, routes)``, the step's
    restricted bridge digraph rebuilt from its arguments, and the calls it
    made to ``build_bridge_digraph``, ``critical_colouring`` and
    ``assign_bridges``, while constructing 600 seeded ``gen_alpha2`` hosts
    (n ≤ 60), the two hosts that take the length-4 detour and
    ``gen_alpha2(601, 0.8, 912151271)`` (last)."""
    rng = random.Random(20261023)
    specs = [(1 + i % 60, rng.random(), rng.randrange(2**32)) for i in range(600)]
    specs += [(11, 0.37584929805804157, 601180945), (11, 0.4729279253079284, 152907695)]
    specs += [(601, 0.8, 912151271)]
    seen = []
    originals = {
        name: getattr(kchi.construct, name)
        for name in ("_owner_bridges", "build_bridge_digraph", "critical_colouring", "assign_bridges")
    }

    def owner(*args):
        routes = originals["_owner_bridges"](*args)
        d = restrict_out_degree(build_bridge_digraph(*args))
        seen[-1]["owners"].append((args, routes, d))
        return routes

    def counted(name):
        def call(*args):
            seen[-1][name] += 1
            return originals[name](*args)

        return call

    kchi.construct._owner_bridges = owner
    for name in ("build_bridge_digraph", "critical_colouring", "assign_bridges"):
        setattr(kchi.construct, name, counted(name))
    try:
        for spec in specs:
            seen.append(Counter(owners=[]))
            construct_immersion(gen_alpha2(*spec))
    finally:
        for name, fn in originals.items():
            setattr(kchi.construct, name, fn)
    return seen


@pytest.fixture(scope="module")
def corpus():
    return contention_corpus()


class TestContention:
    def test_opposite_kept_x_arcs_make_a_digraph_contended(self):
        settled = [{20, 21}] * 3
        assert toy_digraph(x_arcs((0, 1), (1, 0)), [set()] * 3, [set()] * 3, settled).contended
        assert not toy_digraph(x_arcs((0, 1), (1, 2), (2, 0)), [set()] * 3, [set()] * 3, settled).contended
        y_only = [BridgeArc(0, ("y", 1), 18), BridgeArc(1, ("y", 0), 19)]
        assert not toy_digraph(y_only, [set()] * 3, [set()] * 3, settled).contended

    def test_an_edgeless_decoration_builds_no_conflict_graph(self):
        d = toy_digraph(x_arcs((0, 1), (1, 2)), [{20}, {20}, set()], [set()] * 3, [{21}, {21}, {20, 21}])
        assert assign_bridges(d, DecoratedColouring.edgeless(3, 2)) == {
            (0, 20): (20, 10, 11, 13),
            (1, 20): (20, 11, 12, 14),
        }
        assert "conflict" not in vars(d) and "arc_index" not in vars(d)

    def test_only_contended_owners_are_decorated(self, corpus):
        contended = 0
        for host in corpus:
            for _, _, d in host["owners"]:
                assert d.contended == (d.conflict.m > 0)
            assert host["critical_colouring"] == sum(d.contended for _, _, d in host["owners"])
            contended += host["critical_colouring"]
        # the n = 601 host has owners, none contended
        assert corpus[-1]["owners"] and corpus[-1]["critical_colouring"] == 0
        assert contended >= 1

    def test_only_contended_owners_build_a_digraph(self, corpus):
        contended = 0
        for host in corpus:
            n_contended = sum(d.contended for _, _, d in host["owners"])
            assert host["build_bridge_digraph"] == host["assign_bridges"] == n_contended
            contended += n_contended
        assert corpus[-1]["owners"] and corpus[-1]["build_bridge_digraph"] == 0
        assert corpus[-1]["assign_bridges"] == 0
        assert contended >= 1

    def test_closed_form_matches_the_full_path(self, corpus, monkeypatch):
        owners = [step for host in corpus for step in host["owners"]]
        for args, routes, d in owners:
            assert kchi.construct._owner_core(*args).contended == d.contended
            assert routes == full_path(*args)
        # every owner, contended or not, against assign_bridges on the
        # edgeless decoration
        monkeypatch.setattr(kchi.construct._OwnerCore, "contended", False)
        for args, _, d in owners:
            edgeless = assign_bridges(d, DecoratedColouring.edgeless(len(d.x_nodes), len(d.y_corners)))
            expected = [edgeless[(i, y)] for i, bridged in enumerate(d.bridged) for y in sorted(bridged)]
            assert kchi.construct._owner_bridges(*args) == expected
        # some node needs more bridges than it keeps x-arcs: the y-arc scan ran
        assert any(
            len(bridged) > sum(d.arcs[k].head[0] == "x" for k in d.out_arcs(i))
            for _, _, d in owners
            for i, bridged in enumerate(d.bridged)
        )
        assert sum(d.contended for _, _, d in owners) >= 1


# gen_alpha2(10, 0.28483820129301884, 2467781857) has one uncontended owner,
# 5, against far corners (8, 9): class (1, 4) needs no arc, and class
# (3, 7), corner 7, bridges to 9 from its inner half 3 through the detached
# vertex 2, its only arc
Y_HOST = (10, 0.28483820129301884, 2467781857)


def refusal(step, *args):
    with pytest.raises(CertificateError) as err:
        step(*args)
    return str(err.value), err.value.dump


def tampered(monkeypatch, **change):
    """Rebind ``_owner_core`` so that each ``field=edit`` edits that list of
    every core it returns."""
    original = kchi.construct._owner_core

    def core(*args):
        c = original(*args)
        for field, edit in change.items():
            edit(getattr(c, field))
        return c

    monkeypatch.setattr(kchi.construct, "_owner_core", core)


class TestOwnerRefusals:
    """The per-owner step refuses what the digraph path refused, in the same
    order, with the same message and dump."""

    def y_owner(self, monkeypatch):
        (args,) = owner_steps(monkeypatch, gen_alpha2(*Y_HOST))
        g, col, v, corners = args
        assert v == 5 and corners == (8, 9)
        core = kchi.construct._owner_core(*args)
        assert core.x_nodes == ((1, 4), (3, 7)) and core.budget == [0, 1]
        assert core.x_kept == [0, 0] and core.y_arcs == [[], [(0, 2)]]
        assert not core.contended
        return args

    def test_far_corner_seeing_neither_half(self):
        g = Multigraph(4, [(0, 2)])
        args = (g, _with_split(g, [(0,), (1, 2)]), 0, (3,))
        message, dump = refusal(kchi.construct._owner_bridges, *args)
        assert message == "far corner sees neither half of an attached class"
        assert dump == {"corner": 3, "class": (1, 2)}
        assert refusal(full_path, *args) == (message, dump)

    def test_owner_below_its_degree_guarantee(self):
        args = (SHORT_HOST, TestOutDegreeShortfall().colouring(), 8, (3, 5, 7))
        message, dump = refusal(kchi.construct._owner_bridges, *args)
        assert message == "bridge digraph below its degree guarantee"
        assert dump == {"owner": 8, "failures": ["class (0, 1) offers 1 arcs for 2 corners"]}
        assert refusal(full_path, *args) == (message, dump)

    def test_y_arcs_found_are_counted_against_the_budget(self, monkeypatch):
        args = self.y_owner(monkeypatch)
        assert kchi.construct._owner_bridges(*args) == [(9, 3, 2, 7)]
        # the scan finds no y-arc where the budget cut kept one
        tampered(monkeypatch, y_arcs=lambda ys: ys[1].clear())
        message, dump = refusal(kchi.construct._owner_bridges, *args)
        assert message == "arc budget below the out-degree guarantee"
        assert dump == {"class": (3, 7), "arcs": 0, "budget": 1}
        assert refusal(full_path, *args) == (message, dump)

    def test_arcs_beyond_the_budget(self, monkeypatch):
        args = self.y_owner(monkeypatch)
        tampered(monkeypatch, x_kept=lambda kept: kept.__setitem__(0, 0b10))
        message, dump = refusal(kchi.construct._owner_bridges, *args)
        assert message == "class (1, 4) holds arcs beyond its budget"
        assert dump == {"class": (1, 4), "arcs": 1, "budget": 0}
        assert refusal(full_path, *args) == (message, dump)

    def test_the_audit_comes_before_the_budget_check(self, monkeypatch):
        args = self.y_owner(monkeypatch)
        tampered(
            monkeypatch,
            x_kept=lambda kept: kept.__setitem__(0, 0b10),
            offers=lambda offers: offers.__setitem__(1, 0),
        )
        message, dump = refusal(kchi.construct._owner_bridges, *args)
        assert message == "bridge digraph below its degree guarantee"
        assert dump == {"owner": 5, "failures": ["class (3, 7) offers 0 arcs for 1 corners"]}
        assert refusal(full_path, *args) == (message, dump)

    def test_not_enough_free_arcs(self, monkeypatch):
        args = self.y_owner(monkeypatch)
        # a settled corner counted as bridged, the budget left as it was
        tampered(monkeypatch, bridged=lambda masks: masks.__setitem__(1, masks[1] | 1 << 8))
        message, dump = refusal(kchi.construct._owner_bridges, *args)
        assert message == "not enough free arcs for the remaining corners"
        assert dump == {"class": (3, 7), "waiting": [8, 9], "free": 1}
        # assign_bridges refuses the digraph of the same core the same way
        d = build_bridge_digraph(*args)
        edgeless = DecoratedColouring.edgeless(len(d.x_nodes), len(d.y_corners))
        assert refusal(assign_bridges, d, edgeless) == (message, dump)


# sha256 over the certificates of six near-complete ``gen_alpha2`` hosts,
# written out in full (recorded once each level handed down the restriction
# of its own colouring, before lowest-id edges were left implicit) and as written
NEAR_COMPLETE_CERTIFICATES = "3a53cba5dfec26c6ffc3a0edf2cbf94b2893bb4aa08de8e7630b937976ced0bf"
NEAR_COMPLETE_CERTIFICATES_AS_WRITTEN = "a3e98e1e1f92a2a987f6d2bbcd34d904f95482c40e58523ebfd7c2ab62d71e48"


class TestNearCompleteHosts:
    """Hosts whose complement is sparse: many singletons, and a level chain
    about n/3 levels long."""

    def test_long_level_chain_needs_no_stack(self):
        g = gen_alpha2(400, 0.01, 101)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            imm = construct_immersion(g)
        finally:
            sys.setrecursionlimit(limit)
        assert verify_immersion(g, imm, chi_alpha2(g)[0]).ok

    def test_audits_scan_only_the_singleton_non_edges(self):
        g = gen_alpha2(300, 0.003, 101)
        col = chi_alpha2(g)[1]
        start = time.perf_counter()
        assert run_colouring_audits(g, col) == []
        assert time.perf_counter() - start < 1.0

    def test_certificates_pinned(self):
        full, written = hashlib.sha256(), hashlib.sha256()
        for n, density, seed in [
            (120, 0.005, 1), (120, 0.01, 2), (150, 0.02, 3),
            (200, 0.01, 4), (200, 0.03, 5), (250, 0.008, 6),
        ]:
            imm = construct_immersion(gen_alpha2(n, density, seed))
            full.update(written_out(imm).encode())
            written.update(emit_certificate(imm).encode())
        assert full.hexdigest() == NEAR_COMPLETE_CERTIFICATES
        assert written.hexdigest() == NEAR_COMPLETE_CERTIFICATES_AS_WRITTEN
