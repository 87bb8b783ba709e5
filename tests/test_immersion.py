"""Tests for optimal pair colourings and faithful immersions."""

import json
import random
from itertools import combinations

import pytest

from kchi.errors import CertificateError, PremiseError
from kchi.generators import emit_certificate, gen_family, parse_certificate
from kchi.graphs import Multigraph, alpha_at_most_2
from kchi.immersion import (
    Immersion,
    PairColouring,
    _count_gap,
    _faithful_immersion,
    _grouped_by_owner,
    _lay_paths,
    _with_split,
    audit_double_nonedge,
    audit_inner_adjacency,
    audit_refined,
    audit_shared_attachment,
    audit_singleton_clique,
    chi_alpha2,
    corner_labels,
    faithful_immersion,
    refine_split,
    run_colouring_audits,
    verify_immersion,
)
from kchi.oracles import brute_chi

from helpers import (
    brute_max_matching_size,
    cocktail,
    complete,
    cycle,
    path,
    reference_double_nonedge,
    reference_inner_adjacency,
    reference_singleton_clique,
    reference_split,
    star,
)


def random_alpha2(n, density, rng):
    """Complement of a triangle-free graph grown by rejection."""
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


class TestChiAlpha2:
    def test_c5(self):
        chi, col = chi_alpha2(cycle(5))
        assert chi == 3
        assert col.classes == ((0, 2), (1, 3), (4,))
        assert col.attached == ((0, 2), (1, 3))
        assert col.owner[(0, 2)] == 4 and col.owner[(1, 3)] == 4

    def test_complete_graph_is_all_singletons(self):
        chi, col = chi_alpha2(complete(4))
        assert chi == 4
        assert col.singletons == (0, 1, 2, 3)
        assert col.pairs == ()

    def test_cocktail_classes_are_detached(self):
        chi, col = chi_alpha2(cocktail(3))
        assert chi == 3
        assert col.detached == ((0, 1), (2, 3), (4, 5))
        assert col.attached == ()

    def test_rejects_independent_triple(self):
        with pytest.raises(PremiseError, match="three pairwise non-adjacent"):
            chi_alpha2(cycle(7))

    def test_agrees_with_brute_chi(self):
        rng = random.Random(1207)
        for _ in range(50):
            g = random_alpha2(rng.randint(1, 10), rng.random(), rng)
            chi, col = chi_alpha2(g)
            assert chi == brute_chi(g)
            assert len(col.classes) == chi

    def test_matches_complement_matching_size(self):
        rng = random.Random(88)
        for _ in range(30):
            g = random_alpha2(rng.randint(2, 9), rng.random(), rng)
            comp = [
                (u, w)
                for u in range(g.n)
                for w in range(u + 1, g.n)
                if not g.has_edge(u, w)
            ]
            chi, _ = chi_alpha2(g)
            assert chi == g.n - brute_max_matching_size(g.n, comp)


class TestCornerLabels:
    def test_c5_corner_is_the_attached_half(self):
        _, col = chi_alpha2(cycle(5))
        labels = corner_labels(cycle(5), col)
        # vertex 4 sees 0 and 3, so those halves are the corners
        assert labels == {(0, 2): 0, (1, 3): 3}

    def test_disagreeing_attachers_rejected(self):
        # two singletons each attach by one edge but to different halves
        g = Multigraph(4, [(0, 2), (1, 3), (0, 1)])
        col = _with_split(g, [(0,), (1,), (2, 3)])
        with pytest.raises(CertificateError, match="disagree"):
            corner_labels(g, col)

    def test_parsed_certificate_with_a_disputed_class(self):
        # singletons 0 and 1 attach to (2, 3) at different halves; the
        # certificate parses and verifies, but names no corner for the class
        g = Multigraph(4, [(0, 2), (1, 3), (0, 1)])
        text = json.dumps(
            {
                "kind": "immersion", "t": 2, "corners": [0, 1],
                "paths": [{"pair": [0, 1], "edges": [2]}], "classes": [[0], [1], [2, 3]],
            }
        )
        imm = parse_certificate(g, text)
        assert verify_immersion(g, imm, chi_alpha2(g)[0]).ok
        col = imm.faithful_to
        assert col.disputed == ((2, 3),) and col.corner == {}
        with pytest.raises(CertificateError, match="disagree") as err:
            corner_labels(g, col)
        assert err.value.dump == {"class": (2, 3), "named": [2, 3]}

    def test_split_matches_the_per_class_rescan(self):
        # random colourings of random hosts, some with an independent
        # triple, with classes of any shape and vertices outside the graph,
        # as a parsed certificate may hold
        rng = random.Random(5150)
        seen = {"triple": 0, "disputed": 0, "cornered": 0, "outside": 0}
        for _ in range(2400):
            n = rng.randint(1, 14)
            p = rng.choice((0.2, 0.5, 0.8, 0.95))
            g = Multigraph(
                n, [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < p]
            )
            order = rng.sample(range(n), n)
            classes = []
            while order:
                classes.append(tuple(order.pop() for _ in range(min(len(order), rng.randint(1, 2)))))
            for _ in range(rng.choice((0, 0, 1, 2))):
                stray = rng.choice((-1 - rng.randrange(3), n + rng.randrange(3)))
                cls = rng.choice(((stray,), (stray, rng.randrange(n)), (), (0, 1, 2)))
                classes.append(cls)
            col = _with_split(g, classes)
            owner, corner, disputed, bad = reference_split(g, classes)
            assert (col.owner, col.corner, col.disputed) == (owner, corner, disputed)
            assert col.attached == tuple(sorted(owner))
            assert audit_shared_attachment(g, col) == bad
            if disputed:
                with pytest.raises(CertificateError, match="disagree"):
                    corner_labels(g, col)
            else:
                assert corner_labels(g, col) == corner
            seen["triple"] += n >= 3 and not alpha_at_most_2(g)
            seen["disputed"] += bool(disputed)
            seen["cornered"] += bool(corner)
            seen["outside"] += any(not 0 <= v < n for cls in owner for v in cls)
        assert min(seen.values()) > 200, seen

    def test_corner_reads_make_no_adjacency_lookups(self, monkeypatch):
        hosts = [cycle(5), Multigraph(9, REFINE_EDGES), Multigraph(4, [(0, 2), (1, 3), (0, 1)])]
        cols = [chi_alpha2(g)[1] for g in hosts[:2]] + [_with_split(hosts[2], [(0,), (1,), (2, 3)])]
        lookups = []
        real = Multigraph.adjacency_mask
        monkeypatch.setattr(
            Multigraph, "adjacency_mask", lambda g, v: lookups.append(v) or real(g, v)
        )
        for g, col in zip(hosts, cols):
            if not col.disputed:
                assert corner_labels(g, col) == col.corner
            audit_shared_attachment(g, col)
        assert lookups == []
        # with no singleton no class attaches, and no row is read
        col = _with_split(cocktail(4), [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert col.detached == ((0, 1), (2, 3), (4, 5), (6, 7)) and lookups == []
        _with_split(cycle(5), [(0, 2), (1, 3), (4,)])
        assert lookups


# a 9-vertex instance whose matching colouring violates the counting
# inequality at singleton 7 and class (0, 4); the swap promotes corner 4
# to a singleton and grows the attached family from 2 to 3 classes
REFINE_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 5), (0, 8), (1, 3), (1, 4), (1, 5),
    (1, 7), (1, 8), (2, 3), (2, 5), (2, 6), (2, 7), (2, 8), (3, 6),
    (3, 7), (4, 5), (4, 6), (4, 7), (4, 8), (5, 8), (6, 7), (7, 8),
]


class TestRefineSplit:
    def test_c5_is_already_stable(self):
        g = cycle(5)
        _, col = chi_alpha2(g)
        assert refine_split(g, col) == col

    def test_swap_grows_the_attached_family(self):
        g = Multigraph(9, REFINE_EDGES)
        assert alpha_at_most_2(g)
        _, col = chi_alpha2(g)
        assert col.classes == ((0, 4), (1, 2), (3, 5), (6, 8), (7,))
        assert col.attached == ((0, 4), (3, 5))
        labels = corner_labels(g, col)
        assert _count_gap(g, col, labels, _grouped_by_owner(col)[7], (0, 4)) == (1, 0)

        ref = refine_split(g, col)
        assert ref.classes == ((0, 7), (1, 2), (3, 5), (4,), (6, 8))
        assert ref.attached == ((0, 7), (1, 2), (3, 5))
        assert audit_refined(g, ref) == []

    def test_gap_counts_as_the_per_class_recount(self):
        # the missed-halves count against the recount over every detached
        # class, on random colourings of random hosts, some of which have
        # an independent triple; every half of an attached class is tried
        # as its corner
        rng = random.Random(4242)
        triples = 0
        for _ in range(300):
            n = rng.randint(2, 16)
            g = Multigraph(
                n, [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < 0.7]
            )
            triples += not alpha_at_most_2(g)
            order = rng.sample(range(n), n)
            classes = []
            while order:
                classes.append(tuple(order.pop() for _ in range(min(len(order), rng.randint(1, 2)))))
            col = _with_split(g, classes)
            for group in _grouped_by_owner(col).values():
                for cls in group:
                    for corner in cls:
                        near = g.adjacency_mask(corner)
                        lhs = sum((near >> p ^ near >> q) & 1 for p, q in col.detached)
                        rhs = sum(near >> p & near >> q & 1 for p, q in group if (p, q) != cls)
                        assert _count_gap(g, col, {cls: corner}, group, cls) == (lhs, rhs)
        assert triples > 30

    def test_unrefined_colouring_fails_the_audit(self):
        g = Multigraph(9, REFINE_EDGES)
        _, col = chi_alpha2(g)
        bad = audit_refined(g, col)
        assert bad and "(0, 4)" in bad[0]

    def test_needs_an_optimal_colouring(self):
        g = cycle(5)
        col = _with_split(g, [(0,), (1,), (2,), (3,), (4,)])
        with pytest.raises(PremiseError, match="optimal"):
            refine_split(g, col)

    def test_random_fixed_points_satisfy_the_count(self):
        rng = random.Random(3344)
        for _ in range(200):
            g = random_alpha2(rng.randint(3, 18), rng.uniform(0.2, 0.7), rng)
            _, col = chi_alpha2(g)
            if not col.attached:
                continue
            ref = refine_split(g, col)
            assert audit_refined(g, ref) == []
            assert len(ref.attached) >= len(col.attached)


class TestFaithfulImmersion:
    def test_single_attached_pair(self):
        g = Multigraph(3, [(0, 2)])
        imm = faithful_immersion(g, _with_split(g, [(0,), (1, 2)]))
        assert imm.corners == (0, 2)
        assert imm.paths == {(0, 2): (0,)}
        assert verify_immersion(g, imm, 2).ok

    def test_c5(self):
        g = cycle(5)
        _, col = chi_alpha2(g)
        imm = faithful_immersion(g, col)
        assert imm.corners == (0, 3, 4)
        # the one corner pair without a direct edge walks through the inners
        assert imm.paths == {(0, 3): (0, 1, 2), (0, 4): (4,), (3, 4): (3,)}
        rep = verify_immersion(g, imm, 3)
        assert rep.ok, rep.failures

    def test_detached_class_rejected_by_name(self):
        g = cocktail(3)
        _, col = chi_alpha2(g)
        with pytest.raises(PremiseError, match=r"class \(0, 1\) has no singleton"):
            faithful_immersion(g, col)

    def test_suboptimal_colouring_rejected(self):
        g = cycle(5)
        col = _with_split(g, [(0,), (1,), (2,), (3,), (4,)])
        with pytest.raises(PremiseError, match="optimal"):
            faithful_immersion(g, col)

    @pytest.mark.parametrize(
        "n, edges, classes, dump",
        [
            # two singletons with no edge between them
            (3, [(0, 1)], [(0,), (1,), (2,)], {"route": (0, 2), "gap": (0, 2)}),
            # a singleton that misses the corner of a class another one owns
            (4, [(0, 1), (0, 2)], [(0,), (1,), (2, 3)], {"route": (1, 2), "gap": (1, 2)}),
            # non-adjacent corners whose inner halves are non-adjacent too
            (5, [(0, 1), (0, 3), (1, 4), (2, 3)], [(0,), (1, 2), (3, 4)],
             {"route": (1, 4, 2, 3), "gap": (4, 2)}),
        ],
    )
    def test_missing_edge_is_named(self, n, edges, classes, dump):
        g = Multigraph(n, edges)
        with pytest.raises(CertificateError, match="required edge missing from the host graph") as err:
            _faithful_immersion(g, _with_split(g, classes), set(), {})
        assert err.value.dump == dump

    def test_random_instances_verify(self):
        rng = random.Random(909)
        done = 0
        for _ in range(400):
            g = random_alpha2(rng.randint(2, 16), rng.uniform(0.2, 0.8), rng)
            _, col = chi_alpha2(g)
            if col.detached or not col.classes:
                continue
            imm = faithful_immersion(g, col)
            rep = verify_immersion(g, imm, len(col.classes))
            assert rep.ok, (list(g.edges), rep.failures)
            done += 1
        assert done >= 60


def c5_immersion():
    g = cycle(5)
    _, col = chi_alpha2(g)
    return g, col, faithful_immersion(g, col)


class TestPathLane:
    """``_lay_paths``: every constructor path, one lowest unused copy per hop."""

    def test_route_from_its_higher_end_is_stored_reversed(self):
        g = path(4)
        used, paths = set(), {}
        _lay_paths(g, [(3, 2, 1, 0)], used, paths)
        assert paths == {(0, 3): (0, 1, 2)} and used == {0, 1, 2}

    def test_each_hop_takes_its_lowest_unused_copy(self):
        # copies of 0-1 are 0, 2, 4 and of 1-2 are 1, 3; copy 0 is spent
        g = Multigraph(3, [(0, 1), (1, 2), (0, 1), (1, 2), (0, 1)])
        used, paths = {0}, {}
        _lay_paths(g, [(1, 0), (0, 1, 2), (2, 1)], used, paths)
        assert paths == {(0, 1): (2,), (0, 2): (4, 1), (1, 2): (3,)}
        assert used == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize(
        "routes, used, message, dump",
        [
            ([(0, 1), (1, 0)], set(), "two paths for one corner pair", {"pair": (0, 1)}),
            ([(0, 1, 2), (2, 0)], set(), "two paths for one corner pair", {"pair": (0, 2)}),
            ([(3, 0)], set(), "required edge missing from the host graph",
             {"route": (3, 0), "gap": (3, 0)}),
            ([(0, 2, 3)], set(), "required edge missing from the host graph",
             {"route": (0, 2, 3), "gap": (0, 2)}),
            ([(1, 0)], {0}, "no unused edge left between path vertices",
             {"pair": (1, 0), "copies": 1}),
            ([(0, 1, 2)], {1}, "no unused edge left between path vertices",
             {"pair": (1, 2), "copies": 1}),
        ],
    )
    def test_refusals(self, routes, used, message, dump):
        with pytest.raises(CertificateError, match=message) as err:
            _lay_paths(path(4), routes, used, {})
        assert err.value.dump == dump

    def test_a_second_path_is_refused_across_calls(self):
        g = path(4)
        used, paths = set(), {}
        _lay_paths(g, [(0, 1)], used, paths)
        with pytest.raises(CertificateError, match="two paths for one corner pair") as err:
            _lay_paths(g, [(1, 0)], used, paths)
        assert err.value.dump == {"pair": (0, 1)}


class TestVerifyImmersion:
    def test_wrong_target_count(self):
        g, _, imm = c5_immersion()
        rep = verify_immersion(g, imm, 4)
        assert not rep.ok and "differs from target" in rep.failures[0]

    def test_duplicate_corners(self):
        g, col, imm = c5_immersion()
        bad = Immersion((0, 0, 3), imm.paths)
        assert "not distinct" in verify_immersion(g, bad, 3).failures[0]

    def test_missing_path(self):
        g, col, imm = c5_immersion()
        paths = dict(imm.paths)
        del paths[(0, 3)]
        rep = verify_immersion(g, Immersion(imm.corners, paths), 3)
        assert any("missing path for corner pair (0, 3)" in f for f in rep.failures)

    def test_path_for_non_corner_pair(self):
        g, col, imm = c5_immersion()
        paths = dict(imm.paths)
        paths[(1, 2)] = (1,)
        rep = verify_immersion(g, Immersion(imm.corners, paths), 3)
        assert any("non-corner pair" in f for f in rep.failures)

    def test_edge_reuse(self):
        g, col, imm = c5_immersion()
        paths = dict(imm.paths)
        paths[(0, 4)] = (0, 1, 2, 3)  # valid 0..4 walk, but reuses edges 0-2
        rep = verify_immersion(g, Immersion(imm.corners, paths), 3)
        assert any("edge reuse" in f for f in rep.failures)

    def test_endpoint_mismatch(self):
        g, col, imm = c5_immersion()
        paths = dict(imm.paths)
        paths[(0, 4)] = (0,)  # stops at vertex 1
        rep = verify_immersion(g, Immersion(imm.corners, paths), 3)
        assert any("stops at 1" in f for f in rep.failures)

    def test_broken_walk(self):
        g, col, imm = c5_immersion()
        paths = dict(imm.paths)
        paths[(0, 3)] = (0, 2)  # edge 2 does not touch vertex 1
        rep = verify_immersion(g, Immersion(imm.corners, paths), 3)
        assert any("does not continue the walk" in f for f in rep.failures)

    def test_unknown_edge(self):
        g, col, imm = c5_immersion()
        paths = dict(imm.paths)
        paths[(0, 4)] = (17,)
        rep = verify_immersion(g, Immersion(imm.corners, paths), 3)
        assert any("unknown edge 17" in f for f in rep.failures)

    def test_faithfulness_two_corners_in_a_class(self):
        g = cycle(5)
        imm = Immersion((1, 3), {(1, 3): (1, 2)})
        col = _with_split(g, [(0,), (1, 3), (2,), (4,)])
        rep = verify_immersion(g, imm, 2, faithful_wrt=col)
        assert any("contains two corners" in f for f in rep.failures)

    def test_faithfulness_confinement(self):
        g, col, imm = c5_immersion()
        # the (0, 3) walk 0-1-2-3 visits both classes only; rerouting the
        # (0, 4) pair through vertex 1 leaves the union of its classes
        paths = dict(imm.paths)
        paths[(0, 4)] = (0, 1, 2, 3)
        del paths[(0, 3)]
        paths[(0, 3)] = (4, 3)  # 0-4-3, also foreign to (0,2) ∪ (1,3)
        rep = verify_immersion(g, Immersion(imm.corners, paths), 3, faithful_wrt=col)
        assert any("leaves its classes" in f for f in rep.failures)

    def test_accepts_its_own_construction(self):
        g, col, imm = c5_immersion()
        rep = verify_immersion(g, imm, 3, faithful_wrt=col)
        assert rep.ok, rep.failures


class TestImplicitPaths:
    """A corner pair with no listed path is joined by its lowest-id edge."""

    def test_k3_with_no_listed_path(self):
        g = complete(3)
        doc = {"kind": "immersion", "t": 3, "corners": [0, 1, 2], "paths": []}
        imm = parse_certificate(g, json.dumps(doc))
        assert imm.listed == {}
        assert imm.paths == {(0, 1): (0,), (0, 2): (1,), (1, 2): (2,)}
        rep = verify_immersion(g, imm, 3)
        assert rep.ok and rep.details == {"listed": 0, "implicit": 3}

    def test_paths_answer_for_every_corner_pair(self):
        g, _, imm = c5_immersion()
        assert imm.listed == {(0, 3): (0, 1, 2)}
        assert imm.paths[(0, 4)] == (4,) and len(imm.paths) == 3
        # neither a non-corner pair nor a reversed one has a path
        assert (1, 2) not in imm.paths and (4, 0) not in imm.paths

    def test_paths_view_matches_the_per_pair_walk(self):
        # doubled C5: copies of 0-1 are 0, 1, of 2-3 are 4, 5 and of 3-4 are 6, 7
        g = gen_family("doubled", ("cycle", 5))
        paths = [
            {"pair": [0, 1], "edges": [1]},  # a one-edge path on the spare copy
            {"pair": [2, 4], "edges": [4, 6]},
            {"pair": [3, 4], "edges": [7]},  # foreign: 3 is not a corner
            {"pair": [4, 1], "edges": []},  # foreign: not sorted
        ]
        doc = {"kind": "immersion", "t": 4, "corners": [4, 0, 1, 2, 9], "paths": paths}
        imm = parse_certificate(g, json.dumps(doc))
        walk = list(imm.listed) + [
            key
            for key in combinations(sorted(imm.corners), 2)
            if key not in imm.listed and key[1] < g.n and g.has_edge(*key)
        ]
        assert walk[4:] == [(0, 4), (1, 2)]
        assert list(imm.paths) == walk and len(imm.paths) == len(walk)

    STOPS = "path for pair {} stops at {}, not at its endpoint {}"
    REUSE = "edge reuse: identities {} appear in several paths"

    @pytest.mark.parametrize(
        "listed, failures",
        [
            # the lowest copy of the unlisted pair (0, 2), (0, 3) or (1, 2)
            ({(0, 1): (2,)}, [STOPS.format((0, 1), 2, 1), REUSE.format([2])]),
            ({(0, 1): (4,)}, [STOPS.format((0, 1), 3, 1), REUSE.format([4])]),
            ({(1, 2): (6,), (1, 3): (6,)}, [STOPS.format((1, 3), 2, 3), REUSE.format([6])]),
            # another listed pair's edge
            ({(0, 1): (6,), (1, 2): (6,)}, ["path for pair (0, 1): edge 6 does not continue the walk"]),
            ({(0, 1): (3,), (0, 2): (3,)}, [STOPS.format((0, 1), 2, 1), REUSE.format([3])]),
            # unknown edge ids
            ({(0, 1): (12,)}, ["path for pair (0, 1) uses unknown edge 12"]),
            ({(0, 1): (-1,), (2, 3): (11,)}, ["path for pair (0, 1) uses unknown edge -1"]),
            # an edge reused by a longer path, which also takes (1, 2)'s or (1, 3)'s lowest copy
            ({(0, 1): (0,), (0, 2): (0, 6)}, [REUSE.format([0, 6])]),
            ({(0, 1): (1,), (0, 3): (1, 8)}, [REUSE.format([1, 8])]),
            # the spare copies of two pairs
            ({(0, 1): (1,), (2, 3): (11,)}, []),
        ],
    )
    def test_one_edge_listed_paths(self, listed, failures):
        # doubled K4: copies of 0-1 are 0, 1, of 0-2 are 2, 3, of 0-3 are 4, 5,
        # of 1-2 are 6, 7, of 1-3 are 8, 9 and of 2-3 are 10, 11
        g = complete(4).doubled()
        rep = verify_immersion(g, Immersion((0, 1, 2, 3), listed), 4)
        assert rep.failures == failures
        assert rep.details == {"listed": len(listed), "implicit": 6 - len(listed)}

    def test_implicit_pair_without_an_edge(self):
        g = cycle(5)  # corners 0 and 2 are not adjacent
        rep = verify_immersion(g, Immersion((0, 1, 2), {}), 3)
        assert rep.failures == ["missing path for corner pair (0, 2)"]

    def test_listed_path_through_an_implicit_lowest_copy(self):
        # doubled K3: copies of 0-1 are 0, 1, of 0-2 are 2, 3 and of 1-2 are 4, 5
        g = complete(3).doubled()
        # 0-2-1 on copy 2, the implicit path of (0, 2), then the spare copy 5
        rep = verify_immersion(g, Immersion((0, 1, 2), {(0, 1): (2, 5)}), 3)
        assert rep.failures == ["edge reuse: identities [2] appear in several paths"]
        rep = verify_immersion(g, Immersion((0, 1, 2), {(0, 1): (3, 5)}), 3)
        assert rep.ok, rep.failures

    def test_faithful_certificate_with_implicit_pairs(self):
        g = gen_family("faithful", (4, 2))
        chi, col = chi_alpha2(g)
        col = refine_split(g, col)
        imm = faithful_immersion(g, col)
        assert 0 < len(imm.listed) < chi * (chi - 1) // 2
        assert verify_immersion(g, imm, chi, faithful_wrt=col).ok
        back = parse_certificate(g, emit_certificate(imm))
        assert verify_immersion(g, back, chi).ok

    def test_implicit_pairs_need_coloured_corners(self):
        g = complete(3)
        col = _with_split(g, [(0,), (1,)])
        rep = verify_immersion(g, Immersion((0, 1, 2), {}), 3, faithful_wrt=col)
        assert rep.failures == [
            "corner pair (0, 2) not covered by the colouring",
            "corner pair (1, 2) not covered by the colouring",
        ]


def k4_immersion():
    """K4's identity immersion: every path is the one edge of its pair."""
    g = complete(4)
    paths = {(u, w): (e,) for e, (u, w) in enumerate(g.edges)}
    return g, Immersion((0, 1, 2, 3), paths)


class TestVerifyDirectEdges:
    """One-edge paths take the verifier's short lane; its verdicts are the walk's."""

    def failures(self, changes, base=k4_immersion):
        g, imm = base()
        paths = {**imm.paths, **changes}
        return verify_immersion(g, Immersion(imm.corners, paths), len(imm.corners)).failures

    def test_identity_immersion_accepted(self):
        assert self.failures({}) == []

    def test_edge_of_another_pair(self):
        assert self.failures({(0, 1): (5,)}) == [
            "path for pair (0, 1): edge 5 does not continue the walk"
        ]

    @pytest.mark.parametrize("e", [6, -1])
    def test_edge_ids_outside_the_graph(self, e):
        assert self.failures({(0, 1): (e,)}) == [f"path for pair (0, 1) uses unknown edge {e}"]

    def test_one_edge_on_two_direct_paths(self):
        assert self.failures({(0, 2): (0,)}) == [
            "path for pair (0, 2) stops at 1, not at its endpoint 2",
            "edge reuse: identities [0] appear in several paths",
        ]

    def test_direct_edges_reused_by_a_longer_walk(self):
        assert self.failures({(0, 3): (0, 3, 5)}) == [
            "edge reuse: identities [0, 3, 5] appear in several paths"
        ]

    def test_empty_path(self):
        assert self.failures({(1, 3): ()}) == ["empty path for pair (1, 3)"]

    def test_parallel_copies(self):
        g = complete(3).doubled()  # edges 2k and 2k + 1 join the same pair
        imm = Immersion((0, 1, 2), {(0, 1): (1,), (0, 2): (2,), (1, 2): (5,)})
        assert verify_immersion(g, imm, 3).ok
        imm = Immersion((0, 1, 2), {(0, 1): (0,), (0, 2): (0,), (1, 2): (4,)})
        assert verify_immersion(g, imm, 3).failures == [
            "path for pair (0, 2) stops at 1, not at its endpoint 2",
            "edge reuse: identities [0] appear in several paths",
        ]

    def test_direct_path_beside_a_broken_long_path(self):
        def c5():
            g, _, imm = c5_immersion()
            return g, Immersion(imm.corners, imm.paths)

        assert self.failures({(0, 3): (0, 2, 1), (3, 4): (4,)}, base=c5) == [
            "path for pair (0, 3): edge 2 does not continue the walk",
            "path for pair (3, 4): edge 4 does not continue the walk",
        ]


class TestVerifyClasses:
    """The classes of a faithful certificate must form a colouring of the graph."""

    def certificate_doc(self):
        g = gen_family("faithful", (3, 1))
        chi, col = chi_alpha2(g)
        doc = json.loads(emit_certificate(faithful_immersion(g, refine_split(g, col))))
        return g, chi, doc

    def test_own_classes_accepted(self):
        g, chi, doc = self.certificate_doc()
        assert verify_immersion(g, parse_certificate(g, json.dumps(doc)), chi).ok

    @pytest.mark.parametrize(
        "extra, expected",
        [
            ([0, 99], ["vertex 0 appears in two classes", "class vertex 99 outside the graph"]),
            ([0, 1], ["vertex 0 appears in two classes", "vertex 1 appears in two classes"]),
            (
                [0, 2],
                [
                    "vertex 0 appears in two classes",
                    "class (0, 2) spans an edge",
                    "vertex 2 appears in two classes",
                ],
            ),
        ],
        ids=["outside-the-graph", "repeated-class", "class-spans-an-edge"],
    )
    def test_appended_class_rejected(self, extra, expected):
        g, chi, doc = self.certificate_doc()
        doc["classes"].append(extra)
        rep = verify_immersion(g, parse_certificate(g, json.dumps(doc)), chi)
        assert rep.failures == expected

    def test_empty_class_rejected(self):
        g = cycle(5)
        imm = Immersion((1, 3), {(1, 3): (1, 2)})
        col = _with_split(g, [(0,), (1, 3), (2,), (4,), ()])
        rep = verify_immersion(g, imm, 2, faithful_wrt=col)
        assert "class () does not have one or two distinct vertices" in rep.failures


class TestAudits:
    def test_c5_passes_all(self):
        g = cycle(5)
        _, col = chi_alpha2(g)
        assert run_colouring_audits(g, col) == []

    def test_shared_attachment_violation(self):
        g = Multigraph(4, [(0, 2), (1, 3), (0, 1)])
        col = _with_split(g, [(0,), (1,), (2, 3)])
        bad = audit_shared_attachment(g, col)
        assert bad and "split between" in bad[0]

    def test_singleton_clique_violation(self):
        g = Multigraph(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
        col = _with_split(g, [(0,), (1,), (2, 3)])
        bad = audit_singleton_clique(g, col)
        assert bad and "0" in bad[0] and "1" in bad[0]

    def test_inner_adjacency_violation(self):
        # both pair classes attach to 0, but their non-corner halves are
        # not adjacent — impossible under the independence premise, which
        # is exactly what the audit is there to catch
        g = Multigraph(5, [(0, 2), (0, 4), (1, 4), (2, 3)])
        col = _with_split(g, [(0,), (1, 2), (3, 4)])
        bad = audit_inner_adjacency(g, col)
        assert bad

    def test_double_nonedge_violation(self):
        g = Multigraph(6, [(0, 3), (1, 5), (0, 1), (0, 5), (1, 3), (2, 4), (2, 5), (3, 4)])
        col = _with_split(g, [(0,), (1,), (2, 3), (4, 5)])
        bad = audit_double_nonedge(g, col)
        assert bad

    def test_random_optimal_colourings_pass(self):
        rng = random.Random(7431)
        for _ in range(150):
            g = random_alpha2(rng.randint(2, 14), rng.uniform(0.2, 0.8), rng)
            _, col = chi_alpha2(g)
            assert run_colouring_audits(g, col) == [], list(g.edges)

    def test_mask_audits_match_the_nested_loop_references(self):
        # random colourings of random hosts, dense and sparse, some with an
        # independent triple, most not optimal; the K₄ audit may list its
        # failures in another order, the other two may not
        rng = random.Random(6061)
        triples = 0
        failing = {"clique": 0, "inner": 0, "double": 0}
        for _ in range(2400):
            n = rng.randint(2, 16)
            p = rng.choice((0.3, 0.6, 0.8, 0.9, 0.97))
            g = Multigraph(
                n, [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < p]
            )
            triples += not alpha_at_most_2(g)
            order = rng.sample(range(n), n)
            classes = []
            while order:
                classes.append(tuple(order.pop() for _ in range(min(len(order), rng.randint(1, 2)))))
            col = _with_split(g, classes)
            clique = audit_singleton_clique(g, col)
            inner = audit_inner_adjacency(g, col)
            double = audit_double_nonedge(g, col)
            assert clique == reference_singleton_clique(g, col)
            assert inner == reference_inner_adjacency(g, col)
            assert sorted(double) == sorted(reference_double_nonedge(g, col))
            failing["clique"] += bool(clique)
            failing["inner"] += bool(inner)
            failing["double"] += bool(double)
        assert triples > 900
        assert min(failing.values()) > 100, failing
