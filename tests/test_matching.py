from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest

from kchi.generators import gen_alpha2, gen_multigraph
from kchi.matching import bipartite_maximum_matching, matching_size, maximum_matching
from helpers import brute_max_matching_size, complete, cycle, path


def masks_of(n, pairs):
    """Neighbour bitmasks of the simple graph on 0..n-1 with these edges."""
    masks = [0] * n
    for u, v in pairs:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def graph_masks(g):
    return [g.adjacency_mask(v) for v in range(g.n)]


def test_blossom_small_families():
    assert matching_size(maximum_matching(5, graph_masks(cycle(5)))) == 2
    assert matching_size(maximum_matching(4, graph_masks(complete(4)))) == 2
    assert matching_size(maximum_matching(6, graph_masks(path(6)))) == 3
    assert matching_size(maximum_matching(3, [0, 0, 0])) == 0
    assert maximum_matching(0, []) == []


def test_blossom_needs_blossoms():
    # two triangles joined by an edge: maximum matching is 3, and a greedy
    # or purely bipartite-style search gets stuck without contracting
    pairs = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
    assert matching_size(maximum_matching(6, masks_of(6, pairs))) == 3


def test_blossom_petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    assert matching_size(maximum_matching(10, masks_of(10, outer + inner + spokes))) == 5


def test_blossom_against_brute_force():
    rng = random.Random(20240)
    for trial in range(150):
        n = rng.randint(1, 9)
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        masks = masks_of(n, pairs)
        mate = maximum_matching(n, masks)
        for v, u in enumerate(mate):
            if u != -1:
                assert mate[u] == v and masks[v] >> u & 1
        assert matching_size(mate) == brute_max_matching_size(n, pairs), pairs


def test_blossom_on_a_vertex_subset():
    # vertices outside the matched set have mask 0 and stay exposed
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 12)
        live = sorted(rng.sample(range(n), rng.randint(0, n)))
        pairs = [(u, v) for u, v in combinations(live, 2) if rng.random() < 0.5]
        mate = maximum_matching(n, masks_of(n, pairs))
        assert all(mate[v] == -1 for v in range(n) if v not in live)
        assert matching_size(mate) == brute_max_matching_size(n, pairs)


def complement_cases():
    """Seeded complements of whole graphs and of vertex subsets, as the
    immersion layer matches them: one mask per vertex of G, 0 off the subset."""
    rng = random.Random(20261018)
    for i in range(60):
        n = rng.randint(1, 70)
        d = rng.random()
        seed = rng.randrange(2**32)
        g = gen_alpha2(n, d, seed) if i % 2 == 0 else gen_multigraph(n, d, seed, max_mult=1)
        full = tuple(range(n))
        yield g, full
        yield g, tuple(sorted(rng.sample(full, rng.randint(0, n))))
    for n, d, seed in ((300, 0.4, 7), (301, 0.8, 8)):
        g = gen_alpha2(n, d, seed)
        yield g, tuple(range(n))
        yield g, tuple(range(1, n, 2))


def test_blossom_mates_are_pinned():
    # taken with the matcher that walked sorted complement adjacency lists
    # in local indices (its mates mapped back to vertex ids); walking
    # masks lowest bit first and skipping searches that must fail keeps
    # every mate array the same
    h = hashlib.sha256()
    for g, verts in complement_cases():
        live = sum(1 << v for v in verts)
        masks = [0] * g.n
        for u in verts:
            masks[u] = live & ~g.adjacency_mask(u) & ~(1 << u)
        h.update(repr(maximum_matching(g.n, masks)).encode())
    assert h.hexdigest() == "ead665aeb51dc65f079a9a5216793c476d3ce7ddc55fd16d480d0481f932ad71"


def rows(adj):
    """The bitmask rows of adjacency lists, as the bipartite matcher takes them."""
    return [sum(1 << w for w in row) for row in adj]


def test_bipartite_basic():
    # K_{2,3}: maximum matching 2
    ml, mr = bipartite_maximum_matching(rows([[0, 1, 2], [0, 1, 2]]), 3)
    assert sorted(x for x in ml) == sorted(set(ml)) and -1 not in ml
    assert sum(1 for x in mr if x != -1) == 2


def test_bipartite_against_brute():
    rng = random.Random(5)
    for _ in range(120):
        nl, nr = rng.randint(1, 6), rng.randint(1, 6)
        adj = [
            sorted({rng.randrange(nr) for _ in range(rng.randint(0, nr))})
            for _ in range(nl)
        ]
        ml, mr = bipartite_maximum_matching(rows(adj), nr)
        # encode as a general graph and compare sizes
        pairs = [(u, nl + w) for u in range(nl) for w in adj[u]]
        assert sum(1 for x in ml if x != -1) == brute_max_matching_size(nl + nr, pairs)
        for u, w in enumerate(ml):
            if w != -1:
                assert mr[w] == u and w in adj[u]


def test_bipartite_warm_start():
    adj = [[0, 1], [0], [0, 2]]
    ml0 = [1, -1, -1]
    mr0 = [-1, 0, -1]
    ml, mr = bipartite_maximum_matching(rows(adj), 3, ml0, mr0)
    assert -1 not in ml
    assert ml0 == [1, -1, -1], "inputs must not be mutated"


def recursive_kuhn(n_left, n_right, adj, mate_left=None, mate_right=None):
    """The recursive Kuhn matcher the bitset matcher replaced, kept as a reference."""
    mate_l = [-1] * n_left if mate_left is None else list(mate_left)
    mate_r = [-1] * n_right if mate_right is None else list(mate_right)

    def try_augment(u, seen):
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                if mate_r[w] == -1 or try_augment(mate_r[w], seen):
                    mate_l[u] = w
                    mate_r[w] = u
                    return True
        return False

    for u in range(n_left):
        if mate_l[u] == -1 and adj[u]:
            try_augment(u, [False] * n_right)
    return mate_l, mate_r


def random_bipartite(rng, max_side):
    nl, nr = rng.randint(0, max_side), rng.randint(0, max_side)
    p = rng.random()
    adj = [sorted(w for w in range(nr) if rng.random() < p) for _ in range(nl)]
    return nl, nr, adj


def test_bipartite_equals_recursive_kuhn():
    rng = random.Random(2024)
    for trial in range(400):
        nl, nr, adj = random_bipartite(rng, 30)
        ml = mr = None
        if trial % 2:  # warm start from a maximum matching with some pairs dropped
            ml, mr = recursive_kuhn(nl, nr, adj)
            for u in range(nl):
                if ml[u] != -1 and rng.random() < 0.5:
                    mr[ml[u]] = -1
                    ml[u] = -1
        assert bipartite_maximum_matching(rows(adj), nr, ml, mr) == recursive_kuhn(nl, nr, adj, ml, mr)


def test_bipartite_deep_augmenting_path():
    # warm start 1..n-1 → 1..n-1; the only augmenting path from the exposed
    # root 0 runs through every left vertex, far past the recursion limit
    n = 5000
    adj = [[1]] + [[i, i + 1] for i in range(1, n)]
    ml0 = [-1] + list(range(1, n))
    mr0 = [-1] + list(range(1, n)) + [-1]
    ml, mr = bipartite_maximum_matching(rows(adj), n + 1, ml0, mr0)
    assert ml == list(range(1, n + 1))
    assert mr == [-1] + list(range(n))


def test_bipartite_size_equals_hopcroft_karp():
    nx = pytest.importorskip("networkx")
    rng = random.Random(77)
    for _ in range(12):
        nl, nr = rng.randint(1, 400), rng.randint(1, 400)
        p = rng.choice([0.002, 0.01, 0.05, 0.2])
        adj = [sorted(w for w in range(nr) if rng.random() < p) for _ in range(nl)]
        ml, mr = bipartite_maximum_matching(rows(adj), nr)
        graph = nx.Graph()
        graph.add_nodes_from(("L", u) for u in range(nl))
        graph.add_nodes_from(("R", w) for w in range(nr))
        graph.add_edges_from((("L", u), ("R", w)) for u in range(nl) for w in adj[u])
        hk = nx.bipartite.hopcroft_karp_matching(graph, top_nodes=[("L", u) for u in range(nl)])
        assert sum(w != -1 for w in ml) == len(hk) // 2
        for u, w in enumerate(ml):
            if w != -1:
                assert mr[w] == u and w in adj[u]
