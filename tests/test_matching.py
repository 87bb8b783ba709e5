from __future__ import annotations

import random

import pytest

from kchi.matching import bipartite_maximum_matching, matching_size, maximum_matching
from helpers import brute_max_matching_size, complete, cycle, path


def adj_of(g):
    return [sorted(set(g.neighbours(v))) for v in range(g.n)]


def test_blossom_small_families():
    assert matching_size(maximum_matching(5, adj_of(cycle(5)))) == 2
    assert matching_size(maximum_matching(4, adj_of(complete(4)))) == 2
    assert matching_size(maximum_matching(6, adj_of(path(6)))) == 3
    assert matching_size(maximum_matching(3, [[], [], []])) == 0


def test_blossom_needs_blossoms():
    # two triangles joined by an edge: maximum matching is 3, and a greedy
    # or purely bipartite-style search gets stuck without contracting
    pairs = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
    adj = [[] for _ in range(6)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    assert matching_size(maximum_matching(6, adj)) == 3


def test_blossom_petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    adj = [[] for _ in range(10)]
    for u, v in outer + inner + spokes:
        adj[u].append(v)
        adj[v].append(u)
    assert matching_size(maximum_matching(10, adj)) == 5


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
        adj = [[] for _ in range(n)]
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
        mate = maximum_matching(n, adj)
        for v, u in enumerate(mate):
            if u != -1:
                assert mate[u] == v and u in adj[v]
        assert matching_size(mate) == brute_max_matching_size(n, pairs), pairs


def test_blossom_warm_start_is_still_maximum():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(2, 9)
        pairs = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        adj = [[] for _ in range(n)]
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
        seed = [-1] * n
        if pairs:
            u, v = pairs[rng.randrange(len(pairs))]
            seed[u], seed[v] = v, u
        mate = maximum_matching(n, adj, mate=seed)
        assert matching_size(mate) == brute_max_matching_size(n, pairs)


def test_bipartite_basic():
    # K_{2,3}: maximum matching 2
    ml, mr = bipartite_maximum_matching(2, 3, [[0, 1, 2], [0, 1, 2]])
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
        ml, mr = bipartite_maximum_matching(nl, nr, adj)
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
    ml, mr = bipartite_maximum_matching(3, 3, adj, ml0, mr0)
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
        assert bipartite_maximum_matching(nl, nr, adj, ml, mr) == recursive_kuhn(nl, nr, adj, ml, mr)


def test_bipartite_deep_augmenting_path():
    # warm start 1..n-1 → 1..n-1; the only augmenting path from the exposed
    # root 0 runs through every left vertex, far past the recursion limit
    n = 5000
    adj = [[1]] + [[i, i + 1] for i in range(1, n)]
    ml0 = [-1] + list(range(1, n))
    mr0 = [-1] + list(range(1, n)) + [-1]
    ml, mr = bipartite_maximum_matching(n, n + 1, adj, ml0, mr0)
    assert ml == list(range(1, n + 1))
    assert mr == [-1] + list(range(n))


def test_bipartite_size_equals_hopcroft_karp():
    nx = pytest.importorskip("networkx")
    rng = random.Random(77)
    for _ in range(12):
        nl, nr = rng.randint(1, 400), rng.randint(1, 400)
        p = rng.choice([0.002, 0.01, 0.05, 0.2])
        adj = [sorted(w for w in range(nr) if rng.random() < p) for _ in range(nl)]
        ml, mr = bipartite_maximum_matching(nl, nr, adj)
        graph = nx.Graph()
        graph.add_nodes_from(("L", u) for u in range(nl))
        graph.add_nodes_from(("R", w) for w in range(nr))
        graph.add_edges_from((("L", u), ("R", w)) for u in range(nl) for w in adj[u])
        hk = nx.bipartite.hopcroft_karp_matching(graph, top_nodes=[("L", u) for u in range(nl)])
        assert sum(w != -1 for w in ml) == len(hk) // 2
        for u, w in enumerate(ml):
            if w != -1:
                assert mr[w] == u and w in adj[u]
