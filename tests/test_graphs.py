from __future__ import annotations

import random
import tracemalloc

import pytest

from kchi.errors import GraphError
from kchi.generators import gen_alpha2
from kchi.graphs import Multigraph, alpha_at_most_2, components_of
from helpers import cocktail, complete, cycle, graph_fields, path, random_simple, rows_edges


def test_build_triangle():
    g = Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.n == 3 and g.m == 3
    assert g.degrees == (2, 2, 2)
    assert len(set(g.edges)) == g.m  # no parallel copies


def test_build_parallel_edges():
    g = Multigraph(2, [(0, 1), (0, 1)])
    assert g.degree(0) == 2
    assert g.multiplicity(0, 1) == 2
    assert g.edge_ids_between(1, 0) == (0, 1)
    assert len(set(g.edges)) < g.m


def test_build_rejects_loop():
    with pytest.raises(GraphError, match="loop"):
        Multigraph(4, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError, match="range"):
        Multigraph(3, [(0, 3)])


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(0, 1), (5, 2), (1, 1)], "edge 1: endpoint out of range in (5, 2)"),
        ([(0, 1), (2, -1)], "edge 1: endpoint out of range in (2, -1)"),
        ([(1, 0), (2, 2), (7, 0)], "edge 1: loop (2, 2)"),
        ([(0, 1), (3, 3), (2, 1), (0, 3), (4, 1)], "edge 1: loop (3, 3)"),
    ],
)
def test_bad_edges_are_named_in_raw_order(pairs, message):
    """The first offending edge is named, its endpoints as given."""
    with pytest.raises(GraphError) as err:
        Multigraph(4, pairs)
    assert str(err.value) == message


def test_bad_edges_from_an_iterator_are_named():
    with pytest.raises(GraphError) as err:
        Multigraph(3, iter([(0, 1), (2, 0), (4, 1)]))
    assert str(err.value) == "edge 2: endpoint out of range in (4, 1)"


def test_interleaved_parallel_copies():
    g = Multigraph(3, [(0, 1), (1, 2), (1, 0), (2, 1), (0, 1)])
    assert g.edges == ((0, 1), (1, 2), (0, 1), (1, 2), (0, 1))
    assert g.edge_ids_between(0, 1) == g.edge_ids_between(1, 0) == (0, 2, 4)
    assert g.edge_ids_between(2, 1) == (1, 3)
    assert g.edge_ids_between(0, 2) == ()
    assert [g.multiplicity(0, 1), g.multiplicity(1, 2), g.multiplicity(2, 0)] == [3, 2, 0]
    assert g.degrees == (3, 5, 2)
    assert list(g.support_pairs()) == [(0, 1), (1, 2)]
    assert [g.incident(v) for v in range(3)] == [(0, 2, 4), (0, 1, 2, 3, 4), (1, 3)]

    d = g.doubled()
    assert d.edge_ids_between(0, 1) == (0, 1, 4, 5, 8, 9)
    assert d.edge_ids_between(1, 2) == (2, 3, 6, 7)
    assert d.multiplicity(1, 0) == 6 and d.degrees == (6, 10, 4)
    assert list(d.support_pairs()) == [(0, 1), (1, 2)]


def test_support_pairs_follow_first_edges():
    g = Multigraph(4, [(3, 2), (0, 1), (2, 3), (1, 3), (1, 0), (0, 2)])
    assert list(g.support_pairs()) == [(2, 3), (0, 1), (1, 3), (0, 2)]
    assert g.edge_ids_between(3, 2) == (0, 2)
    assert g.edge_ids_between(1, 3) == (3,)


def test_pair_tables_match_a_direct_count():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 9)
        pairs = []
        for _ in range(rng.randint(0, 25)):
            u, v = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if u != v:
                pairs.append((u, v))
        g = Multigraph(n, pairs)
        ids: dict = {}
        for e, (u, v) in enumerate(pairs):
            ids.setdefault((min(u, v), max(u, v)), []).append(e)
        assert list(g.support_pairs()) == list(ids)
        for u in range(n):
            assert g.incident(u) == tuple(e for e, uv in enumerate(pairs) if u in uv)
            assert g.degree(u) == len(g.incident(u))
            for v in range(n):
                key = (min(u, v), max(u, v))
                assert g.edge_ids_between(u, v) == tuple(ids.get(key, ()))
                assert g.multiplicity(u, v) == len(ids.get(key, ()))
                assert g.has_edge(u, v) == (key in ids)


def test_from_rows_matches_the_edge_list_constructor():
    """600 random symmetric loopless row sets, n in 0..70, at densities 0,
    1 and in between, each with one vertex then isolated or made universal,
    agree table by table with the edge-list constructor."""
    rng = random.Random(16)
    for i in range(600):
        n = i % 71
        p = (0.0, 1.0, rng.random())[i % 3]
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        if n:
            x = rng.randrange(n)
            if i % 2:  # isolate x
                rows = [row & ~(1 << x) for row in rows]
                rows[x] = 0
            else:  # make x universal
                rows = [row | 1 << x for row in rows]
                rows[x] = (1 << n) - 1 & ~(1 << x)
        assert graph_fields(Multigraph._from_rows(rows)) == graph_fields(
            Multigraph(n, rows_edges(rows))
        )


@pytest.mark.parametrize("n, density", [(300, 0.2), (401, 0.4), (601, 0.8)])
def test_generated_graphs_match_the_edge_list_constructor(n, density):
    g = gen_alpha2(n, density, 1)
    assert graph_fields(g) == graph_fields(Multigraph(n, rows_edges(g._mask)))


def test_generated_graphs_keep_no_object_per_edge():
    """A dense generated graph keeps its edges in columns: at most 24 B per
    edge stay allocated once it is built, not a tuple and a dict entry
    (about 130 B) per edge."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = gen_alpha2(601, 0.8, 1)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert g.m > 100_000
    assert kept <= 24 * g.m


def test_edge_view_reads_as_the_tuple_of_pairs():
    pairs = [(2, 0), (1, 2), (0, 1), (2, 0)]
    g = Multigraph(3, pairs)
    want = ((0, 2), (1, 2), (0, 1), (0, 2))
    view = g.edges
    assert len(view) == 4
    assert view[0] == (0, 2) and view[-1] == (0, 2) and view[-3] == (1, 2)
    assert view[1:3] == ((1, 2), (0, 1)) and view[::-2] == ((0, 2), (1, 2))
    assert view[1:3] == want[1:3]
    assert view == want and want == view
    assert not view != want and not want != view
    assert view != want[:3] and want[:3] != view
    assert view == Multigraph(3, pairs).edges
    assert view != Multigraph(3, pairs[:3]).edges
    assert list(view) == list(want) and tuple(view) == want
    assert repr(view) == repr(want)
    assert repr((g.n, view)) == repr((g.n, want))
    assert (0, 1) in view and (1, 0) not in view
    assert sorted(view) == sorted(want)
    with pytest.raises(IndexError):
        view[4]
    with pytest.raises(TypeError):
        view[0] = (1, 2)


def test_unsorted_multigraph_index():
    """Input out of pair order, copies interleaved: every pair lists its
    identities ascending, ``free_edge`` hands out the lowest unused one and
    ``support_pairs`` follows first edges."""
    g = Multigraph(5, [(3, 4), (1, 0), (4, 3), (2, 0), (0, 1), (3, 4), (0, 2), (1, 0)])
    assert g.edge_ids_between(4, 3) == (0, 2, 5)
    assert g.edge_ids_between(0, 1) == (1, 4, 7)
    assert g.edge_ids_between(2, 0) == (3, 6)
    assert g.edge_ids_between(1, 2) == () and g.edge_ids_between(0, 4) == ()
    assert [g.free_edge((3, 4), used) for used in (set(), {0}, {0, 2}, {0, 2, 5}, {2})] == [
        0, 2, 5, None, 0,
    ]
    assert [g.free_edge((0, 1), used) for used in ({1, 7}, {1, 4}, {1, 4, 7})] == [4, 7, None]
    assert g.free_edge((1, 2), set()) is None
    assert list(g.support_pairs()) == [(3, 4), (0, 1), (0, 2)]

    same = Multigraph(5, sorted(g.edges))
    assert same == g and hash(same) == hash(g)
    assert g != Multigraph(5, list(g.edges)[1:]) and g != Multigraph(6, g.edges)


def test_build_normalizes_endpoint_order():
    g = Multigraph(3, [(2, 0)])
    assert g.endpoints(0) == (0, 2)
    assert g.other_end(0, 2) == 0


def test_degree_sum_is_twice_edge_count():
    rng = random.Random(1)
    for _ in range(25):
        g = random_simple(rng.randint(0, 12), rng.random(), rng)
        assert sum(g.degrees) == 2 * g.m


def test_doubled_k3():
    g = complete(3).doubled()
    assert g.m == 6
    assert all(d == 4 for d in g.degrees)
    assert g.edges == ((0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2))


def test_doubled_empty_and_path():
    assert Multigraph(5, []).doubled().m == 0
    assert path(3).doubled().degrees == (2, 4, 2)


def test_doubled_degrees_double():
    rng = random.Random(7)
    for _ in range(20):
        g = random_simple(rng.randint(1, 10), 0.5, rng)
        d = g.doubled()
        assert d.degrees == tuple(2 * x for x in g.degrees)


def test_alpha_examples():
    assert alpha_at_most_2(cycle(5))
    assert not alpha_at_most_2(Multigraph(3, []))
    assert alpha_at_most_2(cocktail(3))  # K6 minus a perfect matching
    assert not alpha_at_most_2(cycle(7))
    assert alpha_at_most_2(complete(1))
    assert alpha_at_most_2(Multigraph(0, []))


def test_components_of_whole_triangle():
    g = complete(3)
    comps = components_of(g, range(3))
    assert len(comps) == 1
    (c,) = comps
    assert c.regular and c.min_degree == 2
    assert c.cycle_parity == "odd"


def test_components_of_path_not_regular():
    g = path(3)
    (c,) = components_of(g, [0, 1])
    assert (c.min_degree, c.max_degree) == (1, 2)
    assert not c.regular
    assert c.cycle_parity is None


def test_components_of_empty_edge_set():
    g = cycle(4)
    comps = components_of(g, [])
    assert len(comps) == 4
    assert all(c.trivial and c.min_degree == 0 for c in comps)


def test_components_parallel_pair_is_even_cycle():
    g = Multigraph(2, [(0, 1), (0, 1)])
    (c,) = components_of(g, [0, 1])
    assert c.cycle_parity == "even"


def test_components_rejects_bad_edge_id():
    with pytest.raises(GraphError):
        components_of(path(3), [5])
