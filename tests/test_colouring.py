from __future__ import annotations

import random

import pytest

from kchi.colouring import (
    CycleMatchingColouring,
    brute_force_chi_prime_r,
    cycle_matching_colouring,
    spanning_ocm_set,
    validate_cm_colouring,
)
from kchi.errors import PremiseError, SizeGuardError
from kchi.generators import gen_alpha2, gen_family
from kchi.graphs import Multigraph, components_of
from helpers import complete, cycle, path, random_multigraph, reference_validate_cm_colouring, star


def assert_ocm(g, edge_set, require_spanning=True):
    """An ocm set: components are single edges or odd cycles; optionally
    check it spans every maximum-degree vertex."""
    degree_in = [0] * g.n
    for comp in components_of(g, edge_set):
        if comp.trivial:
            continue
        ok = (comp.regular and comp.max_degree == 1) or comp.cycle_parity == "odd"
        assert ok, f"component {comp} is neither an edge nor an odd cycle"
        for e in comp.edge_ids:
            u, v = g.endpoints(e)
            degree_in[u] += 1
            degree_in[v] += 1
    if require_spanning:
        delta = g.max_degree()
        for v in range(g.n):
            if g.degree(v) == delta:
                assert degree_in[v] > 0, f"max-degree vertex {v} unspanned"


def test_ocm_star_single_edge():
    f = spanning_ocm_set(star(3))
    assert len(f) == 1
    (e,) = f
    assert 0 in star(3).endpoints(e)


def test_ocm_triangle_whole_cycle():
    assert spanning_ocm_set(complete(3)) == {0, 1, 2}


def test_ocm_c4_perfect_matching():
    g = cycle(4)
    f = spanning_ocm_set(g)
    assert len(f) == 2
    ends = [g.endpoints(e) for e in f]
    assert not set(ends[0]) & set(ends[1])
    assert_ocm(g, f)


def test_ocm_rejects_edgeless():
    with pytest.raises(PremiseError):
        spanning_ocm_set(Multigraph(3, []))


def test_ocm_random_campaign():
    rng = random.Random(11)
    for _ in range(80):
        g = random_multigraph(rng.randint(2, 12), rng.randint(1, 3), 0.4, rng)
        if g.m == 0:
            continue
        assert_ocm(g, spanning_ocm_set(g))


def test_colouring_k3_one_colour():
    col = cycle_matching_colouring(complete(3))
    assert col.palette == 1
    assert validate_cm_colouring(complete(3), col).ok


def test_colouring_star_needs_s_colours():
    for s in range(1, 7):
        for r in (2, 3):
            col = cycle_matching_colouring(star(s))
            assert col.palette == s
            assert validate_cm_colouring(star(s), col, r).ok


def test_colouring_k5_within_delta():
    col = cycle_matching_colouring(complete(5))
    assert col.palette <= 4
    report = validate_cm_colouring(complete(5), col)
    assert report.ok and not report.details["even_cycles"]


def test_colouring_empty_graph():
    col = cycle_matching_colouring(Multigraph(4, []))
    assert col.palette == 0 and col.colour_of == {}


def test_colouring_classes_are_strict_ocm_sets():
    rng = random.Random(303)
    for _ in range(60):
        g = random_multigraph(rng.randint(1, 12), rng.randint(1, 3), 0.5, rng)
        col = cycle_matching_colouring(g)
        assert col.palette <= g.max_degree()
        report = validate_cm_colouring(g, col)
        assert report.ok, report.failures
        assert not report.details["even_cycles"]
        for c, ids in enumerate(col.classes()):
            if ids:
                assert_ocm(g, ids, require_spanning=False)


def test_colouring_where_the_all_free_decorated_engine_fails():
    # The decorated engine with every colour free at every vertex raises
    # "marking independence lost on every tie-break" here, so it cannot
    # stand in for the cycle-matching colouring.
    g = Multigraph(8, [(0, 5), (0, 7), (1, 3), (1, 3), (1, 3), (1, 3), (3, 4), (3, 4),
                       (3, 6), (3, 6), (3, 6), (3, 6), (4, 5), (6, 7)])
    col = cycle_matching_colouring(g)
    assert col.palette <= g.max_degree() == 10
    report = validate_cm_colouring(g, col)
    assert report.ok, report.failures
    assert not report.details["even_cycles"]


def test_validate_flags_even_cycle_but_accepts():
    g = cycle(4)
    col = CycleMatchingColouring({e: 0 for e in range(4)}, palette=1)
    report = validate_cm_colouring(g, col, r=2)
    assert report.ok
    assert report.details["even_cycles"] == [(0, (0, 1, 2, 3))]


def test_validate_rejects_irregular_class():
    g = path(3)
    col = CycleMatchingColouring({0: 0, 1: 0}, palette=1)
    report = validate_cm_colouring(g, col, r=2)
    assert not report.ok
    assert any("degrees" in f for f in report.failures)


def test_validate_rejects_missing_edge():
    g = path(3)
    col = CycleMatchingColouring({0: 0}, palette=1)
    report = validate_cm_colouring(g, col)
    assert not report.ok and "uncoloured" in report.failures[0]


@pytest.mark.parametrize(
    "colour_of, failure",
    [
        ({0: 0, 1: 0, 5: 0}, "unknown edge identity 5"),
        ({0: 0, 1: 3}, "edge 1 has colour 3 outside the palette"),
    ],
)
def test_validate_rejects_unknown_edges_and_colours(colour_of, failure):
    report = validate_cm_colouring(path(3), CycleMatchingColouring(colour_of, palette=1))
    assert failure in report.failures


def _tampered_colouring(g, col, rng):
    """``col`` with some edges recoloured (colours −1 to palette + 1),
    dropped or joined by unknown identities."""
    colour_of = dict(col.colour_of)
    for e in range(g.m):
        roll = rng.random()
        if roll < 0.2:
            colour_of[e] = rng.randrange(-1, col.palette + 2)
        elif roll < 0.3:
            colour_of.pop(e, None)
    for _ in range(rng.choice((0, 0, 1, 2))):
        colour_of[rng.choice((-1, g.m, g.m + 3))] = rng.randrange(max(col.palette, 1))
    return CycleMatchingColouring(colour_of, col.palette)


def _differential_colourings(rng):
    """Real colourings of seeded multigraphs (n ≤ 12, parallel copies),
    tampered copies of them and random colourings, then the colour_dense
    benchmark inputs at seed 101."""
    for _ in range(1000):
        g = random_multigraph(rng.randint(1, 12), 3, rng.uniform(0.1, 0.8), rng)
        col = cycle_matching_colouring(g)
        yield g, col
        yield g, _tampered_colouring(g, col, rng)
        palette = rng.randint(1, 4)
        yield g, CycleMatchingColouring({e: rng.randrange(palette) for e in range(g.m)}, palette)
    seeds = random.Random(101)
    for n, density in [(158, 0.2), (159, 0.4), (160, 0.6), (161, 0.8)]:
        g = gen_alpha2(n, density, seeds.randrange(2**32))
        yield g, cycle_matching_colouring(g)


def test_validate_matches_the_per_class_reference():
    """The one-walk validator gives the reference's report, failures in
    order, for r = 1, 2, 3 on 3004 colourings."""
    rng = random.Random(20261020)
    seen = {"cases": 0, "rejected": 0, "even": 0, "odd": 0}
    for g, col in _differential_colourings(rng):
        seen["cases"] += 1
        for r in (1, 2, 3):
            got, want = validate_cm_colouring(g, col, r), reference_validate_cm_colouring(g, col, r)
            assert (got.ok, got.failures, got.details) == (want.ok, want.failures, want.details), (
                g.edges, col, r
            )
            seen["rejected"] += not got.ok
            seen["even"] += bool(got.details["even_cycles"])
            seen["odd"] += any(v["odd_cycles"] for v in got.details["by_colour"].values())
    assert seen["cases"] == 3004
    assert min(seen.values()) > 500, seen


def test_brute_examples():
    assert brute_force_chi_prime_r(star(4), 2) == 4
    assert brute_force_chi_prime_r(complete(3), 2) == 1
    assert brute_force_chi_prime_r(complete(5), 2) == 2
    assert brute_force_chi_prime_r(cycle(4), 2) == 1  # an even cycle is 2-regular
    assert brute_force_chi_prime_r(Multigraph(3, []), 2) == 0


def test_brute_star_tight_for_all_r():
    for s in range(1, 6):
        for r in (2, 3):
            assert brute_force_chi_prime_r(star(s), r) == s


def test_brute_size_guard():
    with pytest.raises(SizeGuardError):
        brute_force_chi_prime_r(complete(7), 2)  # 21 edges
    brute_force_chi_prime_r(complete(4), 2)  # within the guard


def test_brute_lower_bound_and_monotonicity():
    rng = random.Random(8)
    for _ in range(25):
        g = random_multigraph(rng.randint(2, 6), 2, 0.4, rng)
        if g.m > 12:
            continue
        delta = g.max_degree()
        values = [brute_force_chi_prime_r(g, r) for r in (2, 3, 4)]
        for r, val in zip((2, 3, 4), values):
            assert val >= -(-delta // r)  # ⌈Δ/r⌉
        assert values == sorted(values, reverse=True)


def test_constructed_palette_never_beats_brute():
    rng = random.Random(404)
    for _ in range(20):
        g = random_multigraph(rng.randint(2, 5), 2, 0.5, rng)
        if g.m == 0 or g.m > 12:
            continue
        col = cycle_matching_colouring(g)
        assert brute_force_chi_prime_r(g, 2) <= max(col.palette, 1) <= max(g.max_degree(), 1)


@pytest.mark.parametrize("g", [gen_family("cycle", 5001), path(2000)], ids=["cycle5001", "path2000"])
def test_long_cycles_and_paths_colour_without_recursion_error(g):
    col = cycle_matching_colouring(g)
    report = validate_cm_colouring(g, col)
    assert report.ok, report.failures[:3]
    assert col.palette <= g.max_degree()
    assert report.details["even_cycles"] == []
