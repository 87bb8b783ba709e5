"""Release gate: every headline guarantee of the package, end to end.

One test per criterion, each printing a PASS line with its scale and
timing.  These are deliberately heavier than the unit suites; together
they exercise the constructor, the colouring and factor layers, the
conflict-graph machinery, and every validator against the brute-force
oracles at the largest sizes the oracles allow.
"""

import math
import random
import time

import pytest

import kchi.construct as construct_mod
from kchi.colouring import (
    brute_force_chi_prime_r,
    cycle_matching_colouring,
    validate_cm_colouring,
)
from kchi.construct import construct_immersion
from kchi.decorated import critical_colouring, validate_decorated
from kchi.factor import (
    brute_force_deficiency,
    check_factor_properties,
    max_f_bounded_subgraph,
)
from kchi.generators import gen_alpha2, gen_family, gen_multigraph
from kchi.immersion import (
    audit_refined,
    chi_alpha2,
    faithful_immersion,
    refine_split,
    verify_immersion,
)
from kchi.oracles import brute_chi, brute_immersion_exists

from helpers import cocktail, complete, cycle, path, random_regions, star


@pytest.fixture(scope="module")
def small_corpus():
    """Seeded α≤2 graphs with n ≤ 8, split on the immersion oracle's t ≤ 5
    envelope; the eligible part alone exceeds 200 instances."""
    eligible, high = [], []
    seed = 0
    while len(eligible) < 210:
        rng = random.Random(9_000 + seed)
        g = gen_alpha2(rng.randint(1, 8), rng.random(), 9_000 + seed)
        chi = brute_chi(g)
        (eligible if chi <= 5 else high).append((g, chi))
        seed += 1
    return eligible, high


def test_criterion_1_chi_corner_immersion_stress():
    t0 = time.time()
    for i in range(1000):
        rng = random.Random(1_000_003 + i)
        g = gen_alpha2(rng.randint(1, 40), rng.random(), i)
        imm = construct_immersion(g)
        chi, _ = chi_alpha2(g)
        report = verify_immersion(g, imm, chi)
        assert report.ok, (i, report.failures)
        assert len(imm.corners) == chi
    elapsed = time.time() - t0
    assert elapsed < 120
    print(f"criterion 1: PASS — 1000/1000 constructed and verified in {elapsed:.1f}s")


def test_criterion_2_oracle_concordance(small_corpus):
    eligible, high = small_corpus
    assert len(eligible) >= 200
    for g, chi in eligible + high:
        assert chi_alpha2(g)[0] == chi, list(g.edges)
    for g, chi in eligible:
        assert brute_immersion_exists(g, chi), list(g.edges)
    print(
        f"criterion 2: PASS — chi agreement on {len(eligible) + len(high)} graphs, "
        f"immersion existence on {len(eligible)}"
    )


def test_criterion_3_palette_within_max_degree():
    t0 = time.time()
    for i in range(500):
        rng = random.Random(31_337 + i)
        g = gen_multigraph(rng.randint(1, 20), rng.random(), 31_337 + i, max_mult=3)
        colouring = cycle_matching_colouring(g)
        assert colouring.palette <= g.max_degree(), list(g.edges)
        report = validate_cm_colouring(g, colouring, r=2)
        assert report.ok, report.failures
    elapsed = time.time() - t0
    assert elapsed < 30
    print(f"criterion 3: PASS — 500/500 within max degree in {elapsed:.1f}s")


def test_criterion_4_star_tightness():
    for s in range(1, 9):
        g = star(s)
        for r in (2, 3):
            assert brute_force_chi_prime_r(g, r) == s
            colouring = cycle_matching_colouring(g)
            assert colouring.palette == s
            assert validate_cm_colouring(g, colouring, r=r).ok
    print("criterion 4: PASS — K_{1,s} needs exactly s colours for s = 1..8, r = 2, 3")


def test_criterion_5_lower_bound():
    corpus = [path(4), cycle(3), cycle(5), cycle(7), complete(3), complete(4),
              star(5), cocktail(2)]
    seed = 0
    while len(corpus) < 40:
        g = gen_multigraph(3 + seed % 5, 0.3 + (seed % 5) / 8, 62_000 + seed)
        seed += 1
        if g.m <= 12:
            corpus.append(g)
    for g in corpus:
        delta = g.max_degree()
        for r in (1, 2, 3):
            assert brute_force_chi_prime_r(g, r) >= math.ceil(delta / r), list(g.edges)
    assert brute_force_chi_prime_r(complete(5), 2) == 2  # Δ/r attained
    print(f"criterion 5: PASS — χ'_r ≥ ⌈Δ/r⌉ on {len(corpus)} graphs; K5, r=2 hits 2")


def test_criterion_6_factor_structure():
    brute_checked = 0
    for i in range(300):
        rng = random.Random(99_991 + i)
        g = gen_multigraph(rng.randint(1, 14), rng.random(), 99_991 + i, max_mult=2).doubled()
        h, pair = max_f_bounded_subgraph(g)
        issues = check_factor_properties(g, h, pair)
        assert not issues, issues
        if g.n <= 12:
            brute_checked += 1
            assert brute_force_deficiency(g, [2] * g.n).value == pair.value, list(g.edges)
    print(f"criterion 6: PASS — 300/300 structure checks, {brute_checked} against brute force")


def test_criterion_7_conflict_colouring():
    for i in range(200):
        rng = random.Random(45_007 + i)
        n = rng.randint(1, 12)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    edges.extend([(u, v)] * rng.randint(1, 2))
        g = construct_mod.Multigraph(n, edges)
        palette = g.max_degree() + rng.randint(0, 2)
        regions = random_regions(g, palette, rng)
        decorated = critical_colouring(g, palette, regions)
        report = validate_decorated(g, regions, decorated)
        assert report.ok, report.failures
    print("criterion 7: PASS — 200/200 conflict-graph colourings validated")


def test_criterion_8_faithful_suite():
    done = 0
    for k in range(1, 11):
        for seed in range(10):
            g = gen_family("faithful", (k, seed))
            chi, colouring = chi_alpha2(g)
            colouring = refine_split(g, colouring)
            imm = faithful_immersion(g, colouring)
            report = verify_immersion(g, imm, chi, faithful_wrt=colouring)
            assert report.ok, report.failures
            done += 1
    assert done == 100
    print("criterion 8: PASS — 100/100 faithful immersions verified")


def test_criterion_9_internal_audits(monkeypatch, small_corpus):
    counts = {"colouring": 0, "refined": 0, "out_degree": 0}
    violations: list[str] = []

    def spy(tag, fn):
        def inner(*args):
            out = fn(*args)
            counts[tag] += 1
            violations.extend(out)
            return out

        return inner

    monkeypatch.setattr(
        construct_mod, "run_colouring_audits",
        spy("colouring", construct_mod.run_colouring_audits),
    )
    # the refinement returns only colourings that meet the counting inequality
    refine = construct_mod._refine_split

    def refined(g, col):
        out = refine(g, col)
        spy("refined", audit_refined)(g, out)
        return out

    monkeypatch.setattr(construct_mod, "_refine_split", refined)
    # every owner passes the out-degree audit on its masks; audit the digraph
    # the per-owner step would build from them
    owner_bridges = construct_mod._owner_bridges

    def owner_step(g, col, v, corners):
        out = owner_bridges(g, col, v, corners)
        d = construct_mod.build_bridge_digraph(g, col, v, corners)
        spy("out_degree", construct_mod.audit_out_degree)(d)
        return out

    monkeypatch.setattr(construct_mod, "_owner_bridges", owner_step)

    eligible, high = small_corpus
    built = 0
    for g, _ in eligible + high:
        construct_immersion(g)
        built += 1
    for i in range(200):
        rng = random.Random(5_000_017 + i)
        g = gen_alpha2(rng.randint(1, 40), rng.random(), 5_000_017 + i)
        construct_immersion(g)
        built += 1

    assert violations == []
    assert counts["colouring"] > 200  # the audits actually ran, at every level
    assert counts["refined"] > 200 and counts["out_degree"] > 50
    print(
        f"criterion 9: PASS — {built} constructions, "
        f"{sum(counts.values())} audit calls, zero violations"
    )
