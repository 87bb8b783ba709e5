from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import kchi

from kchi.colouring import cycle_matching_colouring
from kchi.decorated import RegionPartition, critical_colouring
from kchi.errors import CertificateError, PremiseError, SizeGuardError
from kchi.factor import (
    DeficiencyPair,
    FactorSubgraph,
    TwoCycle,
    _FactorSolver,
    _strict_expansion_violation,
    brute_force_deficiency,
    check_factor_properties,
    deficiency,
    max_f_bounded_subgraph,
)
from kchi.generators import gen_multigraph
from kchi.graphs import Multigraph, iter_bits
from helpers import (
    complete,
    cycle,
    path,
    random_multigraph,
    random_regions,
    random_simple,
    star,
)

F2 = lambda v: 2  # noqa: E731 — the degree bound used throughout §2


def test_deficiency_doubled_star():
    g = star(3).doubled()
    assert deficiency(g, F2, {0}, {1, 2, 3}) == 6 - 2 + 0 - 0 == 4


def test_deficiency_empty_pair_is_zero():
    for g in (cycle(5).doubled(), complete(4).doubled(), Multigraph(3, [])):
        assert deficiency(g, F2, (), ()) == 0


def test_deficiency_doubled_edge_one_endpoint():
    g = complete(2).doubled()
    assert deficiency(g, F2, (), {0}) == 2 - 0 + 0 - 2 == 0


def test_deficiency_rejects_overlap():
    with pytest.raises(PremiseError, match="overlap"):
        deficiency(cycle(3), F2, {0}, {0, 1})


def test_deficiency_parity_term():
    # lone triangle with f ≡ 1: the component itself has odd f-sum,
    # so q(∅, ∅) = 1
    assert deficiency(complete(3), lambda v: 1, (), ()) == 1


def test_max_pair_doubled_star():
    pair = max_f_bounded_subgraph(star(3).doubled())[1]
    assert pair.s == {0}
    assert pair.t == {1, 2, 3}
    assert pair.value == 4


def test_max_pair_doubled_c5_and_k2():
    for g in (cycle(5).doubled(), complete(2).doubled()):
        pair = max_f_bounded_subgraph(g)[1]
        assert (pair.s, pair.t, pair.value) == (frozenset(), frozenset(), 0)


def test_max_pair_rejects_odd_multiplicity():
    with pytest.raises(PremiseError, match="multiplicity"):
        max_f_bounded_subgraph(cycle(3))


def test_odd_multiplicity_is_named_in_first_edge_order():
    """The first odd pair in the order of first edges is named, not the least."""
    g = Multigraph(4, [(3, 2), (0, 2), (2, 0), (1, 0)])
    with pytest.raises(PremiseError) as err:
        max_f_bounded_subgraph(g)
    assert str(err.value) == "edge 2-3 has odd multiplicity 1"


def test_subgraph_doubled_star():
    g = star(3).doubled()
    h, pair = max_f_bounded_subgraph(g)
    assert len(h.two_cycles) == 1 and not h.odd_cycles
    tc = h.two_cycles[0]
    assert tc.u == 0 and tc.v in {1, 2, 3}
    assert h.degree_sum() == 4 == 2 * g.n - pair.value
    assert check_factor_properties(g, h, pair) == []


def test_subgraph_doubled_c5():
    g = cycle(5).doubled()
    h, pair = max_f_bounded_subgraph(g)
    assert not h.two_cycles
    assert len(h.odd_cycles) == 1 and len(h.odd_cycles[0]) == 5
    assert h.degree_sum() == 10
    assert check_factor_properties(g, h, pair) == []


def test_subgraph_doubled_k2_and_k3():
    h, pair = max_f_bounded_subgraph(complete(2).doubled())
    assert len(h.two_cycles) == 1 and h.degree_sum() == 4

    g3 = complete(3).doubled()
    h3, pair3 = max_f_bounded_subgraph(g3)
    assert pair3.value == 0 and h3.degree_sum() == 6
    assert check_factor_properties(g3, h3, pair3) == []


def test_subgraph_doubled_p3():
    g = path(3).doubled()
    h, pair = max_f_bounded_subgraph(g)
    assert pair.value == 2
    assert h.degree_sum() == 4
    assert check_factor_properties(g, h, pair) == []


def _star_and_triangle():
    """Doubled K_{1,3} on 0..3 beside a doubled triangle on 4..6, with the
    (H, S, T) that ``max_f_bounded_subgraph`` returns for it."""
    g = Multigraph(7, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (4, 6)]).doubled()
    h, pair = max_f_bounded_subgraph(g)
    assert h == FactorSubgraph((TwoCycle(0, 1, (0, 1)),), ((6, 8, 10),))
    assert pair == DeficiencyPair(frozenset({0}), frozenset({1, 2, 3}), 4)
    assert check_factor_properties(g, h, pair) == []
    return g, h, pair


@pytest.mark.parametrize(
    "two_cycles, odd_cycles, s, t, value, failure",
    [
        # 1. edges 6 and 7 are parallel, so (6, 7, 8) closes no walk
        (((0, 1, (0, 1)),), ((6, 7, 8),), {0}, {1, 2, 3}, 4,
         "cycle (6, 7, 8) does not trace a simple closed walk"),
        # 2. the value is not 2|T| - 2|S|
        (((0, 1, (0, 1)),), ((6, 8, 10),), {0}, {1, 2, 3}, 2, "value 2 ≠ 2|T| - 2|S| = 4"),
        # 3. T's neighbour 0 is left out of S
        (((0, 1, (0, 1)),), ((6, 8, 10),), set(), {1, 2, 3}, 6, "N(T) ⊄ S: neighbour 0 of 1"),
        # 4. with no 2-cycle, S's vertex 0 is isolated in H
        ((), ((6, 8, 10),), {0}, {1, 2, 3}, 4, "isolated vertices outside T: [0]"),
        # 5. T = {1} alone: S = {0} sees only one vertex of T
        (((0, 1, (0, 1)),), ((6, 8, 10),), {0}, {1}, 0, "no strict expansion: X = [0], |N(X) ∩ T| = 1"),
        # 6. two 2-cycles give the maximum-degree vertex 0 degree 4
        (((0, 1, (0, 1)), (0, 2, (2, 3))), ((6, 8, 10),), {0}, {1, 2, 3}, 4,
         "maximum-degree vertex 0 has H-degree 4"),
    ],
)
def test_check_factor_properties_names_each_broken_property(two_cycles, odd_cycles, s, t, value, failure):
    g, _, _ = _star_and_triangle()
    h = FactorSubgraph(tuple(TwoCycle(*tc) for tc in two_cycles), odd_cycles)
    assert failure in check_factor_properties(g, h, DeficiencyPair(frozenset(s), frozenset(t), value))


def test_strict_expansion_checked_beyond_twenty_s_vertices():
    # S = 0..20 matched one-to-one to T = 21..41 by 2-cycles: every property
    # holds except strict expansion, since |N({x}) ∩ T| = 1 for each x ∈ S.
    k = 21
    g = Multigraph(2 * k, [(x, k + x) for x in range(k) for _ in range(2)])
    h = FactorSubgraph(tuple(TwoCycle(x, k + x, (2 * x, 2 * x + 1)) for x in range(k)), ())
    pair = DeficiencyPair(frozenset(range(k)), frozenset(range(k, 2 * k)), 0)
    problems = check_factor_properties(g, h, pair)
    assert len(problems) == 1 and problems[0].startswith("no strict expansion: X = [")


def test_strict_expansion_names_a_violating_set():
    # S = {0, 1, 2}; N(0) ∩ T = {3, 4}, N(1) ∩ T = N(2) ∩ T = {5}
    g = Multigraph(6, [(0, 3), (0, 4), (1, 5), (2, 5)])
    assert _strict_expansion_violation(g, {0, 1, 2}, {3, 4, 5}) in ([1], [2], [1, 2])
    assert _strict_expansion_violation(g, {0}, {3, 4, 5}) is None
    assert _strict_expansion_violation(g, set(), {3, 4, 5}) is None


def test_brute_examples():
    assert brute_force_deficiency(star(3).doubled(), F2).value == 4
    assert brute_force_deficiency(complete(3).doubled(), F2).value == 0
    lone = Multigraph(1, [])
    pair = brute_force_deficiency(lone, F2)
    # a single isolated vertex is its own maximally deficient T
    assert (pair.s, pair.t, pair.value) == (frozenset(), frozenset({0}), 2)
    assert deficiency(lone, F2, pair.s, pair.t) == pair.value


def test_brute_size_guard():
    with pytest.raises(SizeGuardError):
        brute_force_deficiency(Multigraph(15, []), F2)


def test_brute_general_matches_even_path():
    from kchi.factor import _brute_general

    rng = random.Random(99)
    graphs = [random_multigraph(rng.randint(1, 6), 1, 0.5, rng).doubled() for _ in range(30)]
    graphs += [random_multigraph(n, 2, 0.4, rng).doubled() for n in (7, 8, 9)]
    for g in graphs:
        fast = brute_force_deficiency(g, F2)
        general = _brute_general(g, [2] * g.n)
        assert fast.value == general.value
        assert (fast.s, fast.t) == (general.s, general.t)


def test_package_imports_without_numpy():
    src = Path(kchi.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, kchi, kchi.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_brute_odd_f():
    # f ≡ 1 on a triangle exercises the parity term q
    g = complete(3)
    pair = brute_force_deficiency(g, lambda v: 1)
    assert pair.value == deficiency(g, lambda v: 1, pair.s, pair.t)
    assert pair.value >= deficiency(g, lambda v: 1, (), ())
    assert pair.value >= deficiency(g, lambda v: 1, (), {0})


def test_solver_agrees_with_brute_on_random_doubled_graphs():
    rng = random.Random(4242)
    for trial in range(120):
        base = random_multigraph(rng.randint(1, 8), rng.randint(1, 2), 0.45, rng)
        g = base.doubled()
        h, pair = max_f_bounded_subgraph(g)
        brute = brute_force_deficiency(g, F2)
        assert pair.value == brute.value, (trial, base.edges)
        # the brute force breaks ties toward the containment-minimal pair
        assert (pair.s, pair.t) == (brute.s, brute.t), (trial, base.edges)
        problems = check_factor_properties(g, h, pair)
        assert problems == [], (trial, base.edges, problems)


def test_lovasz_inequality_sampled():
    rng = random.Random(31337)
    for _ in range(60):
        base = random_simple(rng.randint(2, 9), 0.5, rng)
        g = base.doubled()
        h, pair = max_f_bounded_subgraph(g)
        for _ in range(12):
            verts = list(range(g.n))
            rng.shuffle(verts)
            k1 = rng.randint(0, g.n)
            k2 = rng.randint(0, g.n - k1)
            s, t = verts[:k1], verts[k1 : k1 + k2]
            assert h.degree_sum() <= 2 * g.n - deficiency(g, F2, s, t)
        # equality at the returned witness pair
        assert h.degree_sum() == 2 * g.n - deficiency(g, F2, pair.s, pair.t)


def test_empty_and_edgeless_graphs():
    g = Multigraph(4, [])
    h, pair = max_f_bounded_subgraph(g)
    assert pair.t == frozenset(range(4)) and pair.value == 8
    assert h.degree_sum() == 0
    assert check_factor_properties(g, h, pair) == []

    g0 = Multigraph(0, [])
    h0, pair0 = max_f_bounded_subgraph(g0)
    assert pair0.value == 0 and h0.degree_sum() == 0


def test_solver_keeps_degrees_and_neighbour_masks_current():
    rng = random.Random(606)
    for _ in range(40):
        g = random_multigraph(rng.randint(2, 14), 3, rng.random(), rng)
        solver = _FactorSolver(g.n, {(u, v): g.multiplicity(u, v) for u, v in g.support_pairs()})
        while solver.count:
            if rng.random() < 0.2:
                solver.solve()
            u, v = rng.choice(sorted(solver.count))
            solver.remove_copy(*rng.choice([(u, v), (v, u)]))
            for x in range(g.n):
                fresh = sum(c for pair, c in solver.count.items() if x in pair)
                assert solver.weighted_degree(x) == solver.deg[x] == fresh
                assert solver.nbr[x] == sum(1 << y for pair in solver.count if x in pair for y in pair if y != x)
        assert solver.deg == [0] * g.n and solver.nbr == [0] * g.n


def test_every_solve_of_both_inductions_returns_a_minimal_pair(monkeypatch):
    """``solve`` reads (S, T) straight off the double cover and enforces
    nothing more.  On the support it solves, every pair must have T
    independent, N(T) = S and S expanding strictly into T, also for the
    warm-started solves after ``remove_copy`` in ``cycle_matching_colouring``
    and ``critical_colouring``.  H, read off the mate arrays, must put every
    vertex outside S ∪ T on exactly one 2-cycle or odd cycle, and keep its
    odd cycles odd and outside S ∪ T."""
    real = _FactorSolver.solve
    with_s = []

    def checked(self, t_priority=None):
        res = real(self, t_priority)
        t_mask = sum(1 << x for x in res.t)
        assert not any(self.nbr[x] & t_mask for x in res.t)
        assert {y for x in res.t for y in iter_bits(self.nbr[x])} == res.s
        support = Multigraph(self.n, list(self.count))
        assert _strict_expansion_violation(support, res.s, res.t) is None
        inside = res.s | res.t
        on_odd = [x for c in res.odd_cycles for x in c]
        on_two = [x for pair in res.two_cycles for x in pair]
        assert all(len(c) % 2 for c in res.odd_cycles) and not inside.intersection(on_odd)
        assert not set(on_odd) & set(on_two)
        assert sorted(x for x in on_odd + on_two if x not in inside) == sorted(
            set(range(self.n)) - inside
        )
        with_s.append(bool(res.s))
        return res

    monkeypatch.setattr(_FactorSolver, "solve", checked)
    rng = random.Random(20264)
    for i in range(80):
        n, density, seed = 1 + i % 24, rng.random(), rng.randrange(2**32)
        g = gen_multigraph(n, density, seed, max_mult=rng.randint(1, 3))
        cycle_matching_colouring(g)
        palette = g.max_degree() + rng.randint(0, 2)
        if palette:
            try:
                critical_colouring(g, palette, random_regions(g, palette, rng))
            except CertificateError:  # a tie-break clash; the solves before it count
                pass
    assert len(with_s) > 1000 and sum(with_s) > 300, (len(with_s), sum(with_s))


@pytest.mark.parametrize(
    "tamper, message",
    [
        ("crossing", "crosses the S∪T boundary"),
        ("inside", "inside S∪T misses S or T"),
        ("exposed", "exposed copy of 4 outside T"),
    ],
)
def test_structure_faults_fire_on_tampered_mates(tamper, message):
    """Doubled K_{1,3} plus a doubled triangle: S = {0}, T = the leaves and
    the triangle outside.  Each tamper of the mate arrays must be caught
    before the walk over the cycles outside S ∪ T reads a -1 mate."""
    pairs = [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (5, 6)]
    solver = _FactorSolver(7, dict.fromkeys(pairs, 1))
    res = solver.solve()
    assert res.s == {0} and res.t == {1, 2, 3}
    mate_l, mate_r = list(solver.mate_l), list(solver.mate_r)
    if tamper == "crossing":  # 0 and 4 swap partners: both pairs cross
        b, d = mate_l[0], mate_l[4]
        mate_l[0], mate_l[4], mate_r[d], mate_r[b] = d, b, 0, 4
    elif tamper == "inside":  # two leaves of T matched to each other
        p = next(x for x in (1, 2, 3) if mate_l[x] == -1)
        q = next(x for x in (1, 2, 3) if mate_r[x] == -1 and x != p)
        mate_l[p], mate_r[q] = q, p
    else:  # the triangle pair matched into 4's right copy unmatched
        c = mate_r[4]
        mate_l[c] = mate_r[4] = -1
    solver.mate_l, solver.mate_r = mate_l, mate_r
    with pytest.raises(CertificateError, match=message) as exc:
        solver._build_structure(0b1, 0b1110)
    assert exc.value.dump["stage"] == "structure"


def test_fault_dump_replays_a_warm_started_solve(monkeypatch):
    """A matcher that loses one pair whenever it is warm-started breaks the
    second solve of a colouring induction; the dump alone rebuilds a solver
    that fails the same way, while a cold solve of the same counts does not."""
    real = kchi.factor.bipartite_maximum_matching

    def lossy(masks, n_right, mate_left=None, mate_right=None):
        mate_l, mate_r = real(masks, n_right, mate_left, mate_right)
        if mate_left is not None and max(mate_left, default=-1) != -1:
            u = next(u for u, w in enumerate(mate_l) if w != -1)
            mate_r[mate_l[u]] = mate_l[u] = -1
        return mate_l, mate_r

    monkeypatch.setattr(kchi.factor, "bipartite_maximum_matching", lossy)
    with pytest.raises(CertificateError) as first:
        cycle_matching_colouring(gen_multigraph(12, 0.6, 7))
    dump = first.value.dump
    assert dump["stage"] == "extract" and max(dump["mate_l"]) != -1

    def rebuilt(warm: bool) -> _FactorSolver:
        solver = _FactorSolver(dump["n"], dict(dump["pair_counts"]))
        if warm:
            solver.mate_l, solver.mate_r = list(dump["mate_l"]), list(dump["mate_r"])
        return solver

    with pytest.raises(CertificateError) as again:
        rebuilt(True).solve()
    assert str(again.value) == str(first.value) and again.value.dump == dump
    rebuilt(False).solve()


def test_rebuild_fault_dump_lists_the_t_order_used(monkeypatch):
    """A matcher that drops one pair of the rebuild's T-to-S matching breaks
    a step of ``critical_colouring``, whose covering priority reorders T.
    The dump lists that order: a solver rebuilt from the dump alone, with
    the order as its priority, fails the same way on the same masks."""
    real = kchi.factor.bipartite_maximum_matching
    rebuilds = []

    def lossy(masks, n_right, mate_left=None, mate_right=None):
        mate_l, mate_r = real(masks, n_right, mate_left, mate_right)
        if mate_left is None:  # only the rebuild's [nbr[v] & s for v in order] starts cold
            rebuilds.append(list(masks))
            u = next((u for u, w in enumerate(mate_l) if w != -1), None)
            if u is not None:
                mate_r[mate_l[u]] = mate_l[u] = -1
        return mate_l, mate_r

    monkeypatch.setattr(kchi.factor, "bipartite_maximum_matching", lossy)
    g = gen_multigraph(12, 0.5, 0)
    delta = g.max_degree()
    with pytest.raises(CertificateError, match="^rebuild: ") as first:
        critical_colouring(g, delta, RegionPartition.all_free(delta, g.n))
    dump, failing = first.value.dump, rebuilds[-1]
    order = dump["t_order"]

    solver = _FactorSolver(dump["n"], dict(dump["pair_counts"]))
    solver.mate_l, solver.mate_r = list(dump["mate_l"]), list(dump["mate_r"])
    top = max(solver.deg)
    # not the order the solver picks with no priority of the caller's
    assert order != sorted(order, key=lambda v: (solver.deg[v] != top, v))
    rebuilds.clear()
    with pytest.raises(CertificateError) as again:
        solver.solve(t_priority=order.index)
    assert str(again.value) == str(first.value) and again.value.dump == dump
    assert rebuilds == [failing]


# Digest of the solver outputs below, recorded before the factor solver's S
# and T became bitmasks; the solver must keep every choice.
MAX_F_BOUNDED_SUBGRAPHS = "857556d1d336534cf4232b36389eaa76fbcc04f2eadfd2d6688a43551cd66b93"


def test_max_f_bounded_subgraphs_pinned():
    """sha256 over (S, T, 2-cycles, odd cycles) of ``max_f_bounded_subgraph``
    on 100 seeded doubled ``gen_multigraph`` graphs, n ≤ 40.  They are sparse
    (density < 0.3), so that 39 of them have S ≠ ∅ and go through the
    rebuild of H[S ∪ T]."""
    rng = random.Random(20263)
    h = hashlib.sha256()
    for i in range(100):
        n, density, seed = 1 + i % 40, 0.3 * rng.random(), rng.randrange(2**32)
        sub, pair = max_f_bounded_subgraph(gen_multigraph(n, density, seed).doubled())
        h.update(json.dumps([
            sorted(pair.s),
            sorted(pair.t),
            [(tc.u, tc.v, tc.edges) for tc in sub.two_cycles],
            sub.odd_cycles,
        ]).encode() + b"\n")
    assert h.hexdigest() == MAX_F_BOUNDED_SUBGRAPHS
