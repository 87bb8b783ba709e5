"""Maximum 2-bounded subgraphs of even-multiplicity multigraphs.

Given a multigraph in which every edge has even multiplicity (typically the
doubled copy of some base graph), this module computes

* the deficiency ``def(S, T) = f(T) - f(S) + q(S, T) - d_{G-S}(T)`` for
  ``f ≡ 2``,
* the containment-minimal pair ``(S, T)`` maximizing the deficiency, and
* a degree-≤2 subgraph ``H`` of maximum degree sum whose components are
  2-cycles (pairs of parallel edges) and odd cycles, structured so that
  ``H[S ∪ T]`` consists of 2-cycles plus ``|T| - |S|`` isolated vertices of
  ``T`` and every maximum-degree vertex is covered.

The scalable algorithm avoids a general degree-constrained-subgraph solver:
a maximum matching of the bipartite double cover of the support graph gives
a half-integral optimum, the minimal pair ``(S, T)`` is read straight off
its alternating reachability, and the structure inside ``S ∪ T`` is rebuilt
by bipartite matching.  A 3^n brute-force oracle guards all of it at small
scale.

The solver (:class:`_FactorSolver`) serves the colouring inductions, which
solve, delete the extracted pairs and solve again about Δ times.  It keeps
each vertex's remaining degree and its neighbour bitmask up to date as
pairs are deleted, and hands the masks straight to the iterative bitset
matcher (``matching.bipartite_maximum_matching``) warm-started from the
previous matching, so no step re-sums degrees, builds adjacency lists or
recurses.  S and T stay bitmasks in global vertex ids throughout: the
cover of T inside ``S ∪ T`` is one bipartite matching of the rows
``nbr[v] & S`` whose roots are taken in priority order.  Outside ``S ∪ T``
H is read straight off the two mate arrays, which permute those vertices:
each of their cycles is kept if odd and split into 2-cycles if even.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import CertificateError, PremiseError, SizeGuardError
from .graphs import Multigraph, iter_bits
from .matching import bipartite_maximum_matching

FTable = Sequence[int]
FSpec = FTable | Callable[[int], int]


def _as_table(f: FSpec, n: int) -> list[int]:
    if callable(f):
        return [f(v) for v in range(n)]
    table = list(f)
    if len(table) != n:
        raise PremiseError(f"degree bound table has length {len(table)}, expected {n}")
    return table


@dataclass(frozen=True)
class DeficiencyPair:
    """A disjoint vertex pair (S, T) with its deficiency value.

    Every producer here returns a containment-minimal maximizer.  The pair
    ``max_f_bounded_subgraph`` returns on an even-multiplicity host with
    f ≡ 2 also has T independent, N(T) = S, value = 2|T| - 2|S|, and
    |N(X) ∩ T| > |X| for every nonempty X ⊆ S; ``check_factor_properties``
    tests all four.
    """

    s: frozenset[int]
    t: frozenset[int]
    value: int


@dataclass(frozen=True)
class TwoCycle:
    u: int
    v: int
    edges: tuple[int, int]


@dataclass(frozen=True)
class FactorSubgraph:
    """Disjoint union of 2-cycles and odd cycles, given by edge identities."""

    two_cycles: tuple[TwoCycle, ...]
    odd_cycles: tuple[tuple[int, ...], ...]

    def all_edge_ids(self) -> Iterator[int]:
        for tc in self.two_cycles:
            yield from tc.edges
        for cyc in self.odd_cycles:
            yield from cyc

    def degree_sum(self) -> int:
        return 4 * len(self.two_cycles) + 2 * sum(map(len, self.odd_cycles))


def deficiency(g: Multigraph, f: FSpec, s_set: Iterable[int], t_set: Iterable[int]) -> int:
    """Evaluate def(S, T) = f(T) - f(S) + q(S, T) - d_{G-S}(T) directly.

    ``q(S, T)`` counts the components C of G - (S ∪ T) for which
    f(V(C)) + |E(C, T)| is odd; all edge counts respect multiplicity.
    """
    s = frozenset(s_set)
    t = frozenset(t_set)
    if s & t:
        raise PremiseError(f"S and T overlap in {sorted(s & t)}")
    table = _as_table(f, g.n)

    d_gs_t = 0
    for x in t:
        for e in g.incident(x):
            if g.other_end(e, x) not in s:
                d_gs_t += 1

    # components of G - (S ∪ T), with edge counts into T
    removed = s | t
    seen = [False] * g.n
    q = 0
    for start in range(g.n):
        if seen[start] or start in removed:
            continue
        comp_f = 0
        edges_to_t = 0
        stack = [start]
        seen[start] = True
        while stack:
            x = stack.pop()
            comp_f += table[x]
            for e in g.incident(x):
                y = g.other_end(e, x)
                if y in t:
                    edges_to_t += 1
                elif y not in s and not seen[y]:
                    seen[y] = True
                    stack.append(y)
        if (comp_f + edges_to_t) % 2:
            q += 1

    return sum(table[x] for x in t) - sum(table[x] for x in s) + q - d_gs_t


# ---------------------------------------------------------------------------
# scalable solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SupportFactor:
    """Solver output in support-graph terms (vertex pairs, not edge ids)."""

    s: frozenset[int]
    t: frozenset[int]
    two_cycles: tuple[tuple[int, int], ...]
    odd_cycles: tuple[tuple[int, ...], ...]  # vertex cycles, canonical rotation
    uncovered: frozenset[int]


class _FactorSolver:
    """Incremental max-2-bounded-subgraph solver on a support graph.

    ``count[(u, v)]`` is the number of *doubling pairs* available on the
    pair u-v (the doubled host graph has twice that many parallel edges).
    ``pair_counts`` is taken as given: distinct pairs u < v with positive
    counts, as ``_solver_for`` and ``_halved_counts`` build them.  The
    bipartite double-cover matching is kept across :meth:`solve` calls so
    that the colouring induction, which repeatedly extracts an edge set and
    deletes it, pays only for re-augmentation.  ``deg[v]`` (the sum of
    ``count`` over v's pairs) and ``nbr[v]`` (the bitmask of the vertices
    sharing a pair with v) are kept current by :meth:`remove_copy` rather
    than recomputed.
    """

    def __init__(self, n: int, pair_counts: Mapping[tuple[int, int], int]):
        self.n = n
        self.count = dict(pair_counts)
        self.nbr = [0] * n
        self.deg = [0] * n
        for (u, v), c in pair_counts.items():
            self.nbr[u] |= 1 << v
            self.nbr[v] |= 1 << u
            self.deg[u] += c
            self.deg[v] += c
        # _warm: the mates the last solve started from, for fault dumps
        self.mate_l, self.mate_r = self._warm = [-1] * n, [-1] * n

    def weighted_degree(self, v: int) -> int:
        return self.deg[v]

    def remove_copy(self, u: int, v: int) -> None:
        """Delete one doubling pair from u-v, updating the cached matching."""
        key = (u, v) if u < v else (v, u)
        left = self.count[key] - 1
        self.deg[u] -= 1
        self.deg[v] -= 1
        if left:
            self.count[key] = left
            return
        del self.count[key]
        self.nbr[u] &= ~(1 << v)
        self.nbr[v] &= ~(1 << u)
        if self.mate_l[u] == v:
            self.mate_l[u] = -1
            self.mate_r[v] = -1
        if self.mate_l[v] == u:
            self.mate_l[v] = -1
            self.mate_r[u] = -1

    def _fail(self, stage: str, message: str, **extra) -> CertificateError:
        """A fault whose dump replays the failing solve.

        A solver built from ``pair_counts`` and warm-started from ``mate_l``
        and ``mate_r`` repeats it.  A ``"rebuild"`` fault also lists
        ``t_order``, the order T was covered in, so a caller's priority is
        replayed by ``solve(t_priority=dump["t_order"].index)``.
        """
        return CertificateError(
            f"{stage}: {message}",
            dump={
                "stage": stage,
                "n": self.n,
                "pair_counts": sorted(self.count.items()),
                "mate_l": list(self._warm[0]),
                "mate_r": list(self._warm[1]),
                **extra,
            },
        )

    def solve(self, t_priority=None) -> _SupportFactor:
        """One maximum 2-bounded subgraph of the current doubled graph.

        (S, T) is read straight off a maximum matching of the bipartite
        double cover B, and is already the minimal maximizer (Gallai–Edmonds;
        Lovász & Plummer, *Matching Theory*).  Let D be the vertices of B
        that some maximum matching misses: D is independent, and every
        nonempty X ⊆ N(D) has |N(X) ∩ D| ≥ |X| + 1.  Swapping x_L ↔ x_R is
        an automorphism of B, so D names the same vertices on both sides:
        T = D (the left copies reachable from an exposed one), S = N(D)
        (the right copies they reach), S and T are disjoint, and S expands
        strictly into T.
        """
        n = self.n
        nbr = self.nbr
        self._warm = (self.mate_l, self.mate_r)  # the matcher copies them
        mate_l, mate_r = bipartite_maximum_matching(nbr, n, self.mate_l, self.mate_r)
        self.mate_l, self.mate_r = mate_l, mate_r

        # alternating reachability from exposed left copies: z_l is T, z_r is S
        z_l = 0
        z_r = 0
        stack = [v for v in range(n) if mate_l[v] == -1]
        for v in stack:
            z_l |= 1 << v
        while stack:
            u = stack.pop()
            fresh = nbr[u] & ~z_r
            if mate_l[u] != -1:
                fresh &= ~(1 << mate_l[u])
            z_r |= fresh
            for w in iter_bits(fresh):
                p = mate_r[w]
                if p == -1:
                    raise self._fail("extract", "augmenting path past a maximum matching")
                if not z_l >> p & 1:
                    z_l |= 1 << p
                    stack.append(p)

        return self._build_structure(z_r, z_l, t_priority)

    def _build_structure(self, s: int, t: int, t_priority=None) -> _SupportFactor:
        """H read straight off the double-cover matching, then H[S ∪ T] rebuilt.

        Gallai–Edmonds for the bipartite double cover B: every maximum
        matching matches A(B) = S into D(B) = T, matches C(B) perfectly inside
        itself and leaves only copies of T exposed.  So no matched pair
        crosses the S∪T boundary, every matched pair inside S∪T joins S to T,
        and every vertex with an exposed copy is in T (an exposed left copy
        by construction: those seed the reachability).  Each is checked.
        Once they hold, both mates of a vertex outside S∪T are defined and
        outside S∪T, so the mates permute those vertices and the walk along
        them never meets a -1.  Each of their cycles is walked from its least
        vertex toward its lesser mate, kept if odd and split into
        alternating 2-cycles if even.
        """
        n = self.n
        mate_l, mate_r = self.mate_l, self.mate_r
        inside = s | t
        for u, v in enumerate(mate_l):
            if not t >> u & 1 and (v == -1 or mate_r[u] == -1):
                raise self._fail("structure", f"exposed copy of {u} outside T")
            if v == -1:
                continue
            if (inside >> u & 1) != (inside >> v & 1):
                a, b = (u, v) if u < v else (v, u)
                raise self._fail("structure", f"component crosses the S∪T boundary at {a}-{b}")
            if inside >> u & 1 and (t >> u & 1) == (t >> v & 1):
                raise self._fail("structure", f"matched pair {u}-{v} inside S∪T misses S or T")

        two: list[tuple[int, int]] = []
        odd_cycles: list[tuple[int, ...]] = []
        rest = (1 << n) - 1 & ~inside
        while rest:
            v0 = (rest & -rest).bit_length() - 1
            step = mate_l if mate_l[v0] < mate_r[v0] else mate_r
            cycle = [v0]
            while step[cycle[-1]] != v0:
                cycle.append(step[cycle[-1]])
            for v in cycle:
                rest ^= 1 << v
            if len(cycle) % 2:
                odd_cycles.append(tuple(cycle))
            else:
                for i in range(0, len(cycle), 2):
                    a, b = cycle[i], cycle[i + 1]
                    two.append((a, b) if a < b else (b, a))

        # rebuild H[S ∪ T]: 2-cycles matching S into T.  The T-vertex sets an
        # S-saturating matching can cover are the bases of a transversal
        # matroid, so covering T greedily in priority order is optimal.
        # Vertices at the current maximum degree come first regardless (they
        # must end up spanned); callers may promote others via t_priority.
        covered = 0
        if s:
            deg = self.deg
            delta = max(deg, default=0)
            prio = t_priority or (lambda v: 0)
            order = sorted(iter_bits(t), key=lambda v: (deg[v] != delta, prio(v), v))
            # Kuhn's roots are taken in ``order``, so T is covered greedily
            mate_t, _ = bipartite_maximum_matching([self.nbr[v] & s for v in order], n)
            for v, u in zip(order, mate_t):
                if u != -1:
                    two.append((u, v) if u < v else (v, u))
                    covered |= 1 << v
            # a T-to-S matching has size at most |S| and an S-saturating one
            # exists, so the greedy maximum saturates S automatically
            if covered.bit_count() != s.bit_count():
                raise self._fail(
                    "rebuild", "S not saturated while rebuilding H[S∪T]", t_order=order
                )
            for v in iter_bits(t & ~covered):
                if deg[v] == delta:
                    raise self._fail(
                        "rebuild", f"maximum-degree vertex {v} of T left uncovered", t_order=order
                    )

        return _SupportFactor(
            s=frozenset(iter_bits(s)),
            t=frozenset(iter_bits(t)),
            two_cycles=tuple(sorted(two)),
            odd_cycles=tuple(sorted(odd_cycles)),
            uncovered=frozenset(iter_bits(t & ~covered)),
        )


def _solver_for(g: Multigraph) -> _FactorSolver:
    """A solver on the doubled copy of ``g``, for the Δ-step inductions."""
    return _FactorSolver(g.n, Counter(g.edges))


def _edge_handout(g: Multigraph, solver: _FactorSolver) -> Callable[[int, int], int]:
    """``take(u, v)``: remove one live copy of u-v from ``solver``, return its edge id.

    Each take spends the pair's lowest unused copy (``Multigraph.free_edge``),
    across every step of the induction that shares this handout.
    """
    used: set[int] = set()
    free_edge = g.free_edge

    def take(u: int, v: int) -> int:
        solver.remove_copy(u, v)
        e = free_edge((u, v) if u < v else (v, u), used)
        used.add(e)
        return e

    return take


def _halved_counts(g: Multigraph) -> dict[tuple[int, int], int]:
    counts = {}
    for (u, v), mult in Counter(g.edges).items():
        if mult % 2:
            raise PremiseError(f"edge {u}-{v} has odd multiplicity {mult}")
        counts[(u, v)] = mult // 2
    return counts


def max_f_bounded_subgraph(g: Multigraph) -> tuple[FactorSubgraph, DeficiencyPair]:
    """Maximum-degree-sum subgraph with degrees ≤ 2, plus its witness pair.

    The subgraph consists of 2-cycles and odd cycles, attains degree sum
    ``2 n - def(S, T)``, and covers every maximum-degree vertex.  The pair
    is the containment-minimal maximizer of def(S, T) with f ≡ 2.
    Requires every edge of ``g`` to have even multiplicity.
    """
    res = _FactorSolver(g.n, _halved_counts(g)).solve()
    pair = DeficiencyPair(s=res.s, t=res.t, value=2 * (len(res.t) - len(res.s)))
    two = []
    for u, v in res.two_cycles:
        ids = g.edge_ids_between(u, v)
        two.append(TwoCycle(u, v, (ids[0], ids[1])))
    cycles = []
    for cyc in res.odd_cycles:
        k = len(cyc)
        cycles.append(
            tuple(g.edge_ids_between(cyc[i], cyc[(i + 1) % k])[0] for i in range(k))
        )
    return FactorSubgraph(tuple(two), tuple(cycles)), pair


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

_BRUTE_LIMIT = 14


def brute_force_deficiency(g: Multigraph, f: FSpec) -> DeficiencyPair:
    """Exact deficiency maximizer by exhaustive enumeration (n ≤ 14).

    Ties are broken toward the containment-minimal pair: smallest
    |S| + |T| first, then lexicographically smallest (sorted S, sorted T).
    When all degree bounds and all edge multiplicities are even the parity
    term q vanishes and an enumeration over S alone is exact (T is then
    every vertex outside S with a positive gain);
    otherwise all 3^n disjoint pairs are scanned.
    """
    n = g.n
    if n > _BRUTE_LIMIT:
        raise SizeGuardError(f"brute_force_deficiency limited to n ≤ {_BRUTE_LIMIT}, got {n}")
    table = _as_table(f, g.n)

    even = all(x % 2 == 0 for x in table) and all(
        g.multiplicity(u, v) % 2 == 0 for u, v in g.support_pairs()
    )
    if even:
        return _brute_even(g, table)
    return _brute_general(g, table)


def _pair_from_masks(s_mask: int, t_mask: int, value: int) -> DeficiencyPair:
    s = frozenset(v for v in range(s_mask.bit_length()) if s_mask >> v & 1)
    t = frozenset(v for v in range(t_mask.bit_length()) if t_mask >> v & 1)
    return DeficiencyPair(s=s, t=t, value=value)


def _brute_even(g: Multigraph, table: list[int]) -> DeficiencyPair:
    n = g.n
    mult = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        mult[u][v] += 1
        mult[v][u] += 1

    # gains[S][t] is the gain of placing t in T, given S:
    # f(t) - deg(t) + (edges from t into S), built from S minus its lowest vertex
    gains = [[f - d for f, d in zip(table, g.degrees)]]
    f_s = [0]
    best = None
    tied: list[int] = []
    for s_mask in range(1 << n):
        if s_mask:
            prev = s_mask & (s_mask - 1)
            low = (s_mask ^ prev).bit_length() - 1
            gains.append([a + b for a, b in zip(gains[prev], mult[low])])
            f_s.append(f_s[prev] + table[low])
        gain = gains[s_mask]
        value = sum(x for v, x in enumerate(gain) if x > 0 and not s_mask >> v & 1)
        value -= f_s[s_mask]
        if best is None or value > best:
            best = value
            tied = []
        if value == best:
            tied.append(s_mask)

    def key(s_mask: int) -> tuple[int, list[int], list[int]]:
        s = list(iter_bits(s_mask))
        t = [v for v, x in enumerate(gains[s_mask]) if x > 0 and not s_mask >> v & 1]
        return len(s) + len(t), s, t

    _, s, t = min(map(key, tied))
    return DeficiencyPair(frozenset(s), frozenset(t), best)


def _brute_general(g: Multigraph, table: list[int]) -> DeficiencyPair:
    n = g.n
    if n == 0:
        return DeficiencyPair(frozenset(), frozenset(), 0)
    mult = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        mult[u][v] += 1
        mult[v][u] += 1
    deg = g.degrees

    best = None  # (value, -(size), lex...) — tracked via explicit compare
    best_key = None
    for w_mask in range(1 << n):
        outside = [v for v in range(n) if not w_mask >> v & 1]
        w_verts = [v for v in range(n) if w_mask >> v & 1]

        # components of G - W: parity of f(V(C)) and mask of W-vertices
        # joined to C by an odd number of edges
        seen = 0
        comps: list[tuple[int, int]] = []
        for start in outside:
            if seen >> start & 1:
                continue
            stack = [start]
            seen |= 1 << start
            f_par = 0
            cnt = [0] * n
            while stack:
                x = stack.pop()
                f_par ^= table[x] & 1
                for e in g.incident(x):
                    y = g.other_end(e, x)
                    if w_mask >> y & 1:
                        cnt[y] += 1
                    elif not seen >> y & 1:
                        seen |= 1 << y
                        stack.append(y)
            odd_mask = 0
            for v in w_verts:
                if cnt[v] % 2:
                    odd_mask |= 1 << v
            comps.append((f_par, odd_mask))

        t_mask = w_mask
        while True:  # enumerate T ⊆ W, S = W \ T
            s_mask = w_mask ^ t_mask
            t_verts = [v for v in w_verts if t_mask >> v & 1]
            q = 0
            for f_par, odd_mask in comps:
                if f_par ^ (bin(odd_mask & t_mask).count("1") & 1):
                    q += 1
            d = 0
            fsum = 0
            for v in t_verts:
                fsum += table[v]
                d += deg[v]
                for u in range(n):
                    if s_mask >> u & 1:
                        d -= mult[v][u]
            for v in w_verts:
                if s_mask >> v & 1:
                    fsum -= table[v]
            value = fsum + q - d
            if best is None or value > best:
                best = value
                best_key = None
            if value == best:
                size = bin(w_mask).count("1")
                key = (
                    size,
                    sorted(v for v in w_verts if s_mask >> v & 1),
                    sorted(t_verts),
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best_masks = (s_mask, t_mask)
            if t_mask == 0:
                break
            t_mask = (t_mask - 1) & w_mask

    assert best is not None
    return _pair_from_masks(best_masks[0], best_masks[1], best)


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------


def _strict_expansion_violation(g: Multigraph, s, t) -> list[int] | None:
    """A nonempty X ⊆ S with |N(X) ∩ T| ≤ |X|, or None if there is none.

    By Hall's theorem, S expands strictly into T iff for every x ∈ S the
    left side S plus a second copy of x still matches completely into T
    (Lovász & Plummer, *Matching Theory*): |S| augmentations, each
    warm-started from one matching of S.  When a copy stays unmatched, the
    left vertices reachable from it by alternating paths form a Hall
    violator, and their originals are the returned X.
    """
    s_list = sorted(s)
    t_mask = sum(1 << y for y in t)
    rows = [g.adjacency_mask(x) & t_mask for x in s_list]
    base_l, base_r = bipartite_maximum_matching(rows, g.n)
    for i in range(len(s_list)):
        dup = rows + [rows[i]]
        mate_l, mate_r = bipartite_maximum_matching(dup, g.n, base_l + [-1], base_r)
        if -1 not in mate_l:
            continue
        start = mate_l.index(-1)
        reached, stack = {start}, [start]
        while stack:
            for w in iter_bits(dup[stack.pop()]):
                u = mate_r[w]
                if u not in reached:  # a maximum matching leaves no w free here
                    reached.add(u)
                    stack.append(u)
        return sorted({s_list[i if u == len(s_list) else u] for u in reached})
    return None


def check_factor_properties(
    g: Multigraph, h: FactorSubgraph, pair: DeficiencyPair
) -> list[str]:
    """Return violations of the six structural properties of (H, S, T).

    Checked against the even-multiplicity host ``g`` with f ≡ 2:

    1. H is a disjoint union of 2-cycles and odd cycles;
    2. def value = 2|T| - 2|S| and degree-sum(H) = 2n - value;
    3. T is independent and N(T) = S;
    4. H[S ∪ T] is a set of 2-cycles plus |T| - |S| isolated vertices, all
       in T;
    5. every nonempty X ⊆ S satisfies |N(X) ∩ T| > |X|;
    6. every maximum-degree vertex has degree 2 in H.
    """
    bad: list[str] = []
    s, t = pair.s, pair.t
    if s & t:
        bad.append(f"S and T overlap: {sorted(s & t)}")

    deg_h = [0] * g.n
    used: set[int] = set()
    for e in h.all_edge_ids():
        if e in used:
            bad.append(f"edge {e} used twice in H")
        used.add(e)
        u, v = g.endpoints(e)
        deg_h[u] += 1
        deg_h[v] += 1

    comp_vertices: list[set[int]] = []
    cycle_sets: list[tuple[tuple[int, ...], set[int]]] = []
    for tc in h.two_cycles:
        e1, e2 = tc.edges
        pair_uv = tuple(sorted((tc.u, tc.v)))
        if g.endpoints(e1) != pair_uv or g.endpoints(e2) != pair_uv or e1 == e2:
            bad.append(f"2-cycle {tc} is not two parallel edges")
        comp_vertices.append({tc.u, tc.v})
    for cyc in h.odd_cycles:
        if len(cyc) % 2 == 0 or len(cyc) < 3:
            bad.append(f"cycle {cyc} is not odd of length ≥ 3")
            continue
        verts = []
        ok = True
        for i, e in enumerate(cyc):
            u1, v1 = g.endpoints(e)
            u2, v2 = g.endpoints(cyc[(i + 1) % len(cyc)])
            shared = {u1, v1} & {u2, v2}
            if len(shared) != 1:
                ok = False
                break
            verts.append(next(iter(shared)))
        if not ok or len(set(verts)) != len(cyc):
            bad.append(f"cycle {cyc} does not trace a simple closed walk")
            continue
        comp_vertices.append(set(verts))
        cycle_sets.append((cyc, set(verts)))
    all_covered: set[int] = set()
    for cv in comp_vertices:
        if cv & all_covered:
            bad.append(f"components share vertices: {sorted(cv & all_covered)}")
        all_covered |= cv

    expect = 2 * len(t) - 2 * len(s)
    if pair.value != expect:
        bad.append(f"value {pair.value} ≠ 2|T| - 2|S| = {expect}")
    if h.degree_sum() != 2 * g.n - pair.value:
        bad.append(f"degree-sum {h.degree_sum()} ≠ 2n - def = {2 * g.n - pair.value}")

    for x in t:
        for y in g.neighbours(x):
            if y in t:
                bad.append(f"T not independent: edge {x}-{y}")
            elif y not in s:
                bad.append(f"N(T) ⊄ S: neighbour {y} of {x}")
    for x in s:
        if not any(y in t for y in g.neighbours(x)):
            bad.append(f"S vertex {x} has no neighbour in T")

    inside = s | t
    isolated_inside = {v for v in inside if deg_h[v] == 0}
    if not isolated_inside <= t:
        bad.append(f"isolated vertices outside T: {sorted(isolated_inside - t)}")
    if len(isolated_inside) != len(t) - len(s):
        bad.append(
            f"{len(isolated_inside)} isolated vertices in S∪T, expected {len(t) - len(s)}"
        )
    for tc in h.two_cycles:
        ends = {tc.u, tc.v}
        if ends & inside and not (len(ends & s) == 1 and len(ends & t) == 1):
            bad.append(f"2-cycle {tc.u}-{tc.v} does not pair S with T")
    for cyc, cv in cycle_sets:
        if cv & inside:
            bad.append(f"odd cycle {cyc} meets S ∪ T")

    xs = _strict_expansion_violation(g, s, t)
    if xs is not None:
        nbhd = {y for x in xs for y in g.neighbours(x) if y in t}
        bad.append(f"no strict expansion: X = {xs}, |N(X) ∩ T| = {len(nbhd)}")

    delta = g.max_degree()
    for v in range(g.n):
        if g.degree(v) == delta and deg_h[v] != 2 and delta > 0:
            bad.append(f"maximum-degree vertex {v} has H-degree {deg_h[v]}")

    return bad
