"""Edge colourings whose classes are unions of single edges and odd cycles.

An *ocm set* is an edge set whose components are isolated edges and odd
cycles; a cycle-matching colouring partitions E(G) into ocm sets.  The
central bound says Δ(G) colours always suffice: repeatedly extract an ocm
set spanning every maximum-degree vertex (via the factor machinery on the
doubled graph) and recurse on the rest, whose maximum degree is strictly
smaller.

More generally an r-bounded regular colouring asks each monochromatic
component to be regular of degree ≤ r; cycle-matching colourings are the
r = 2 case with even cycles excluded.  The constructions here serve every
r ≥ 2 (a 2-bounded colouring is r-bounded); the brute-force χ'_r oracle
works with the general definition, so even cycles count as valid classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import CertificateError, PremiseError, SizeGuardError
from .factor import _edge_handout, _FactorSolver, _solver_for
from .graphs import Multigraph, _touched_components
from .reporting import ValidityReport


@dataclass(frozen=True)
class CycleMatchingColouring:
    colour_of: dict[int, int]
    palette: int

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.palette)]
        for e, c in sorted(self.colour_of.items()):
            out[c].append(e)
        return out


def _extract_ocm(solver: _FactorSolver, take: Callable[[int, int], int]) -> list[int]:
    """One spanning ocm set, as edge ids handed out by ``take``; consumes solver state."""
    res = solver.solve()
    out = [take(u, v) for u, v in res.two_cycles]
    for cyc in res.odd_cycles:
        out.extend(take(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc)))
    return out


def spanning_ocm_set(g: Multigraph) -> frozenset[int]:
    """An edge set whose components are single edges and odd cycles and
    which spans every vertex of maximum degree.
    """
    if g.max_degree() == 0:
        raise PremiseError("an edgeless graph has no spanning ocm set")
    solver = _solver_for(g)
    return frozenset(_extract_ocm(solver, _edge_handout(g, solver)))


def cycle_matching_colouring(g: Multigraph) -> CycleMatchingColouring:
    """Colour E(G) with at most Δ(G) ocm sets.

    The colouring is r-bounded for every r ≥ 2, since a class made of
    single edges and odd cycles is regular of degree ≤ 2 ≤ r per component.
    """
    solver = _solver_for(g)
    take = _edge_handout(g, solver)
    colour_of: dict[int, int] = {}
    delta = g.max_degree()
    colour = 0
    remaining = g.m
    while remaining:
        if colour >= delta:
            raise CertificateError(
                "colouring induction failed to terminate within Δ steps",
                dump={"n": g.n, "edges": list(g.edges)},
            )
        prev = max(solver.deg, default=0)
        ids = _extract_ocm(solver, take)
        now = max(solver.deg, default=0)
        if not ids or now >= prev:
            raise CertificateError(
                "extracted ocm set did not reduce the maximum degree",
                dump={"n": g.n, "edges": list(g.edges), "step": colour},
            )
        for e in ids:
            colour_of[e] = colour
        remaining -= len(ids)
        colour += 1
    return CycleMatchingColouring(colour_of, palette=colour)


def validate_cm_colouring(g: Multigraph, colouring: CycleMatchingColouring, r: int = 2) -> ValidityReport:
    """Check that every colour class is regular of degree ≤ r per component.

    For r = 2 the report details the edge/odd-cycle decomposition of each
    class; even cycles are valid 2-bounded classes but are flagged, since a
    strict cycle-matching (ocm) colouring excludes them.

    Cost: one walk per class over that class's edges, which visits only the
    vertices they touch, so O(m) in all.  Each component is reduced to its
    least vertex, degree range and size; a sorted vertex tuple is built only
    for an even cycle, which the report lists.
    """
    failures: list[str] = []
    details: dict = {"by_colour": {}, "even_cycles": []}
    m, palette = g.m, colouring.palette

    uncoloured = set(range(m)) - colouring.colour_of.keys()
    if uncoloured:
        failures.append(f"uncoloured edges: {sorted(uncoloured)[:8]}")

    by_colour: dict[int, list[int]] = {}
    for e, c in colouring.colour_of.items():
        if not 0 <= e < m:
            failures.append(f"unknown edge identity {e}")
        elif not 0 <= c < palette:
            failures.append(f"edge {e} has colour {c} outside the palette")
        else:
            by_colour.setdefault(c, []).append(e)

    for c, ids in sorted(by_colour.items()):
        singles = odd = even = 0
        adj, comps = _touched_components(g, ids)
        for verts in comps:
            degs = [len(adj[x]) for x in verts]
            lo, hi = min(degs), max(degs)
            if lo != hi or hi > r:
                failures.append(
                    f"colour {c}: component at {verts[0]} has degrees {lo}..{hi} (r = {r})"
                )
            elif hi == 1:
                singles += 1
            elif hi == 2:  # a cycle, with as many edges as vertices
                if len(verts) % 2:
                    odd += 1
                else:
                    even += 1
                    details["even_cycles"].append((c, tuple(sorted(verts))))
        details["by_colour"][c] = {"edges": singles, "odd_cycles": odd, "even_cycles": even}

    return ValidityReport.from_failures(failures, details)


_BRUTE_EDGE_LIMIT = 16


def brute_force_chi_prime_r(g: Multigraph, r: int) -> int:
    """Exact minimum palette of an r-bounded regular colouring (m ≤ 16).

    Enumerates all valid colour classes as bitmasks, then covers E(G) by
    submask dynamic programming; exponential, intended for cross-checks.
    """
    if r < 1:
        raise PremiseError(f"r must be positive, got {r}")
    m = g.m
    if m > _BRUTE_EDGE_LIMIT:
        raise SizeGuardError(f"brute_force_chi_prime_r limited to m ≤ {_BRUTE_EDGE_LIMIT}, got {m}")
    if m == 0:
        return 0

    # valid[mask] ⟺ every component of G[mask] is regular of degree ≤ r
    valid = bytearray(1 << m)
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for mask in range(1, 1 << m):
        deg: dict[int, int] = {}
        edges = [e for e in range(m) if mask >> e & 1]
        touched: list[int] = []
        for e in edges:
            u, v = g.endpoints(e)
            for x in (u, v):
                if x not in deg:
                    deg[x] = 0
                    parent[x] = x
                    touched.append(x)
            deg[u] += 1
            deg[v] += 1
        ok = all(d <= r for d in deg.values())
        if ok:
            for e in edges:
                u, v = g.endpoints(e)
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
            rep_deg: dict[int, int] = {}
            for x in touched:
                root = find(x)
                if root in rep_deg and rep_deg[root] != deg[x]:
                    ok = False
                    break
                rep_deg[root] = deg[x]
        valid[mask] = ok

    big = m + 1
    dp = [0] + [big] * ((1 << m) - 1)
    for mask in range(1, 1 << m):
        low = mask & -mask
        best = big
        sub = mask
        while sub:
            if sub & low and valid[sub]:
                cand = dp[mask ^ sub] + 1
                if cand < best:
                    best = cand
            sub = (sub - 1) & mask
        dp[mask] = best
    return dp[-1]
