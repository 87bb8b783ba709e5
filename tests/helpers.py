"""Small graph builders and reference computations shared across tests."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

from kchi.colouring import CycleMatchingColouring
from kchi.construct import (
    assign_bridges,
    audit_out_degree,
    build_bridge_digraph,
    decorated_regions,
    restrict_out_degree,
)
from kchi.decorated import DecoratedColouring, RegionPartition, _step_audit, critical_colouring
from kchi.errors import CertificateError
from kchi.generators import emit_certificate
from kchi.graphs import Multigraph, components_of
from kchi.immersion import (
    Immersion,
    PairColouring,
    _bits,
    _grouped_by_owner,
    _hop_fault,
    _refine_split,
    _second_path,
    _with_split,
    audit_refined,
    corner_labels,
    run_colouring_audits,
)
from kchi.reporting import ValidityReport


def written_out(imm: Immersion) -> str:
    """``imm``'s certificate with every corner pair's path listed, the implicit
    ones as their lowest-id edge: the text certificates had before such
    paths were left out."""
    return emit_certificate(Immersion(imm.corners, dict(imm.paths), imm.faithful_to))


def path(k: int) -> Multigraph:
    return Multigraph(k, [(i, i + 1) for i in range(k - 1)])


def cycle(k: int) -> Multigraph:
    return Multigraph(k, [(i, (i + 1) % k) for i in range(k)])


def complete(k: int) -> Multigraph:
    return Multigraph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def star(s: int) -> Multigraph:
    return Multigraph(s + 1, [(0, i) for i in range(1, s + 1)])


def cocktail(k: int) -> Multigraph:
    """K_{2k} minus the perfect matching {2i, 2i+1}."""
    return Multigraph(
        2 * k,
        [(u, v) for u in range(2 * k) for v in range(u + 1, 2 * k) if u // 2 != v // 2],
    )


def random_simple(n: int, p: float, rng: random.Random) -> Multigraph:
    pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Multigraph(n, pairs)


def graph_fields(g: Multigraph) -> tuple:
    """Everything ``g`` answers, incidence lists included, for field-by-field equality.

    Pair lookups cover every ordered vertex pair, absent pairs too, and
    ``free_edge`` is asked for each sorted pair with its first copy used.
    """
    assert g._inc is None  # built on first use, by either constructor
    between = {(u, v): g.edge_ids_between(u, v) for u in range(g.n) for v in range(g.n)}
    return (
        g.n,
        tuple(g.edges),
        between,
        [g.free_edge((u, v), set(ids[:1])) for (u, v), ids in between.items() if u < v],
        list(g.support_pairs()),
        [g.adjacency_mask(v) for v in range(g.n)],
        g.degrees,
        [g.incident(v) for v in range(g.n)],
    )


def rows_edges(rows: list[int]) -> list[tuple[int, int]]:
    """The pairs (u, v), u < v, of symmetric adjacency rows, sorted."""
    n = len(rows)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1]


def random_multigraph(n: int, max_mult: int, p: float, rng: random.Random) -> Multigraph:
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                pairs.extend([(u, v)] * rng.randint(1, max_mult))
    return Multigraph(n, pairs)


def random_regions(g: Multigraph, palette: int, rng: random.Random) -> RegionPartition:
    """Random free/reserve/blocked split keeping |free| + |reserve| ≥ degree."""
    free, reserve, blocked = [], [], []
    for x in range(g.n):
        d = g.degree(x)
        cols = list(range(palette))
        rng.shuffle(cols)
        a = rng.randint(0, palette)
        b = rng.randint(max(0, d - a), palette - a) if a < d else rng.randint(0, palette - a)
        free.append(cols[:a])
        reserve.append(cols[a : a + b])
        blocked.append(cols[a + b :])
    return RegionPartition.from_sets(palette, free, reserve, blocked)


def brute_max_matching_size(n: int, pairs: list[tuple[int, int]]) -> int:
    """Reference maximum matching size by branch and bound."""
    best = 0

    def rec(i: int, used: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if i == len(pairs) or size + (len(pairs) - i) <= best:
            return
        u, v = pairs[i]
        if not used >> u & 1 and not used >> v & 1:
            rec(i + 1, used | 1 << u | 1 << v, size + 1)
        rec(i + 1, used, size)

    rec(0, 0, 0)
    return best


# Reference colouring audits: the plain nested-loop scans, one ``has_edge``
# per question, that the mask-reading audits in ``kchi.immersion`` must agree
# with.


def reference_singleton_clique(g: Multigraph, col: PairColouring) -> list[str]:
    return [
        f"singletons {u} and {w} are non-adjacent"
        for u, w in combinations(col.singletons, 2)
        if not g.has_edge(u, w)
    ]


def reference_inner_adjacency(g: Multigraph, col: PairColouring) -> list[str]:
    bad = []
    for v in col.singletons:
        inners = [
            next(a for a in cls if not g.has_edge(v, a))
            for cls in col.pairs
            if sum(g.has_edge(v, a) for a in cls) == 1
        ]
        bad.extend(
            f"inner halves {p} and {q} at singleton {v} are non-adjacent"
            for p, q in combinations(inners, 2)
            if not g.has_edge(p, q)
        )
    return bad


def reference_double_nonedge(g: Multigraph, col: PairColouring) -> list[str]:
    if len(col.singletons) < 2:
        return []
    bad = []
    for cls_a, cls_b in combinations(col.pairs, 2):
        for u, v in combinations(col.singletons, 2):
            for uu, vv in ((u, v), (v, u)):
                for a1 in cls_a:
                    if g.has_edge(uu, a1):
                        continue
                    for b1 in cls_b:
                        if g.has_edge(vv, b1):
                            continue
                        a2 = cls_a[0] if a1 == cls_a[1] else cls_a[1]
                        b2 = cls_b[0] if b1 == cls_b[1] else cls_b[1]
                        four = (uu, vv, a2, b2)
                        for x, y in combinations(four, 2):
                            if not g.has_edge(x, y):
                                bad.append(
                                    f"quadruple {four} from classes {cls_a}, {cls_b} "
                                    f"misses edge {x}-{y}"
                                )
    return bad


# The corner rule as it was applied before the split recorded it: each
# question about a pair class rescans the singletons.  A singleton meeting
# the class in exactly one edge attaches to it; the lowest attacher owns the
# class, and the halves the attachers meet name its corner, or dispute it.
# A vertex outside the graph has no edges.


def reference_split(g: Multigraph, classes) -> tuple[dict, dict, tuple, list[str]]:
    """``(owner, corner, disputed, shared-attachment failures)`` of raw classes."""

    def adjacent(u: int, v: int) -> bool:
        return 0 <= u < g.n and 0 <= v < g.n and g.has_edge(u, v)

    norm = sorted(tuple(sorted(cls)) for cls in classes)
    singles = [cls[0] for cls in norm if len(cls) == 1]
    owner, corner, disputed, bad = {}, {}, [], []
    for cls in (cls for cls in norm if len(cls) == 2):
        attachers = [s for s in singles if adjacent(s, cls[0]) + adjacent(s, cls[1]) == 1]
        if not attachers:
            continue
        owner[cls] = min(attachers)
        named = sorted({x for s in attachers for x in cls if adjacent(s, x)})
        if len(named) == 1:
            corner[cls] = named[0]
        else:
            disputed.append(cls)
            bad.append(f"attachers of class {cls} split between {named}")
    return owner, corner, tuple(disputed), bad


# -- the per-pair path lane ------------------------------------------------------
#
# ``immersion._lay_paths`` as it was when every corner pair went through it:
# a two-vertex route that gets its pair's lowest copy of all is laid as
# implicit, every other route is listed.  The constructor now lays only the
# listed routes and checks the implicit pairs by adjacency masks.


def _lowest_free(g: Multigraph, uv: tuple[int, int], used) -> tuple[int, bool] | None:
    """``(e, lowest)``: the pair's lowest copy e not in ``used``, and whether
    e is its lowest copy of all; None when every copy is spent."""
    ids = g.edge_ids_between(*uv)
    for t, e in enumerate(ids):
        if e not in used:
            return e, t == 0
    return None


def reference_lay_paths(g: Multigraph, routes, used: set, paths: dict, implicit: set) -> None:
    """The per-pair lane: every route in turn, its end pair put in ``implicit``
    when it is a two-vertex route that takes its pair's lowest copy."""
    for route in routes:
        a, b = route[0], route[-1]
        key = (a, b) if a < b else (b, a)
        if key in paths:
            raise _second_path(key)
        direct = len(route) == 2
        if direct:
            found = _lowest_free(g, key, used)
            if found is not None and found[1]:
                used.add(found[0])
                implicit.add(key)
                continue
        if key in implicit:
            raise _second_path(key)
        ids = []
        for u, w in zip(route, route[1:]):
            found = _lowest_free(g, (u, w) if u < w else (w, u), used)
            if found is None:
                raise _hop_fault(g, route, u, w)
            used.add(found[0])
            ids.append(found[0])
        paths[key] = tuple(ids) if a < b else tuple(reversed(ids))


def reference_faithful(g: Multigraph, col: PairColouring, used: set, paths: dict, implicit: set):
    """``_faithful_immersion`` on the per-pair lane: every corner pair laid."""
    labels = corner_labels(g, col)
    singles = col.singletons
    halves = [(labels[cls], col.inner(cls)) for cls in col.attached]
    direct = list(combinations(singles, 2)) + [(a, c) for a in singles for c, _ in halves]
    routes = []
    for (ca, ia), (cb, ib) in combinations(halves, 2):
        if g.has_edge(ca, cb):
            direct.append((ca, cb))
        else:
            routes.append((ca, ib, ia, cb))
    reference_lay_paths(g, direct + routes, used, paths, implicit)
    return tuple(sorted(singles + tuple(c for c, _ in halves)))


# -- the constructor's level chain with four step shapes ----------------------
#
# ``construct._immerse`` before the complete and no-attached levels were
# folded into the general step: an identity level (every class a singleton)
# joins its vertices directly and ends the chain, and a level whose
# singletons have no attached class checks them universal and extends the
# corners below by direct edges.  ``shapes`` counts the levels of each shape.


def reference_immerse(g: Multigraph, col: PairColouring, used: set, paths: dict, shapes: Counter):
    """The four-shape ``_immerse`` on the per-pair lane: the corners, with the
    listed paths put in ``paths``."""
    implicit: set = set()
    levels = []
    while True:
        verts = col.vertices
        if len(col.classes) == len(verts):
            shapes["identity"] += 1
            reference_lay_paths(g, combinations(verts, 2), used, paths, implicit)
            corners = verts
            break

        bad = run_colouring_audits(g, col)
        if bad:
            raise CertificateError("structural audit failed on an optimal colouring")
        if not col.singletons:
            shapes["all pairs"] += 1
            handed = col.classes[1:] + (col.classes[0][1:],)
        else:
            col = _refine_split(g, col)
            if audit_refined(g, col):
                raise CertificateError("counting inequality still violated after refinement")
            if not col.attached:
                shapes["none attached"] += 1
                verts_mask = _bits(verts)
                for u in col.singletons:
                    if verts_mask & ~g.adjacency_mask(u) & ~(1 << u):
                        raise CertificateError(
                            "detached singleton misses a vertex", dump={"singleton": u}
                        )
                handed = col.pairs
            else:
                shapes["general"] += 1
                handed = col.detached
            levels.append(col)
        col = _with_split(g, handed)
        if len(handed) != (len(col.vertices) + 1) // 2:
            raise CertificateError("handed-down vertex set has an unexpected class count")

    for col in reversed(levels):
        singles = col.singletons
        if not col.attached:
            later = ((u, w) for t, u in enumerate(singles) for w in singles[t + 1 :] + corners)
            reference_lay_paths(g, later, used, paths, implicit)
            corners = tuple(sorted(singles + corners))
            continue

        y_corners = corners
        x_classes = [(u,) for u in singles] + list(col.attached)
        x_corners = reference_faithful(g, _with_split(g, x_classes), used, paths, implicit)
        direct = [(a, y) for a in singles for y in y_corners]
        for v in sorted(_grouped_by_owner(col)):
            d = build_bridge_digraph(g, col, v, y_corners)
            if audit_out_degree(d):
                raise CertificateError("bridge digraph below its degree guarantee")
            restrict_out_degree(d)
            regions = decorated_regions(d)
            dec = critical_colouring(d.conflict, len(d.y_corners), regions)
            routes = assign_bridges(d, dec)
            for i, bridged in enumerate(d.bridged):
                for y in d.y_corners:
                    if y in bridged:  # each bridge before the level's direct pairs
                        reference_lay_paths(g, [routes[(i, y)]], used, paths, implicit)
                    else:
                        direct.append((d.corner[i], y))
        reference_lay_paths(g, direct, used, paths, implicit)
        corners = tuple(sorted(x_corners + y_corners))
    return corners


def reference_step_audit(g: Multigraph, regions: RegionPartition, dec: DecoratedColouring) -> list[str]:
    """``decorated._step_audit`` as it was before a step visited only the
    live vertices: every vertex at every step, with per-vertex mark lists.

    Replay the induction and check the three per-step invariants:

    * vertices marked at a step are pairwise non-adjacent in the graph
      still alive at the later marking step (within a step: at that step);
    * every vertex whose current degree equals the remaining palette size
      is spanned by the edges consumed in that step;
    * after each step, unmarked vertices keep degree ≤ remaining
      free + reserve colours.
    """
    bad: list[str] = []
    palette = regions.palette
    step_of = [dec.step_of(e) for e in range(g.m)]

    marks_of: dict[int, list[int]] = {}
    for c, verts in dec.uncovered_at.items():
        if not 0 <= c < palette:
            bad.append(f"marking recorded for unknown colour {c}")
            continue
        for x in verts:
            marks_of.setdefault(x, []).append(c)

    us, vs = g.endpoint_columns
    for e, (u, v) in enumerate(zip(us, vs)):
        for i in marks_of.get(u, ()):
            for j in marks_of.get(v, ()):
                if step_of[e] >= max(i, j):
                    bad.append(
                        f"marked vertices {u} (step {i}) and {v} (step {j}) "
                        f"joined by edge {e} still alive then"
                    )

    deg = list(g.degrees)
    marked: set[int] = set()
    for c in range(palette):
        consumed = [e for e in range(g.m) if step_of[e] == c]
        touched = set()
        for e in consumed:
            touched.add(us[e])
            touched.add(vs[e])
        for x in range(g.n):
            if deg[x] == palette - c and x not in touched:
                bad.append(f"step {c}: vertex {x} has full degree but is unspanned")
        marked |= dec.uncovered_at.get(c, frozenset())
        for e in consumed:
            deg[us[e]] -= 1
            deg[vs[e]] -= 1
        for x in range(g.n):
            if x in marked:
                continue
            slack = sum(1 for q in regions.free[x] if q > c) + sum(
                1 for q in regions.reserve[x] if q > c
            )
            if deg[x] > slack:
                bad.append(
                    f"after step {c}: unmarked vertex {x} has degree {deg[x]} "
                    f"above its remaining free+reserve {slack}"
                )
    return bad


def reference_validate_cm_colouring(
    g: Multigraph, colouring: CycleMatchingColouring, r: int = 2
) -> ValidityReport:
    """``colouring.validate_cm_colouring`` as it was before it walked only
    the edges of each class: one ``components_of`` call per colour class.

    Check that every colour class is regular of degree ≤ r per component.

    For r = 2 the report details the edge/odd-cycle decomposition of each
    class; even cycles are valid 2-bounded classes but are flagged, since a
    strict cycle-matching (ocm) colouring excludes them.
    """
    failures: list[str] = []
    details: dict = {"by_colour": {}, "even_cycles": []}

    uncoloured = set(range(g.m)) - colouring.colour_of.keys()
    if uncoloured:
        failures.append(f"uncoloured edges: {sorted(uncoloured)[:8]}")

    by_colour: dict[int, list[int]] = {}
    for e, c in colouring.colour_of.items():
        if not 0 <= e < g.m:
            failures.append(f"unknown edge identity {e}")
        elif not 0 <= c < colouring.palette:
            failures.append(f"edge {e} has colour {c} outside the palette")
        else:
            by_colour.setdefault(c, []).append(e)

    for c, ids in sorted(by_colour.items()):
        singles = odd = even = 0
        for comp in components_of(g, ids):
            if comp.trivial:
                continue
            if not comp.regular or comp.max_degree > r:
                failures.append(
                    f"colour {c}: component at {comp.vertices[0]} has degrees "
                    f"{comp.min_degree}..{comp.max_degree} (r = {r})"
                )
            elif comp.max_degree == 1:
                singles += 1
            elif comp.cycle_parity == "odd":
                odd += 1
            elif comp.cycle_parity == "even":
                even += 1
                details["even_cycles"].append((c, comp.vertices))
        details["by_colour"][c] = {"edges": singles, "odd_cycles": odd, "even_cycles": even}

    return ValidityReport.from_failures(failures, details)


def reference_validate_decorated(
    g: Multigraph, regions: RegionPartition, dec: DecoratedColouring
) -> ValidityReport:
    """``decorated.validate_decorated`` as it was before its β and f clauses
    walked only the edges of each class: one ``components_of`` call per
    class.  Exhaustively check every clause the decorated colouring promises."""
    failures: list[str] = []
    palette = regions.palette
    free, reserve, blocked = regions.free, regions.reserve, regions.blocked

    all_ids = set(range(g.m))
    domains = [set(dec.reserved), set(dec.relief), set(dec.colour_of)]
    if domains[0] & domains[1] or domains[0] & domains[2] or domains[1] & domains[2]:
        failures.append("reserved/relief/coloured edge sets overlap")
    missing = all_ids - domains[0] - domains[1] - domains[2]
    if missing:
        failures.append(f"edges assigned nowhere: {sorted(missing)[:8]}")
    for name, dom in zip(("reserved", "relief", "coloured"), domains):
        if dom - all_ids:
            failures.append(f"{name} refers to unknown edges {sorted(dom - all_ids)[:8]}")
    if failures:
        return ValidityReport.from_failures(failures)

    by_colour: dict[int, list[int]] = {}
    for e, c in dec.colour_of.items():
        by_colour.setdefault(c, []).append(e)

    def isolated_in_class(x: int, c: int) -> bool:
        return all(x not in g.endpoints(e) for e in by_colour.get(c, ()))

    # α: injective, endpoint, reserve colour, isolation
    seen_tags: set[tuple[int, int]] = set()
    for e, (x, c) in sorted(dec.reserved.items()):
        if (x, c) in seen_tags:
            failures.append(f"α not injective: tag ({x}, {c}) repeated")
        seen_tags.add((x, c))
        if x not in g.endpoints(e):
            failures.append(f"α tag vertex {x} is not an endpoint of edge {e}")
        if not 0 <= c < palette:
            failures.append(f"α colour {c} outside the palette")
            continue
        if c not in reserve[x]:
            failures.append(f"α uses colour {c} not in reserve of vertex {x}")
        if not isolated_in_class(x, c):
            failures.append(f"α vertex {x} not isolated in colour class {c}")

    # β: per colour, vertex-disjoint cherries with the free/free/blocked pattern
    relief_by_colour: dict[int, list[int]] = {}
    for e, c in dec.relief.items():
        if not 0 <= c < palette:
            failures.append(f"β colour {c} outside the palette")
            continue
        relief_by_colour.setdefault(c, []).append(e)
    for c, ids in sorted(relief_by_colour.items()):
        for comp in components_of(g, ids):
            if comp.trivial:
                continue
            if len(comp.edge_ids) != 2 or len(comp.vertices) != 3 or comp.max_degree != 2:
                failures.append(f"β colour {c}: component {comp.vertices} is not a length-2 path")
                continue
            mid = next(x for x in comp.vertices if sum(x in g.endpoints(e) for e in comp.edge_ids) == 2)
            ends = [x for x in comp.vertices if x != mid]
            if c not in free[mid]:
                failures.append(f"β colour {c}: middle vertex {mid} lacks it as free")
            pattern_ok = any(
                c in free[a] and c in blocked[b] for a, b in (ends, ends[::-1])
            )
            if not pattern_ok:
                failures.append(f"β colour {c}: endpoints {ends} lack the free/blocked pattern")
            for x in comp.vertices:
                if not isolated_in_class(x, c):
                    failures.append(f"β vertex {x} not isolated in colour class {c}")

    # f: strict cycle-matching classes; odd cycles confined to free vertices
    for c, ids in sorted(by_colour.items()):
        if not 0 <= c < palette:
            failures.append(f"f colour {c} outside the palette")
            continue
        for comp in components_of(g, ids):
            if comp.trivial:
                continue
            if comp.regular and comp.max_degree == 1:
                continue
            if comp.cycle_parity == "odd":
                for x in comp.vertices:
                    if c not in free[x]:
                        failures.append(
                            f"odd cycle of colour {c} visits vertex {x} without it free"
                        )
            else:
                failures.append(
                    f"colour {c}: component {comp.vertices} is neither an edge nor an odd cycle"
                )

    failures.extend(_step_audit(g, regions, dec))
    return ValidityReport.from_failures(failures, details={"classes": len(by_colour)})
