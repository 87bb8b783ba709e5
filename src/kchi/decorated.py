"""Cycle-matching colourings decorated with reserve and relief edges.

Each vertex partitions the palette into *free*, *reserve* and *blocked*
colours, with enough free + reserve colours to cover its degree.  The
colouring produced here refines the Δ-colour induction so that every
monochromatic odd cycle of a colour c lies entirely on vertices for which
c is free.  Odd cycles through unhelpful vertices are repaired in one of
three ways, in priority order:

* a vertex x with c in reserve donates one cycle edge to the *reserved*
  set F, tagged (x, c) — the α-certificate;
* a blocked vertex of degree below the remaining palette size is simply
  left unspanned this step;
* otherwise two consecutive free vertices u, v followed by a blocked
  vertex w yield the *relief* pair uv, vw in F′, tagged c — the
  β-certificate.

In every case the rest of the cycle is perfectly matched and stays in the
colour class.  Vertices left isolated by a step are recorded in
``uncovered_at`` (the marking); the covering priority keeps marked
vertices non-adjacent in the graph still alive at marking time, retrying
with perturbed tie-breaks in the rare configurations that force a clash.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError, PremiseError
from .factor import _edge_handout, _solver_for
from .graphs import Multigraph, _touched_components
from .reporting import ValidityReport


@dataclass(frozen=True)
class RegionPartition:
    """Per-vertex partition of the palette into free/reserve/blocked sets."""

    palette: int
    free: tuple[frozenset[int], ...]
    reserve: tuple[frozenset[int], ...]
    blocked: tuple[frozenset[int], ...]

    def __post_init__(self):
        colours = frozenset(range(self.palette))
        if not len(self.free) == len(self.reserve) == len(self.blocked):
            raise PremiseError("regions must list one triple per vertex")
        for x, (l, m, r) in enumerate(zip(self.free, self.reserve, self.blocked)):
            if l | m | r != colours or len(l) + len(m) + len(r) != self.palette:
                raise PremiseError(f"vertex {x}: free/reserve/blocked do not partition the palette")

    @classmethod
    def from_sets(cls, palette, free, reserve, blocked) -> "RegionPartition":
        return cls(
            palette,
            tuple(map(frozenset, free)),
            tuple(map(frozenset, reserve)),
            tuple(map(frozenset, blocked)),
        )

    @classmethod
    def all_free(cls, palette: int, n: int) -> "RegionPartition":
        colours = frozenset(range(palette))
        empty = frozenset()
        return cls(palette, (colours,) * n, (empty,) * n, (empty,) * n)


@dataclass(frozen=True)
class DecoratedColouring:
    """Output of :func:`critical_colouring`.

    ``reserved`` maps F-edges to their (vertex, colour) tag, ``relief``
    maps F′-edges to their colour, ``colour_of`` is the colouring of the
    remaining edges, and ``uncovered_at[c]`` lists the vertices left
    unspanned when colour c was processed.
    """

    reserved: dict[int, tuple[int, int]]
    relief: dict[int, int]
    colour_of: dict[int, int]
    uncovered_at: dict[int, frozenset[int]]

    def step_of(self, e: int) -> int:
        """The step (= colour index) at which edge ``e`` left the graph."""
        if e in self.reserved:
            return self.reserved[e][1]
        if e in self.relief:
            return self.relief[e]
        return self.colour_of[e]

    @classmethod
    def edgeless(cls, n: int, palette: int) -> "DecoratedColouring":
        """The decoration of an edgeless graph on ``n`` vertices: no tag, and
        every step marks every vertex."""
        return cls({}, {}, {}, dict.fromkeys(range(palette), frozenset(range(n))))


_TIEBREAK_SALTS = 8


class _MarkingClash(Exception):
    """Internal: a step was forced to mark a neighbour of an older mark."""


def critical_colouring(g: Multigraph, palette: int, regions: RegionPartition) -> DecoratedColouring:
    """Decorated cycle-matching colouring with the odd-cycle guarantee.

    Requires ``|free_x| + |reserve_x| ≥ d(x)`` for every vertex x.
    Colours are processed in ascending order; all choices are deterministic
    (lowest qualifying vertex, scan order along the canonical cycle).  Once
    the edges run out, the remaining colours are not stepped through: each
    marks every vertex, as a step on the empty graph would, so an edgeless
    input gets :meth:`DecoratedColouring.edgeless`.

    The covering priority almost always keeps marked vertices pairwise
    non-adjacent, but rare configurations force a clash.  Those are retried
    with perturbed tie-breaks; if every attempt clashes, a
    :class:`CertificateError` is raised instead of returning a colouring
    whose marking audit would fail.
    """
    if palette != regions.palette:
        raise PremiseError(f"palette {palette} does not match regions ({regions.palette})")
    for x in range(g.n):
        slack = len(regions.free[x]) + len(regions.reserve[x])
        if slack < g.degree(x):
            raise PremiseError(
                f"vertex {x}: free + reserve colours ({slack}) below degree {g.degree(x)}"
            )
    if not g.m:
        return DecoratedColouring.edgeless(g.n, palette)

    clash = None
    for salt in range(_TIEBREAK_SALTS):
        try:
            return _colouring_attempt(g, palette, regions, salt)
        except _MarkingClash as exc:
            clash = exc
    raise CertificateError(
        "marking independence lost on every tie-break",
        dump={"n": g.n, "edges": list(g.edges), "last_clash": str(clash)},
    )


def _colouring_attempt(
    g: Multigraph, palette: int, regions: RegionPartition, salt: int
) -> DecoratedColouring:
    solver = _solver_for(g)
    consume = _edge_handout(g, solver)
    reserved: dict[int, tuple[int, int]] = {}
    relief: dict[int, int] = {}
    colour_of: dict[int, int] = {}
    uncovered_at: dict[int, frozenset[int]] = {}

    def jitter(v: int) -> int:
        return v if salt == 0 else (v * 2654435761 + salt) % (1 << 32)

    marked = 0  # bitmask of the vertices left uncovered so far

    for c in range(palette):
        if not solver.count:
            # no edge left: every later step would mark every vertex
            everyone = frozenset(range(g.n))
            for rest in range(c, palette):
                uncovered_at[rest] = everyone
            break
        # Leaving a neighbour of an already-marked vertex uncovered would
        # break the marking invariant, so such vertices are covered first;
        # after that, covering high-degree vertices keeps future marks on
        # vertices that are nearly gone and cannot cause trouble later.
        def keep_covered(v: int, near=marked) -> tuple[int, int, int]:
            return (0 if solver.nbr[v] & near else 1, -solver.deg[v], jitter(v))

        res = solver.solve(t_priority=keep_covered)
        for x in res.uncovered:
            if solver.nbr[x] & marked:
                raise _MarkingClash(f"step {c}: vertex {x} forced beside a mark")
        uncovered_at[c] = res.uncovered
        for x in res.uncovered:
            marked |= 1 << x
        remaining_palette = palette - c
        deg_now = list(solver.deg)

        for u, v in res.two_cycles:
            colour_of[consume(u, v)] = c

        for cyc in res.odd_cycles:
            _repair_cycle(
                cyc, c, remaining_palette, regions, deg_now,
                consume, reserved, relief, colour_of,
            )

    if solver.count:
        raise CertificateError(
            "edges left over after the palette was exhausted",
            dump={"n": g.n, "edges": list(g.edges), "left": sorted(solver.count)},
        )
    return DecoratedColouring(reserved, relief, colour_of, uncovered_at)


def _repair_cycle(cyc, c, remaining, regions, deg_now, consume, reserved, relief, colour_of):
    """Dispatch one odd cycle of the current step.

    A cycle on all-free vertices is kept whole; otherwise one vertex is
    sacrificed (reserve donation, small blocked vertex, or a relief pair
    around a blocked vertex) and the rest perfectly matched.  ``consume``
    removes one live copy of the pair and returns its edge id.
    """
    free, reserve, blocked = regions.free, regions.reserve, regions.blocked
    k = len(cyc)

    def match_from(start: int, count: int) -> None:
        for t in range(0, count, 2):
            a, b = cyc[(start + t) % k], cyc[(start + t + 1) % k]
            colour_of[consume(a, b)] = c

    if all(c in free[x] for x in cyc):
        for i in range(k):
            colour_of[consume(cyc[i], cyc[(i + 1) % k])] = c
        return

    m_pos = [i for i in range(k) if c in reserve[cyc[i]]]
    if m_pos:
        i = min(m_pos, key=lambda p: cyc[p])
        e = consume(cyc[i], cyc[(i + 1) % k])
        reserved[e] = (cyc[i], c)
        match_from(i + 1, k - 1)
        return

    r_small = [
        i for i in range(k) if c in blocked[cyc[i]] and deg_now[cyc[i]] < remaining
    ]
    if r_small:
        i = min(r_small, key=lambda p: cyc[p])
        match_from(i + 1, k - 1)
        return

    for j in range(k):
        w, u, v = cyc[j], cyc[(j - 2) % k], cyc[(j - 1) % k]
        if c in blocked[w] and c in free[u] and c in free[v]:
            relief[consume(u, v)] = c
            relief[consume(v, w)] = c
            match_from(j + 1, k - 3)
            return
    raise CertificateError(
        "odd cycle admits no repair", dump={"cycle": list(cyc), "colour": c}
    )


def validate_decorated(g: Multigraph, regions: RegionPartition, dec: DecoratedColouring) -> ValidityReport:
    """Exhaustively check every clause the decorated colouring promises."""
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
        adj, comps = _touched_components(g, ids)
        for verts in comps:
            verts = sorted(verts)
            degs = [len(adj[x]) for x in verts]
            if sum(degs) != 4 or len(verts) != 3 or max(degs) != 2:
                failures.append(f"β colour {c}: component {tuple(verts)} is not a length-2 path")
                continue
            mid = verts[degs.index(2)]
            ends = [x for x in verts if x != mid]
            if c not in free[mid]:
                failures.append(f"β colour {c}: middle vertex {mid} lacks it as free")
            pattern_ok = any(
                c in free[a] and c in blocked[b] for a, b in (ends, ends[::-1])
            )
            if not pattern_ok:
                failures.append(f"β colour {c}: endpoints {ends} lack the free/blocked pattern")
            for x in verts:
                if not isolated_in_class(x, c):
                    failures.append(f"β vertex {x} not isolated in colour class {c}")

    # f: strict cycle-matching classes; odd cycles confined to free vertices
    for c, ids in sorted(by_colour.items()):
        if not 0 <= c < palette:
            failures.append(f"f colour {c} outside the palette")
            continue
        adj, comps = _touched_components(g, ids)
        for verts in comps:
            degs = {len(adj[x]) for x in verts}
            if degs == {1}:  # a single edge
                continue
            verts = sorted(verts)
            if degs == {2} and len(verts) % 2:  # an odd cycle, as many edges as vertices
                for x in verts:
                    if c not in free[x]:
                        failures.append(
                            f"odd cycle of colour {c} visits vertex {x} without it free"
                        )
            else:
                failures.append(
                    f"colour {c}: component {tuple(verts)} is neither an edge nor an odd cycle"
                )

    failures.extend(_step_audit(g, regions, dec))
    return ValidityReport.from_failures(failures, details={"classes": len(by_colour)})


def _step_audit(g: Multigraph, regions: RegionPartition, dec: DecoratedColouring) -> list[str]:
    """Replay the induction and check the three per-step invariants:

    * vertices marked at a step are pairwise non-adjacent in the graph
      still alive at the later marking step (within a step: at that step);
    * every vertex whose current degree equals the remaining palette size
      is spanned by the edges consumed in that step;
    * after each step, unmarked vertices keep degree ≤ remaining
      free + reserve colours.

    A step visits only the vertices with an edge left: degree 0 is below
    the remaining palette size (at least 1) and exceeds no slack.  Degrees
    only fall, so a vertex that leaves never comes back, and the replay
    stops once none is left; on an edgeless graph it takes no step.  Marks
    are never undone either, so an unmarked vertex with an edge left has
    been visited at every step so far, and its slack is a count that drops
    by one at each step whose colour is free or reserve at it.
    """
    bad: list[str] = []
    palette = regions.palette
    step_of = [dec.step_of(e) for e in range(g.m)]

    bad += [
        f"marking recorded for unknown colour {c}" for c in dec.uncovered_at if not 0 <= c < palette
    ]
    marks = {c: xs for c, xs in dec.uncovered_at.items() if 0 <= c < palette}

    us, vs = g.endpoint_columns
    ends = set(us)
    ends.update(vs)
    marks_of: dict[int, list[int]] = {}  # the marking steps of each edge end, in mark order
    for c, xs in marks.items():
        for x in ends.intersection(xs):
            marks_of.setdefault(x, []).append(c)
    consumed_at: dict[int, list[int]] = {}
    for e, (u, v, s) in enumerate(zip(us, vs, step_of)):
        consumed_at.setdefault(s, []).append(e)
        at_u = [i for i in marks_of.get(u, ()) if i <= s]  # edge e alive at step i
        if not at_u:
            continue
        at_v = [j for j in marks_of.get(v, ()) if j <= s]
        for i in at_u:
            for j in at_v:
                bad.append(
                    f"marked vertices {u} (step {i}) and {v} (step {j}) "
                    f"joined by edge {e} still alive then"
                )

    deg = list(g.degrees)
    free, reserve = regions.free, regions.reserve
    slack = [len(free[x]) + len(reserve[x]) for x in range(g.n)]  # free+reserve colours above c
    marked: set[int] = set()
    alive = [x for x in range(g.n) if deg[x]]
    for c in range(palette):
        if not alive:
            break
        consumed = consumed_at.get(c, ())
        touched = {x for e in consumed for x in (us[e], vs[e])}
        for x in alive:
            if deg[x] == palette - c and x not in touched:
                bad.append(f"step {c}: vertex {x} has full degree but is unspanned")
        marked |= marks.get(c, frozenset())
        for e in consumed:
            deg[us[e]] -= 1
            deg[vs[e]] -= 1
        alive = [x for x in alive if deg[x]]
        for x in alive:
            if x in marked:
                continue
            if c in free[x] or c in reserve[x]:
                slack[x] -= 1
            if deg[x] > slack[x]:
                bad.append(
                    f"after step {c}: unmarked vertex {x} has degree {deg[x]} "
                    f"above its remaining free+reserve {slack[x]}"
                )
    return bad
