"""Construction of a K_χ immersion in a graph with no independent triple.

The construction follows the colouring's shape, level by level, with one
of two steps.  With no singleton class, any vertex can be deleted without
lowering the chromatic number.  Otherwise the detached pair classes are
immersed on their own, the singletons and attached classes get a faithful
immersion, and the two corner sets are joined: singletons reach the far
corners by direct edges, and each attached class's corner reaches a far
corner y either directly (when the edge exists) or along a short bridge
through non-corner vertices; with no attached class (a complete level
among them) every join is a direct edge.  Each level hands down a smaller
vertex set, so the levels form a chain down to the empty set, walked by a
loop rather than a recursion: down once to audit every level and pick its
vertex set, then up once to lay each level's paths after those below.

Bridges are rationed through an auxiliary digraph whose arcs encode the
available length-2 detours between a class's inner half and its corner.  Each
class may keep one arc per far corner that is not settled by two direct
edges; the digraph is built with exactly the arcs within that budget (detours
whose reverse is absent first), and it records how many detours each class
offers in all, which is what the out-degree audit checks.  Two opposite arcs
would reuse the same inner-inner edge, so the double arcs form a conflict
graph (``BridgeDigraph.conflict``).  When it has an edge (the owner is
contended: two opposite arcs are both kept) it is handed to the decorated
cycle-matching colouring, whose reserve/relief certificates say which arc
of each conflicting pair to drop, reroute or share.  Then every remaining
corner pair takes its lowest free arc.  Almost no owner is contended.  The
budget, the audits and the arc selection run on masks for every owner
(``_owner_core``), and an uncontended owner's bridges have a closed form
read straight off those masks: with no conflict edge every bridged far
corner takes its node's next kept arc, so no digraph, conflict graph,
palette regions or validation is built for it, none of which would have
anything to check.  All of this is per construction step, and costs time
in proportion to the arcs kept, not to the detours offered.

One blossom matching serves the whole construction: the top level reuses
the colouring of ``chi_alpha2``, and every level below gets the restriction
of the level above's own colouring to the set ``down`` handed down.  With no
independent triple every colour class has at most two vertices, so no
colouring of ``down`` has fewer than ⌈|down|/2⌉ classes; the descent checks
that the restriction has exactly that many, which proves it optimal.  A
hand-down holds at most one singleton and a refine swap keeps the singleton
count, so every level below the top has at most one singleton.  The
refinement and the faithful side work on these colourings without proving
them again.  ``_refine_split`` returns only once no attached class breaks
the counting inequality, so its exit is the level's counting audit.  The
final immersion is replayed once, through ``verify_immersion`` against χ,
before being returned, so callers need not replay it themselves; that
replay is the only check on the final corner count.

Each path is stored once.  Every level writes into one paths dict and one
set of spent edge identities, and only the corners are handed between
levels.  One lane (``immersion._lay_paths``) lays the listed paths only:
length-3 routes between non-adjacent class corners, and bridges.  Each
joins two non-adjacent corners and each hop has a non-corner end (an inner
half or a bridge mid), so no listed path spends an edge between two
corners, whatever the order of laying.  Every other corner pair is adjacent
and left implicit, as the certificate leaves it; a singleton's pairs are
checked by one mask AND each (``immersion._require_adjacent``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .decorated import (
    DecoratedColouring,
    RegionPartition,
    critical_colouring,
    validate_decorated,
)
from .errors import CertificateError, PremiseError
from .gcpause import gc_paused
from .graphs import Multigraph, _touched_components, iter_bits
from .immersion import (
    Immersion,
    PairColouring,
    _bits,
    _faithful_immersion,
    _grouped_by_owner,
    _lay_paths,
    _refine_split,
    _require_adjacent,
    _with_split,
    chi_alpha2,
    corner_labels,
    run_colouring_audits,
    verify_immersion,
)


class BridgeArc(NamedTuple):
    """One outgoing detour option of an attached class.

    ``head`` is ("x", j) for a detour through another attached class's inner
    half, or ("y", k) for one through a non-corner vertex of the detached
    class ``col.detached[k]``; ``mid`` is that middle vertex.  The bridge
    itself is the length-2 path inner → mid → corner at the tail class.
    """

    tail: int
    head: tuple[str, int]
    mid: int


@dataclass(frozen=True)
class BridgeDigraph:
    """Detour options of one owner's attached classes, with far-corner types.

    For each attached class (node ``i``, split into ``inner[i]`` and
    ``corner[i]``) and each far corner y exactly one of three things holds:

    * ``bridged``:   y–corner missing, y–inner present — needs a bridge;
    * ``droppable``: y–corner present, y–inner missing — direct edge, and
      the arc budget has one arc of slack here;
    * ``settled``:   both edges present — direct edge, no interaction.

    Node i's arc budget is ``len(bridged[i]) + len(droppable[i])``, and
    ``offers[i]`` counts every detour node i has.  ``arcs`` may list fewer:
    ``build_bridge_digraph`` lists exactly the budget of each node, and
    ``restrict_out_degree`` checks that it did.  The constructor builds one
    only for a contended owner; every other owner's bridges are read off
    the same selection as masks (``_owner_bridges``).
    """

    x_nodes: tuple[tuple[int, int], ...]
    y_corners: tuple[int, ...]
    inner: tuple[int, ...]
    corner: tuple[int, ...]
    arcs: tuple[BridgeArc, ...]
    bridged: tuple[frozenset[int], ...]
    droppable: tuple[frozenset[int], ...]
    settled: tuple[frozenset[int], ...]
    offers: tuple[int, ...]

    def out_arcs(self, i: int) -> tuple[int, ...]:
        return self._out_arcs[i]

    @cached_property
    def _out_arcs(self) -> tuple[tuple[int, ...], ...]:
        """Arc indices grouped by tail, each group ascending."""
        out: list[list[int]] = [[] for _ in self.x_nodes]
        for k, a in enumerate(self.arcs):
            out[a.tail].append(k)
        return tuple(map(tuple, out))

    @cached_property
    def arc_index(self) -> dict[tuple[int, tuple[str, int]], int]:
        """Each arc's index, keyed by (tail, head)."""
        return {(a.tail, a.head): k for k, a in enumerate(self.arcs)}

    @property
    def contended(self) -> bool:
        """Whether some two opposite x-arcs are both kept, which is exactly
        when ``conflict`` has an edge; read off the arcs, building no graph."""
        kept = {(a.tail, a.head[1]) for a in self.arcs if a.head[0] == "x"}
        return any((j, i) in kept for i, j in kept)

    @cached_property
    def conflict(self) -> Multigraph:
        """The conflict graph on the nodes: one edge per pair of opposite arcs."""
        index = self.arc_index
        pairs = sorted(
            {
                (min(a.tail, a.head[1]), max(a.tail, a.head[1]))
                for a in self.arcs
                if a.head[0] == "x" and (a.head[1], ("x", a.tail)) in index
            }
        )
        return Multigraph(len(self.x_nodes), pairs)


def _lowest_bits(mask: int, count: int) -> int:
    """The ``count`` lowest set bits of ``mask`` (all of them if it has fewer)."""
    out = 0
    while mask and count > 0:
        low = mask & -mask
        out |= low
        mask ^= low
        count -= 1
    return out


class _OwnerCore(NamedTuple):
    """One owner's attached classes as masks, node by node.

    ``bridged[i]`` and ``droppable[i]`` are far-corner masks, ``budget[i]``
    is their combined size and ``offers[i]`` counts every detour node i has.
    ``x_kept[i]`` is the mask of the heads of node i's kept x-arcs, and
    ``y_arcs[i]`` lists its kept y-arcs as (detached class, mid).
    ``build_bridge_digraph`` materialises these; ``_owner_bridges`` reads
    them as they are.
    """

    x_nodes: tuple[tuple[int, int], ...]
    inner: tuple[int, ...]
    corner: tuple[int, ...]
    bridged: list[int]
    droppable: list[int]
    budget: list[int]
    offers: list[int]
    x_kept: list[int]
    y_arcs: list[list[tuple[int, int]]]

    @property
    def contended(self) -> bool:
        """Whether some two opposite x-arcs are both kept."""
        x_kept = self.x_kept
        return any(x_kept[j] >> i & 1 for i, heads in enumerate(x_kept) for j in iter_bits(heads))


def _owner_core(
    g: Multigraph, col: PairColouring, v: int, y_corners: tuple[int, ...]
) -> _OwnerCore:
    """Sort owner ``v``'s far corners by type and select its arcs, as masks.

    Every detour is counted in ``offers``, but only the arcs within each
    node's budget are kept.  Plain x-arcs (whose reverse is absent) are kept
    first, then y-arcs, then mutual x-arcs, each kind lowest first, so that
    as few conflicting pairs as possible survive; any selection would be
    correct.
    """
    if v not in col.singletons:
        raise PremiseError(f"owner {v} is not a singleton class")
    labels = corner_labels(g, col)
    x_nodes = tuple(sorted(cls for cls in col.attached if col.owner[cls] == v))
    inner = tuple(map(col.inner, x_nodes))
    corner = tuple(labels[cls] for cls in x_nodes)

    far_corners = _bits(y_corners)
    bridged, droppable = [], []
    for i in range(len(x_nodes)):
        at_corner = g.adjacency_mask(corner[i]) & far_corners
        at_inner = g.adjacency_mask(inner[i]) & far_corners
        missed = far_corners & ~(at_corner | at_inner)
        if missed:
            raise CertificateError(
                "far corner sees neither half of an attached class",
                dump={"corner": (missed & -missed).bit_length() - 1, "class": x_nodes[i]},
            )
        bridged.append(at_inner & ~at_corner)
        droppable.append(at_corner & ~at_inner)

    # both[i]: the vertices adjacent to both halves of attached class i
    both = [g.adjacency_mask(a) & g.adjacency_mask(b) for a, b in x_nodes]
    # x-arc i → j when corner i sees both halves of class j (never i = j, the
    # graph being loopless); heads[i] and tails[i] are node masks
    node_at = {c: i for i, c in enumerate(corner)}
    corner_bits = _bits(corner)
    heads = [0] * len(x_nodes)
    tails = [0] * len(x_nodes)
    for j in range(len(x_nodes)):
        for c in iter_bits(both[j] & corner_bits):
            i = node_at[c]
            heads[i] |= 1 << j
            tails[j] |= 1 << i
    # y-arc i → k when a non-far-corner half of detached class k sees both
    # halves of class i; a class with no far corner may offer both halves,
    # and counts once
    y_mids = col._detached_halves[0] & ~far_corners
    open_pairs = [(p, q) for p, q in col.detached if not (far_corners >> p | far_corners >> q) & 1]

    budgets, offers, x_kept, y_arcs = [], [], [], []
    for i in range(len(x_nodes)):
        budget = bridged[i].bit_count() + droppable[i].bit_count()
        mids = both[i] & ~far_corners
        n_y = (mids & y_mids).bit_count()
        if open_pairs:
            n_y -= sum(mids >> p & mids >> q & 1 for p, q in open_pairs)
        budgets.append(budget)
        offers.append(heads[i].bit_count() + n_y)

        plain = heads[i] & ~tails[i]
        room = max(budget - plain.bit_count(), 0)
        y_kept = min(n_y, room)
        x_kept.append(_lowest_bits(plain, budget) | _lowest_bits(heads[i] & tails[i], room - y_kept))
        ys = []
        if y_kept:
            for k, (p, q) in enumerate(col.detached):  # the lower mid first
                if mids >> p & 1:
                    ys.append((k, p))
                elif mids >> q & 1:
                    ys.append((k, q))
                else:
                    continue
                if len(ys) == y_kept:
                    break
        y_arcs.append(ys)

    return _OwnerCore(x_nodes, inner, corner, bridged, droppable, budgets, offers, x_kept, y_arcs)


def build_bridge_digraph(
    g: Multigraph, col: PairColouring, v: int, y_corners: tuple[int, ...]
) -> BridgeDigraph:
    """Assemble the detour digraph of owner ``v`` against the far corners.

    The far-corner types and the arcs are those of ``_owner_core``: every
    detour is counted in ``offers``, and only the arcs within each node's
    budget are built.  x-arcs are listed before y-arcs, by head and by
    detached class.
    """
    core = _owner_core(g, col, v, y_corners)
    far_set = frozenset(y_corners)
    arcs = []
    for i, (heads, ys) in enumerate(zip(core.x_kept, core.y_arcs)):
        arcs += [BridgeArc(i, ("x", j), core.inner[j]) for j in iter_bits(heads)]
        arcs += [BridgeArc(i, ("y", k), mid) for k, mid in ys]
    bridged = tuple(frozenset(iter_bits(mask)) for mask in core.bridged)
    droppable = tuple(frozenset(iter_bits(mask)) for mask in core.droppable)
    return BridgeDigraph(
        x_nodes=core.x_nodes,
        y_corners=tuple(sorted(y_corners)),
        inner=core.inner,
        corner=core.corner,
        arcs=tuple(arcs),
        bridged=bridged,
        droppable=droppable,
        # settled: the far corners that see both halves
        settled=tuple(far_set - b - p for b, p in zip(bridged, droppable)),
        offers=tuple(core.offers),
    )


def _offer_failures(x_nodes, budgets, offers) -> list[str]:
    """Each node must offer at least one arc per bridged or droppable corner."""
    return [
        f"class {cls} offers {have} arcs for {need} corners"
        for cls, need, have in zip(x_nodes, budgets, offers)
        if have < need
    ]


def _require_budget(cls: tuple[int, int], have: int, budget: int) -> None:
    """Refuse a node that holds other than exactly its budget of arcs."""
    if have != budget:
        raise CertificateError(
            "arc budget below the out-degree guarantee"
            if have < budget
            else f"class {cls} holds arcs beyond its budget",
            dump={"class": cls, "arcs": have, "budget": budget},
        )


def _require_free(cls: tuple[int, int], waiting: list[int], free: int) -> None:
    """Refuse a node with fewer free arcs than far corners still waiting."""
    if len(waiting) > free:
        raise CertificateError(
            "not enough free arcs for the remaining corners",
            dump={"class": cls, "waiting": waiting, "free": free},
        )


def _budgets(d: BridgeDigraph) -> list[int]:
    return [len(b) + len(p) for b, p in zip(d.bridged, d.droppable)]


def audit_out_degree(d: BridgeDigraph) -> list[str]:
    """Each node must offer at least one arc per bridged or droppable corner."""
    return _offer_failures(d.x_nodes, _budgets(d), d.offers)


def restrict_out_degree(d: BridgeDigraph) -> BridgeDigraph:
    """Check that every node holds exactly its budget of arcs, and return ``d``.

    ``build_bridge_digraph`` builds no arc beyond a node's budget and, once
    ``audit_out_degree`` passes, no fewer, so this is the build's
    postcondition; a digraph that breaks it is refused, never trimmed.
    """
    for i, (cls, budget) in enumerate(zip(d.x_nodes, _budgets(d))):
        _require_budget(cls, len(d.out_arcs(i)), budget)
    return d


def decorated_regions(d: BridgeDigraph) -> RegionPartition:
    """Far-corner types as palette regions for the conflict-graph colouring."""
    y_index = {y: q for q, y in enumerate(d.y_corners)}

    def indices(sets):
        return [{y_index[y] for y in s} for s in sets]

    return RegionPartition.from_sets(
        len(d.y_corners),
        indices(d.bridged),
        indices(d.droppable),
        indices(d.settled),
    )


def _cycle_order(adj: dict[int, list[int]], start: int) -> list[int]:
    """Vertices of a cycle component in traversal order from its minimum
    ``start``, given the neighbour lists of its vertices."""
    order = [start]
    prev, at = -1, start
    while True:
        step = min(w for w in adj[at] if w != prev)
        if step == start:
            return order
        order.append(step)
        prev, at = at, step


def assign_bridges(
    d: BridgeDigraph, dec: DecoratedColouring
) -> dict[tuple[int, int], tuple[int, ...]]:
    """Translate the conflict-graph certificates into one route per (class, corner).

    ``dec`` must decorate ``d.conflict`` under ``decorated_regions(d)``: the
    output of ``critical_colouring`` when ``d.contended``, and otherwise
    ``DecoratedColouring.edgeless``, which names no conflict edge.  ``d``
    must pass ``restrict_out_degree``.  Returns a vertex route from every
    bridged far corner to its class corner such that each arc carries at
    most one route, opposite arcs never both use the inner-inner edge, and
    reserve tags drop the arcs they name.  The conflict graph and the arc
    index are built only when ``dec`` names an edge.  The constructor calls
    it only for a contended owner; on an edgeless decoration its result is
    the closed form ``_owner_bridges`` takes for every other owner.
    """
    # built only when the certificates name a conflict edge; so is the arc index
    h = d.conflict if dec.reserved or dec.relief or dec.colour_of else None
    y_of = d.y_corners
    state = ["free"] * len(d.arcs)
    detour: dict[int, int] = {}
    routes: dict[tuple[int, int], tuple[int, ...]] = {}
    inner, corner = d.inner, d.corner

    def x_arc(i: int, j: int) -> int:
        try:
            return d.arc_index[(i, ("x", j))]
        except KeyError:
            raise CertificateError(
                "certificate names an absent arc", dump={"tail": i, "head": j}
            ) from None

    def claim(i: int, y: int, route: tuple[int, ...], arc: int) -> None:
        if (i, y) in routes or state[arc] != "free":
            raise CertificateError(
                "route or arc claimed twice",
                dump={"node": i, "corner": y, "arc": d.arcs[arc]},
            )
        state[arc] = "used"
        routes[(i, y)] = route

    def drop(arc: int) -> None:
        if state[arc] != "free":
            raise CertificateError("dropped arc already consumed", dump={"arc": d.arcs[arc]})
        state[arc] = "dropped"

    # reserve tags: the named class sheds its arc, its corner edge suffices
    for e, (i, c) in sorted(dec.reserved.items()):
        u, w = h.endpoints(e)
        drop(x_arc(i, w if i == u else u))

    # relief cherries: two rerouted bridges around the middle class
    relief_by: dict[int, list[int]] = {}
    for e, c in dec.relief.items():
        relief_by.setdefault(c, []).append(e)
    for c, ids in sorted(relief_by.items()):
        y = y_of[c]
        adj, comps = _touched_components(h, ids)
        for verts in comps:
            verts = sorted(verts)
            mid = next(x for x in verts if len(adj[x]) == 2)
            ends = [x for x in verts if x != mid]
            far = next(x for x in ends if y in d.settled[x])
            near = next(x for x in ends if y in d.bridged[x])
            claim(near, y, (y, inner[mid], corner[near]), x_arc(near, mid))
            claim(mid, y, (y, inner[far], corner[mid]), x_arc(mid, far))

    # plain colour classes: kept odd cycles and isolated matched edges
    colour_by: dict[int, list[int]] = {}
    for e, c in dec.colour_of.items():
        colour_by.setdefault(c, []).append(e)
    for c, ids in sorted(colour_by.items()):
        y = y_of[c]
        adj, comps = _touched_components(h, ids)
        for verts in comps:
            if len(verts) % 2 and all(len(adj[x]) == 2 for x in verts):  # an odd cycle
                order = _cycle_order(adj, verts[0])
                for t, a in enumerate(order):
                    b = order[(t + 1) % len(order)]
                    if y not in d.bridged[b]:
                        raise CertificateError(
                            "cycle visits a class that does not need a bridge",
                            dump={"node": b, "corner": y},
                        )
                    claim(b, y, (y, inner[a], corner[b]), x_arc(b, a))
                continue
            if len(verts) != 2 or len(adj[verts[0]]) != 1:
                raise CertificateError(
                    "colour class component is neither an edge nor an odd cycle",
                    dump={"vertices": tuple(sorted(verts)), "colour": c},
                )
            i, j = verts  # the least vertex first, as the edge's endpoints
            if y in d.droppable[i]:
                drop(x_arc(i, j))
            if y in d.droppable[j]:
                drop(x_arc(j, i))
            if y in d.bridged[i] and y in d.bridged[j]:
                claim(i, y, (y, inner[j], corner[i]), x_arc(i, j))
                claim(j, y, (y, inner[i], corner[j]), x_arc(j, i))
            elif y in d.bridged[i] and y in d.settled[j]:
                claim(i, y, (y, inner[j], corner[i]), x_arc(i, j))
            elif y in d.bridged[j] and y in d.settled[i]:
                claim(j, y, (y, inner[i], corner[j]), x_arc(j, i))
            elif y in d.settled[i] and y in d.settled[j]:
                a, b = (i, j) if i < j else (j, i)
                detour[x_arc(a, b)] = y

    # everything still uncovered takes its lowest free arc with the naive route
    for i in range(len(d.x_nodes)):
        waiting = sorted(y for y in d.bridged[i] if (i, y) not in routes)
        free = [k for k in d.out_arcs(i) if state[k] == "free"]
        _require_free(d.x_nodes[i], waiting, len(free))
        for y, k in zip(waiting, free):
            a = d.arcs[k]
            if k in detour:
                claim(i, y, (y, inner[i], detour[k], a.mid, corner[i]), k)
            else:
                claim(i, y, (y, inner[i], a.mid, corner[i]), k)

    return routes


def _owner_bridges(
    g: Multigraph, col: PairColouring, v: int, corners: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """The bridges of owner ``v``'s attached classes to the far ``corners``,
    by class and then by far corner, each as a vertex route.

    Every owner passes the out-degree audit and the budget check on its
    masks, counting the y-arcs really found.  A contended owner is decorated
    and goes through ``build_bridge_digraph`` and ``assign_bridges``.  Any
    other owner's bridges have a closed form, the one ``assign_bridges``
    gives for ``DecoratedColouring.edgeless``: the k-th smallest bridged far
    corner y of node i takes i's k-th kept arc (x-arcs by head, then y-arcs
    in detached order) as the route y, inner, mid, corner.
    """
    core = _owner_core(g, col, v, corners)
    bad = _offer_failures(core.x_nodes, core.budget, core.offers)
    if bad:
        raise CertificateError(
            "bridge digraph below its degree guarantee",
            dump={"owner": v, "failures": bad[:6]},
        )
    inner, corner = core.inner, core.corner
    mids = [
        [inner[j] for j in iter_bits(heads)] + [mid for _, mid in ys]
        for heads, ys in zip(core.x_kept, core.y_arcs)
    ]
    for cls, node_mids, budget in zip(core.x_nodes, mids, core.budget):
        _require_budget(cls, len(node_mids), budget)

    if core.contended:
        d = build_bridge_digraph(g, col, v, corners)
        h, regions = d.conflict, decorated_regions(d)
        dec = critical_colouring(h, len(d.y_corners), regions)
        rep = validate_decorated(h, regions, dec)
        if not rep.ok:
            raise CertificateError(
                "conflict-graph colouring failed its own validator",
                dump={"owner": v, "failures": rep.failures[:6]},
            )
        routes = assign_bridges(d, dec)
        return [routes[(i, y)] for i, bridged in enumerate(d.bridged) for y in sorted(bridged)]

    bridges = []
    for i, cls in enumerate(core.x_nodes):
        waiting = list(iter_bits(core.bridged[i]))
        _require_free(cls, waiting, len(mids[i]))
        bridges += [(y, inner[i], mid, corner[i]) for y, mid in zip(waiting, mids[i])]
    return bridges


@gc_paused
def construct_immersion(g: Multigraph) -> Immersion:
    """Build and verify a weak immersion of the complete graph on χ(G) corners.

    Raises a certified counterexample dump if any internal contract breaks;
    the returned immersion always passes ``verify_immersion``.
    """
    chi, col = chi_alpha2(g)  # also rejects graphs with an independent triple
    used: set[int] = set()
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    corners = _immerse(g, col, used, paths)
    imm = Immersion(corners, paths, host=g)
    report = verify_immersion(g, imm, chi)
    if not report.ok:
        raise CertificateError(
            "constructed immersion failed replay",
            dump={"failures": report.failures[:6], "n": g.n, "edges": list(g.edges)},
        )
    return imm


def _immerse(
    g: Multigraph, col: PairColouring, used: set[int], paths: dict
) -> tuple[int, ...]:
    """Immerse K_χ in G[col.vertices], given an optimal colouring ``col`` of it.

    The listed paths go into ``paths``; the corners are returned.  The first
    loop walks down the level chain to the empty set, the second back up it.
    A level drops a vertex, or joins its faithful side to its detached rest
    and lays only its bridges, which ``_owner_bridges`` gives owner by
    owner.  A bridge joins non-adjacent corners through non-corner
    vertices, so it takes no implicit pair's edge in any order.
    ``_refine_split`` returns only a colouring with no counting-inequality
    violation, so that is not audited again here; the caller's replay is
    the only check of the final corner count against χ.
    """
    levels = []  # the refined colourings of levels with singletons, top first
    while col.vertices:
        bad = run_colouring_audits(g, col)
        if bad:
            raise CertificateError(
                "structural audit failed on an optimal colouring",
                dump={"failures": bad[:6], "verts": col.vertices},
            )

        if not col.singletons:
            # all pairs: drop the first class's lower vertex, keep its partner
            handed = col.classes[1:] + (col.classes[0][1:],)
        else:
            # a refine swap keeps the class count: no second proof is needed
            col = _refine_split(g, col)
            handed = col.detached
            levels.append(col)

        # with α ≤ 2, ⌈|down|/2⌉ classes prove the restriction to ``down`` optimal
        col = _with_split(g, handed)
        down = col.vertices
        if len(handed) != (len(down) + 1) // 2:
            raise CertificateError(
                "handed-down vertex set has an unexpected class count",
                dump={"verts": down, "expected": (len(down) + 1) // 2, "got": len(handed)},
            )

    corners: tuple[int, ...] = ()  # the levels below: this level's far corners
    for col in reversed(levels):
        # the singletons and attached classes get a faithful immersion
        x_corners = _faithful_immersion(g, col, used, paths)

        # a (class corner, far corner) pair is implicit or bridged, as the
        # owner's far-corner masks sort it; (singleton, far corner) pairs are
        # implicit
        bridges = []
        for v in sorted(_grouped_by_owner(col)):
            bridges += _owner_bridges(g, col, v, corners)
        _require_adjacent(g, col.singletons, _bits(corners))
        _lay_paths(g, bridges, used, paths)

        corners = tuple(sorted(x_corners + corners))
        if len(corners) != len(col.classes):
            raise CertificateError(
                "merged corner count mismatch",
                dump={"corners": corners, "chi": len(col.classes)},
            )
    return corners
