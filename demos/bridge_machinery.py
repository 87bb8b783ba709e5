"""Stage-by-stage walk through the construction's hardest case.

The general construction picks corners from an optimal colouring and joins
them with direct edges wherever it can.  The interesting work happens when
an attached class's corner half misses a far corner: the route has to
*bridge* through the class's inner half and some middle vertex.  Opposite
bridges compete for the same inner-inner edge, which sets up a conflict
graph whose decorated colouring decides every route at once.

This host is engineered so that all three attached classes conflict
pairwise and both far corners need bridges everywhere — the conflict graph
is a triangle that survives as a whole odd cycle in one colour class.

Run:  python3 demos/bridge_machinery.py
"""

from kchi import Multigraph, chi_alpha2, construct_immersion, refine_split, verify_immersion
from kchi.construct import (
    assign_bridges,
    audit_out_degree,
    build_bridge_digraph,
    decorated_regions,
    restrict_out_degree,
)
from kchi.decorated import critical_colouring

# three attached classes {0,1}, {2,3}, {4,5} owned by vertex 10, two
# detached classes {6,7} and {8,9}; each far corner (7 and 9) sees every
# inner half but no corner half
g = Multigraph(
    11,
    [(0, 2), (0, 4), (2, 4)]                                      # inner triangle
    + [(1, 3), (1, 5), (3, 5)]                                    # corner triangle
    + [(1, 2), (1, 4), (0, 3), (3, 4), (0, 5), (2, 5)]            # cross edges
    + [(1, 10), (3, 10), (5, 10), (6, 10), (7, 10), (8, 10), (9, 10)]
    + [(6, 8), (6, 9), (7, 8), (7, 9)]                            # detached pairs meet
    + [(0, 7), (2, 7), (4, 7)] + [(0, 9), (2, 9), (4, 9)]         # far corners → inners
    + [(1, 6), (3, 6), (5, 6)] + [(1, 8), (3, 8), (5, 8)],        # other halves → corners
)

chi, col = chi_alpha2(g)
col = refine_split(g, col)
print(f"host: n={g.n} m={g.m}  χ={chi}")
print(f"  singletons {col.singletons}, attached {col.attached}, detached {col.detached}")

# stage 1: the bridge digraph of owner 10 against far corners 7 and 9.  A
# class may keep one arc per bridged or droppable corner; every detour it
# offers is counted, but only the arcs within that budget are built, those
# whose reverse is absent first
d = build_bridge_digraph(g, col, 10, (7, 9))
print("\nbridge digraph:")
for i, cls in enumerate(d.x_nodes):
    print(
        f"  class {i} = {cls}: inner {d.inner[i]}, corner {d.corner[i]}, "
        f"bridged {sorted(d.bridged[i])}, droppable {sorted(d.droppable[i])}, "
        f"settled {sorted(d.settled[i])}, offers {d.offers[i]}"
    )
print(f"  arcs: {[(a.tail, a.head, a.mid) for a in d.arcs]}")

# stage 2: every class must offer at least its budget, and the build must
# have kept exactly that budget (the check passes the digraph through)
assert audit_out_degree(d) == []
assert restrict_out_degree(d) is d

# stage 3: opposite arc pairs form the conflict graph; far-corner types
# become the palette regions for its decorated colouring
h = d.conflict
regions = decorated_regions(d)
print(f"\nconflict graph on {h.n} classes: edges {list(h.edges)}")
for i in range(h.n):
    print(
        f"  class {i}: free {sorted(regions.free[i])}, "
        f"reserve {sorted(regions.reserve[i])}, blocked {sorted(regions.blocked[i])}"
    )

# the triangle is spent at colour 0, so colour 1 is not stepped through:
# with no edge left it marks every class
dec = critical_colouring(h, regions.palette, regions)
print(f"  decorated colouring: colour_of {dec.colour_of}, reserved {dec.reserved}")
print(f"  marked per colour: { {c: sorted(xs) for c, xs in dec.uncovered_at.items()} }")

# stage 4: each conflict edge's colour decides who keeps the inner-inner
# edge; everything else bridges through its remaining arcs
routes = assign_bridges(d, dec)
print("\nroutes (far corner → … → class corner):")
for (i, y), walk in sorted(routes.items()):
    print(f"  class {i}, far corner {y}: {' → '.join(map(str, walk))}")

# the constructor runs the same pipeline for every owner whose conflict graph
# has an edge, as this one does; any other owner's routes, stage 4's lowest
# free arcs, are read straight off its arc selection with no digraph built
imm = construct_immersion(g)
assert verify_immersion(g, imm, chi).ok
assert set(imm.corners) >= {7, 9, 10}
for (i, y), walk in routes.items():
    assert tuple(sorted((y, d.corner[i]))) in imm.paths
print(f"\nfull construction: corners {imm.corners}, verifier accepted")
