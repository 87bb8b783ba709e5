"""Tour of the headline guarantee: χ(G) corners, edge-disjoint paths.

Builds complete-graph immersions for a pentagon and for a seeded random
graph with no independent triple, prints the certificates, and shows the
verifier rejecting a tampered one.

Run:  python3 demos/immersion_tour.py
"""

from kchi import (
    Immersion,
    Multigraph,
    chi_alpha2,
    construct_immersion,
    gen_alpha2,
    verify_immersion,
)


def show(g: Multigraph, name: str) -> None:
    chi, colouring = chi_alpha2(g)
    imm = construct_immersion(g)
    print(f"{name}: n={g.n} m={g.m}  χ={chi}")
    print(f"  colour classes: {colouring.classes}")
    print(f"  corners: {imm.corners}")
    for pair, ids in sorted(imm.paths.items()):
        walk = " → ".join(str(v) for v in vertices_of(g, pair, ids))
        print(f"  path {pair}: edges {list(ids)}  ({walk})")
    # a corner pair the certificate does not list is joined by its lowest-id edge
    print(f"  the certificate lists {len(imm.listed)} of these {len(imm.paths)} paths")
    report = verify_immersion(g, imm, chi)
    assert report.ok
    print("  verifier: accepted\n")


def vertices_of(g, pair, ids):
    at = pair[0]
    out = [at]
    for e in ids:
        at = g.other_end(e, at)
        out.append(at)
    return out


pentagon = Multigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
show(pentagon, "C5")

random_graph = gen_alpha2(12, 0.55, seed=2024)
show(random_graph, "gen_alpha2(12, 0.55, 2024)")

# tamper with a certificate: drop one path's last edge
imm = construct_immersion(pentagon)
broken = dict(imm.paths)
long_pair = max(broken, key=lambda p: len(broken[p]))
broken[long_pair] = broken[long_pair][:-1]
report = verify_immersion(pentagon, Immersion(imm.corners, broken), 3)
print(f"tampered path {long_pair}: {report.failures[0]}")
assert not report.ok
