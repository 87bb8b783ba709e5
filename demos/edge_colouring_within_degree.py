"""Edge colourings into degree-≤-r regular classes, never beyond Δ(G).

Each colour class here is a disjoint union of single edges and odd cycles,
so per component it is regular of degree 1 or 2.  That serves every bound
r ≥ 2, and the number of classes never exceeds the maximum degree.  On
stars the bound is exact: r plays no role when the graph is a tree, and
K_{1,s} needs exactly s classes.

Run:  python3 demos/edge_colouring_within_degree.py
"""

import random

from kchi import (
    Multigraph,
    brute_force_chi_prime_r,
    cycle_matching_colouring,
    gen_family,
    gen_multigraph,
    validate_cm_colouring,
)


def report(g: Multigraph, name: str, r: int = 2) -> None:
    col = cycle_matching_colouring(g)
    assert validate_cm_colouring(g, col, r)
    used = sum(1 for cls in col.classes() if cls)
    print(f"{name}: Δ={g.max_degree()}  classes used: {used}")
    for i, cls in enumerate(col.classes()):
        if cls:
            ends = [g.edges[e] for e in cls]
            print(f"  colour {i}: {ends}")


report(gen_family("complete", 5), "K5")
report(gen_family("star", 6), "K_{1,6}")

# doubled edges force honest multigraph handling
doubled = Multigraph(4, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (0, 3)])
report(doubled, "4-cycle with two doubled edges")

# palette stays within Δ on random multigraphs, whatever r
rng = random.Random(7)
for trial in range(200):
    g = gen_multigraph(rng.randint(1, 14), rng.random(), seed=trial, max_mult=3)
    r = rng.choice([2, 3, 5])
    col = cycle_matching_colouring(g)
    assert col.palette <= max(g.max_degree(), 0) or g.m == 0
    assert validate_cm_colouring(g, col, r)
print("\n200 random multigraphs: every palette within Δ, all classes valid")

# where brute force is affordable, the bound is frequently tight
g = gen_family("complete", 5)
exact = brute_force_chi_prime_r(g, 2)
print(f"K5 with r=2: brute-force optimum {exact}, Δ bound {g.max_degree()}")

for s in range(1, 7):
    g = gen_family("star", s)
    assert brute_force_chi_prime_r(g, 2) == s == cycle_matching_colouring(g).palette
print("stars K_{1,s}, s ≤ 6: construction meets the brute-force optimum exactly")
