"""Maximum matching routines: general graphs (blossom) and bipartite (Kuhn).

Both take one neighbour bitmask per vertex, so callers can match auxiliary
graphs (complements, double covers) without building Multigraph instances
or lists.  The immersion layer hands the blossom matcher
``live & ~adj(u) & ~(1 << u)`` for each live vertex ``u``, the complement
of G[live] in global vertex ids; the factor solver hands the bipartite
matcher its neighbour masks, warm-started from its previous matching.

The bipartite matcher is Kuhn's augmenting-path search run as an explicit
stack over the masks, so its depth is bounded by memory, not by Python's
recursion limit.  It returns exactly the matching of the textbook
recursion that scans each sorted adjacency list in order: the stack takes
the lowest unseen neighbour (``avail & -avail``), which is the next entry
of that list not yet seen.

One seen mask serves every root until the next augmentation.  That is
sound: a right vertex seen in a failed search is *dead*.  The failed search
explored every unseen neighbour of each left vertex it entered, so the
vertices it saw are closed under alternating steps and none of them is
exposed; while the matching stays the same, a later root that reached one
of them could only fail there.  Skipping them changes no choice the
recursion would make, it only saves the repeated failing work.  After an
augmentation the matching changes and the mask is cleared.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence


def maximum_matching(n: int, masks: Sequence[int]) -> list[int]:
    """Maximum matching in a general graph via Edmonds' blossom algorithm.

    ``masks[v]`` is the bitmask of the neighbours of ``v`` (bit ``w`` set
    iff v and w are adjacent), for ``v`` in ``0..n-1``; the masks must be
    symmetric and have no bit ``v`` in ``masks[v]``.  A vertex outside the
    graph being matched simply has mask 0.  Returns the mate array, with
    ``-1`` for exposed vertices.

    Neighbours are read lowest bit first, which is the order of sorted
    adjacency lists.  A search from a root runs only while some other
    exposed vertex could end its augmenting path: a vertex with no
    neighbour never can, and neither can a root whose own search failed
    (Edmonds: no augmenting path from it appears after later
    augmentations).  A skipped search is one that would have failed, so
    the mate array is the same as with every search run.
    """
    mate = [-1] * n
    exposed = (1 << n) - 1
    for v in range(n):
        if mate[v] == -1:
            # the greedy start: v's lowest exposed neighbour
            free = masks[v] & exposed
            if free:
                low = free & -free
                u = low.bit_length() - 1
                mate[v] = u
                mate[u] = v
                exposed ^= 1 << v | low

    parent = [-1] * n
    base = list(range(n))

    def find_lca(a: int, b: int) -> int:
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def augment_from(root: int) -> int:
        """Flip an augmenting path from ``root``; its other end, or -1 if none."""
        nonlocal parent, base
        parent = [-1] * n
        base = list(range(n))
        in_queue = [False] * n
        queue = deque([root])
        in_queue[root] = True
        while queue:
            v = queue.popleft()
            nbrs = masks[v]
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                to = low.bit_length() - 1
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    # odd cycle: contract the blossom
                    cur = find_lca(v, to)
                    blossom = [False] * n
                    mark_path(v, cur, to, blossom)
                    mark_path(to, cur, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not in_queue[i]:
                                in_queue[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if mate[to] == -1:
                        # augmenting path found; flip it
                        u = to
                        while u != -1:
                            pv = parent[u]
                            nxt = mate[pv]
                            mate[u] = pv
                            mate[pv] = u
                            u = nxt
                        return to
                    in_queue[mate[to]] = True
                    queue.append(mate[to])
        return -1

    # exposed vertices with a neighbour, not yet searched from: the roots to
    # come, and the only vertices that can end an augmenting path
    roots = sum(1 << v for v in range(n) if mate[v] == -1 and masks[v])
    while roots:
        low = roots & -roots
        roots ^= low
        if not roots:
            break  # no other end is left for an augmenting path
        end = augment_from(low.bit_length() - 1)
        if end != -1:
            roots &= ~(1 << end)
    return mate


def matching_size(mate: Sequence[int]) -> int:
    return sum(1 for v, u in enumerate(mate) if u > v)


def bipartite_maximum_matching(
    masks: Sequence[int],
    n_right: int,
    mate_left: Sequence[int] | None = None,
    mate_right: Sequence[int] | None = None,
) -> tuple[list[int], list[int]]:
    """Maximum matching in a bipartite graph (Kuhn's augmenting paths).

    ``masks[u]`` is the bitmask of the right neighbours (``0..n_right-1``)
    of left vertex ``u``.  Existing partial matchings warm-start the search;
    they are copied, not mutated.  Exposed left vertices are roots in
    ascending order; the search from a root walks alternating paths depth
    first.  Its stack holds only left vertices: each one below the root was
    reached through the right vertex it is matched to, so the path is read
    back from the left mates when it is flipped.
    """
    mate_l = [-1] * len(masks) if mate_left is None else list(mate_left)
    mate_r = [-1] * n_right if mate_right is None else list(mate_right)
    everyone = (1 << n_right) - 1
    unseen = everyone  # right vertices not seen since the last augmentation
    for root, mask in enumerate(masks):
        if mate_l[root] != -1 or not mask & unseen:
            continue
        lefts = [root]
        u = root
        while True:
            avail = masks[u] & unseen
            if avail:
                low = avail & -avail
                unseen ^= low
                w = low.bit_length() - 1
                u = mate_r[w]
                if u != -1:
                    lefts.append(u)
                    continue
                for u in reversed(lefts):  # w is exposed: flip the path
                    mate_r[w] = u
                    mate_l[u], w = w, mate_l[u]
                unseen = everyone
                break
            lefts.pop()
            if not lefts:
                break
            u = lefts[-1]
    return mate_l, mate_r
