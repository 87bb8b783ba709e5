"""Loopless multigraph with dense integer vertex and edge identities."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import eq, itemgetter
from typing import Iterable, Iterator, NoReturn

from .errors import GraphError


def _reject(n: int, pairs: list) -> NoReturn:
    """Raise ``GraphError`` naming the first edge out of range or a loop."""
    for k, (u, v) in enumerate(pairs):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge {k}: endpoint out of range in ({u}, {v})")
        if u == v:
            raise GraphError(f"edge {k}: loop ({u}, {v})")
    raise AssertionError("no offending edge")


def iter_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Component:
    """One connected component of a spanning subgraph G[F]."""

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]
    min_degree: int
    max_degree: int

    @property
    def trivial(self) -> bool:
        return not self.edge_ids

    @property
    def regular(self) -> bool:
        return self.min_degree == self.max_degree

    @property
    def cycle_parity(self) -> str | None:
        """``"odd"``/``"even"`` when the component is a single cycle, else None.

        A 2-regular connected component is a cycle whose length equals its
        edge count; a pair of parallel edges counts as an (even) 2-cycle.
        """
        if self.regular and self.min_degree == 2:
            return "odd" if len(self.edge_ids) % 2 else "even"
        return None


class Multigraph:
    """Immutable loopless multigraph.

    Vertices are ``0..n-1``.  Edge identities are ``0..m-1`` in insertion
    order and are the currency of every certificate in this package:
    parallel edges are distinguishable only by identity.

    Two constructors.  ``Multigraph(n, pairs)`` takes an edge list in any
    order, parallel edges included, and validates it: it serves parsed
    input and multigraphs.  ``Multigraph._from_rows(rows)`` builds a simple
    graph from adjacency rows its caller already holds, as the generators
    do; it trusts the rows to be symmetric, loopless and below bit
    ``len(rows)``, and gives the graph the edge-list constructor would give
    for its edges listed as sorted pairs.

    Adjacency is held as one bitmask per vertex (bit ``w`` of ``_mask[v]``
    is set iff v and w are adjacent).  Each distinct vertex pair maps to
    the identity of its first edge in ``_first``, in first-occurrence
    order; only pairs carrying parallel copies also appear in ``_copies``,
    which lists all their identities in ascending order.  Incidence lists
    are built on the first call to :meth:`incident`.
    """

    __slots__ = ("n", "edges", "_inc", "_mask", "_deg", "_first", "_copies")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError(f"negative vertex count {n}")
        raw = list(pairs)
        edges = [(u, v) if u < v else (v, u) for u, v in raw]
        if edges and (
            min(map(itemgetter(0), edges)) < 0
            or max(map(itemgetter(1), edges)) >= n
            or any(map(eq, map(itemgetter(0), edges), map(itemgetter(1), edges)))
        ):
            _reject(n, raw)
        self.n = n
        self.edges = tuple(edges)

        # A dict keeps the position of a key's first insertion, so this is
        # in first-occurrence order; its values are right for single edges.
        first = dict(zip(edges, range(len(edges))))
        copies: dict[tuple[int, int], tuple[int, ...]] = {}
        if len(first) < len(edges):
            ids: dict[tuple[int, int], list[int]] = {}
            for e, uv in enumerate(edges):
                ids.setdefault(uv, []).append(e)
            copies = {uv: tuple(found) for uv, found in ids.items() if len(found) > 1}
            for uv, found in copies.items():
                first[uv] = found[0]

        mask = [0] * n
        for u, v in first:
            mask[u] |= 1 << v
            mask[v] |= 1 << u
        deg = [row.bit_count() for row in mask]
        for (u, v), found in copies.items():
            deg[u] += len(found) - 1
            deg[v] += len(found) - 1
        self._mask = tuple(mask)
        self._deg = tuple(deg)
        self._first = first
        self._copies = copies
        self._inc: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def _from_rows(cls, rows: list[int]) -> "Multigraph":
        """The simple graph whose adjacency bitmasks are ``rows``, unchecked.

        The caller guarantees the rows are symmetric (bit v of ``rows[u]``
        iff bit u of ``rows[v]``), loopless and below bit ``len(rows)``.
        The result equals ``Multigraph(len(rows), pairs)`` field by field,
        ``pairs`` being the edges (u, v), u < v, sorted.  Each row's bits
        above u are expanded in C: its reversed binary digits, as 0/1
        bytes, select from one shared vertex list, so every endpoint is one
        of ``len(rows)`` int objects.
        """
        n = len(rows)
        verts = list(range(n))
        to_bytes = bytes.maketrans(b"01", b"\0\1")
        # bin(r)[:1:-1] spells r's bits from bit 0 up, as "0"/"1"
        above = (
            bin(row >> u + 1)[:1:-1].encode().translate(to_bytes) for u, row in enumerate(rows)
        )
        edges = tuple(
            chain.from_iterable(
                zip(repeat(u), compress(verts[u + 1 :], bits)) for u, bits in zip(verts, above)
            )
        )
        g = cls.__new__(cls)
        g.n = n
        g.edges = edges
        g._first = dict(zip(edges, range(len(edges))))
        g._copies = {}
        g._mask = tuple(rows)
        g._deg = tuple(map(int.bit_count, rows))
        g._inc = None
        return g

    # -- basic queries ----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self._deg[v]

    @property
    def degrees(self) -> tuple[int, ...]:
        return self._deg

    def max_degree(self) -> int:
        return max(self._deg, default=0)

    def endpoints(self, e: int) -> tuple[int, int]:
        return self.edges[e]

    def other_end(self, e: int, v: int) -> int:
        u, w = self.edges[e]
        if v == u:
            return w
        if v == w:
            return u
        raise GraphError(f"vertex {v} is not an endpoint of edge {e}")

    def incident(self, v: int) -> tuple[int, ...]:
        if self._inc is None:
            inc: list[list[int]] = [[] for _ in range(self.n)]
            for e, (a, b) in enumerate(self.edges):
                inc[a].append(e)
                inc[b].append(e)
            self._inc = tuple(map(tuple, inc))
        return self._inc[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._mask[u] >> v & 1)

    def multiplicity(self, u: int, v: int) -> int:
        return len(self.edge_ids_between(u, v))

    def edge_ids_between(self, u: int, v: int) -> tuple[int, ...]:
        uv = (u, v) if u < v else (v, u)
        e = self._first.get(uv)
        if e is None:
            return ()
        return self._copies.get(uv) or (e,)

    def free_edge(self, uv: tuple[int, int], used: set[int]) -> int | None:
        """The lowest identity joining the sorted pair ``uv`` not in ``used``, or None.

        Reads the first-edge table once and the parallel copies only when
        that first edge is already used.
        """
        e = self._first.get(uv)
        if e is None or e not in used:
            return e
        for e in self._copies.get(uv, ()):
            if e not in used:
                return e
        return None

    def neighbours(self, v: int) -> Iterator[int]:
        return iter_bits(self._mask[v])

    def adjacency_mask(self, v: int) -> int:
        return self._mask[v]

    def support_pairs(self) -> Iterator[tuple[int, int]]:
        """Distinct adjacent vertex pairs (u < v), ignoring multiplicity,
        in the order of their first edges."""
        return iter(self._first)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same vertex count and edge multiset.

        Edge identity order is deliberately ignored; certificates compare
        edges by identity against a fixed host graph, never across graphs.
        """
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.n == other.n and sorted(self.edges) == sorted(other.edges)

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.edges))))

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, m={self.m})"

    # -- derived graphs ---------------------------------------------------

    def doubled(self) -> "Multigraph":
        """The multigraph with every edge duplicated.

        Edge ``e`` of this graph yields edges ``2e`` and ``2e + 1``.
        """
        pairs = []
        for uv in self.edges:
            pairs.append(uv)
            pairs.append(uv)
        return Multigraph(self.n, pairs)


def alpha_at_most_2(g: Multigraph) -> bool:
    """True iff the graph has no independent set of three vertices.

    ``above[u]`` holds the non-neighbours of u above u.  An independent
    triple u < v < w is a non-edge u < v with w in both ``above[u]`` and
    ``above[v]``, so each non-edge costs one AND.
    """
    full = (1 << g.n) - 1
    above = [full & ~row & ~((2 << u) - 1) for u, row in enumerate(g._mask)]
    for mine in above:
        cand = mine
        while cand:
            low = cand & -cand
            cand ^= low
            if mine & above[low.bit_length() - 1]:
                return False
    return True


def components_of(g: Multigraph, edge_set: Iterable[int]) -> list[Component]:
    """Connected components of the spanning subgraph G[F].

    Every vertex of ``g`` appears in exactly one component; vertices missed
    by ``edge_set`` form trivial components.  Components are listed by their
    smallest vertex.
    """
    f = set(edge_set)
    for e in f:
        if not 0 <= e < g.m:
            raise GraphError(f"unknown edge identity {e}")
    inc = [[] for _ in range(g.n)]
    for e in f:
        u, v = g.edges[e]
        inc[u].append(e)
        inc[v].append(e)

    seen = [False] * g.n
    out = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        verts = [start]
        edges: set[int] = set()
        stack = [start]
        while stack:
            x = stack.pop()
            for e in inc[x]:
                edges.add(e)
                y = g.other_end(e, x)
                if not seen[y]:
                    seen[y] = True
                    verts.append(y)
                    stack.append(y)
        degs = [len(inc[x]) for x in verts]
        out.append(
            Component(
                vertices=tuple(sorted(verts)),
                edge_ids=tuple(sorted(edges)),
                min_degree=min(degs),
                max_degree=max(degs),
            )
        )
    return out
