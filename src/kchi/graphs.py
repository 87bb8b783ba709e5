"""Loopless multigraph with dense integer vertex and edge identities."""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Container, Sequence
from dataclasses import dataclass
from itertools import accumulate, compress, islice, repeat
from operator import add, eq, le, mul
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


class EdgeView(Sequence):
    """The edges of a graph as ``(u, v)`` pairs, u < v, indexed by identity.

    A read-only view over the graph's endpoint columns: it indexes,
    slices, iterates, compares equal to and prints as the tuple of pairs it
    stands for, building each pair only when asked.
    """

    __slots__ = ("_u", "_v")

    def __init__(self, us: array, vs: array):
        self._u = us
        self._v = vs

    def __len__(self) -> int:
        return len(self._u)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(zip(self._u[i], self._v[i]))
        return (self._u[i], self._v[i])

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self._u, self._v)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EdgeView):
            return self._u == other._u and self._v == other._v
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


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

    Edges are stored as columns, with no Python object per edge.  Edge e
    joins ``us[e] < vs[e]``, two ``array('i')`` columns that
    :attr:`endpoint_columns` hands to loops over many edges; :attr:`edges`
    is a read-only view of the same columns as ``(u, v)`` pairs.  The pair
    index lists the edges in pair-sorted order: ``_hi`` holds their upper
    endpoints and ``_ids`` their identities, ascending within each pair,
    and the edges with lower endpoint u sit at positions
    ``_start[u]:_start[u + 1]``.  Input already in sorted order, as every
    ``_from_rows`` graph is, shares ``_hi`` with the ``vs`` column and has
    ``_ids = range(m)``.  Adjacency is also held as one bitmask per vertex
    (bit ``w`` of ``_mask[v]`` is set iff v and w are adjacent).
    Incidence lists are built on the first call to :meth:`incident`.
    """

    __slots__ = ("n", "_u", "_v", "_start", "_hi", "_ids", "_inc", "_mask", "_deg")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError(f"negative vertex count {n}")
        raw = list(pairs)
        try:
            us = array("i", [u if u < v else v for u, v in raw])
            vs = array("i", [v if u < v else u for u, v in raw])
        except OverflowError:
            _reject(n, raw)
        if raw and (min(us) < 0 or max(vs) >= n or any(map(eq, us, vs))):
            _reject(n, raw)

        m = len(us)
        codes = list(map(add, map(mul, us, repeat(n)), vs))
        if all(map(le, codes, islice(codes, 1, None))):
            ids, hi = range(m), vs
        else:
            ids = array("i", sorted(range(m), key=codes.__getitem__))
            hi = array("i", [vs[e] for e in ids])
            codes.sort()
        mask = [0] * n
        deg = [0] * n
        for u, v in zip(us, vs):
            mask[u] |= 1 << v
            mask[v] |= 1 << u
            deg[u] += 1
            deg[v] += 1
        self.n = n
        self._u = us
        self._v = vs
        self._start = array("i", map(bisect_left, repeat(codes), map(mul, range(n + 1), repeat(n))))
        self._hi = hi
        self._ids = ids
        self._mask = tuple(mask)
        self._deg = tuple(deg)
        self._inc: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def _from_rows(cls, rows: list[int]) -> "Multigraph":
        """The simple graph whose adjacency bitmasks are ``rows``, unchecked.

        The caller guarantees the rows are symmetric (bit v of ``rows[u]``
        iff bit u of ``rows[v]``), loopless and below bit ``len(rows)``.
        The result equals ``Multigraph(len(rows), pairs)`` table by table,
        ``pairs`` being the edges (u, v), u < v, sorted.  Each row's bits
        above u are expanded in C: its reversed binary digits, as 0/1
        bytes, select from the vertices above u straight into the ``vs``
        column, and u is repeated as often into the ``us`` column.
        """
        n = len(rows)
        to_bytes = bytes.maketrans(b"01", b"\0\1")
        us, vs = array("i"), array("i")
        one = array("i", [0])
        counts = []
        for u, row in enumerate(rows):
            up = row >> u + 1
            counts.append(up.bit_count())
            one[0] = u
            us += one * counts[-1]
            # bin(r)[:1:-1] spells r's bits from bit 0 up, as "0"/"1"
            vs.extend(compress(range(u + 1, n), bin(up)[:1:-1].encode().translate(to_bytes)))
        g = cls.__new__(cls)
        g.n = n
        g._u = us
        g._v = vs
        g._start = array("i", accumulate(counts, initial=0))
        g._hi = vs
        g._ids = range(len(vs))
        g._mask = tuple(rows)
        g._deg = tuple(map(int.bit_count, rows))
        g._inc = None
        return g

    # -- basic queries ----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._u)

    @property
    def edges(self) -> EdgeView:
        """The edges as ``(u, v)`` pairs, u < v, indexed by identity."""
        return EdgeView(self._u, self._v)

    @property
    def endpoint_columns(self) -> tuple[array, array]:
        """``(us, vs)``: edge e joins ``us[e] < vs[e]``.

        The columns behind :attr:`edges`, for loops over many edges: they
        index the columns directly instead of building a pair per edge
        through the view.  Callers only read them.
        """
        return self._u, self._v

    def sorted_runs(self) -> Iterator[tuple[int, array]]:
        """``(u, hi)`` for each vertex u: the higher ends of u's edges to higher
        vertices, ascending, one per copy, so the runs list ``sorted(g.edges)``."""
        start, hi = self._start, self._hi
        return zip(range(self.n), map(hi.__getitem__, map(slice, start, start[1:])))

    def degree(self, v: int) -> int:
        return self._deg[v]

    @property
    def degrees(self) -> tuple[int, ...]:
        return self._deg

    def max_degree(self) -> int:
        return max(self._deg, default=0)

    def endpoints(self, e: int) -> tuple[int, int]:
        return self._u[e], self._v[e]

    def other_end(self, e: int, v: int) -> int:
        u, w = self._u[e], self._v[e]
        if v == u:
            return w
        if v == w:
            return u
        raise GraphError(f"vertex {v} is not an endpoint of edge {e}")

    def incident(self, v: int) -> tuple[int, ...]:
        if self._inc is None:
            inc: list[list[int]] = [[] for _ in range(self.n)]
            for e, (a, b) in enumerate(zip(self._u, self._v)):
                inc[a].append(e)
                inc[b].append(e)
            self._inc = tuple(map(tuple, inc))
        return self._inc[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._mask[u] >> v & 1)

    def multiplicity(self, u: int, v: int) -> int:
        return len(self.edge_ids_between(u, v))

    def edge_ids_between(self, u: int, v: int) -> tuple[int, ...]:
        if u > v:
            u, v = v, u
        hi, end = self._hi, self._start[u + 1]
        i = bisect_left(hi, v, self._start[u], end)
        return tuple(self._ids[i : bisect_right(hi, v, i, end)])

    def free_edge(self, uv: tuple[int, int], used: Container[int]) -> int | None:
        """The lowest identity joining the sorted pair ``uv`` not in ``used``, or None.

        Bisects the pair index once, then walks the pair's copies in
        ascending identity until one is unused.
        """
        u, v = uv
        hi, ids, end = self._hi, self._ids, self._start[u + 1]
        i = bisect_left(hi, v, self._start[u], end)
        while i < end and hi[i] == v:
            e = ids[i]
            if e not in used:
                return e
            i += 1
        return None

    def neighbours(self, v: int) -> Iterator[int]:
        return iter_bits(self._mask[v])

    def adjacency_mask(self, v: int) -> int:
        return self._mask[v]

    def support_pairs(self) -> Iterator[tuple[int, int]]:
        """Distinct adjacent vertex pairs (u < v), ignoring multiplicity,
        in the order of their first edges."""
        return iter(dict.fromkeys(self.edges))

    def __eq__(self, other: object) -> bool:
        """Structural equality: same vertex count and edge multiset.

        Edge identity order is deliberately ignored; certificates compare
        edges by identity against a fixed host graph, never across graphs.
        Equal multisets give equal pair indexes, up to the identities.
        """
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.n == other.n and self._start == other._start and self._hi == other._hi

    def __hash__(self) -> int:
        return hash((self.n, self._start.tobytes(), self._hi.tobytes()))

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


def _touched_components(
    g: Multigraph, ids: Iterable[int]
) -> tuple[dict[int, list[int]], list[list[int]]]:
    """The components of the vertices that the distinct edges ``ids`` touch.

    Returns the neighbour list of each touched vertex, one entry per edge
    (so its length is the degree), and, for each component by least vertex,
    its vertex list, which starts at that least vertex.  Only touched
    vertices are visited, so the cost is linear in the number of edges.
    """
    us, vs = g.endpoint_columns
    adj: dict[int, list[int]] = {}
    for e in ids:
        u, v = us[e], vs[e]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen: set[int] = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        seen.add(start)
        verts = [start]
        for x in verts:  # grows while it is read: a breadth-first walk
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    verts.append(y)
        comps.append(verts)
    return adj, comps


def components_of(g: Multigraph, edge_set: Iterable[int]) -> list[Component]:
    """Connected components of the spanning subgraph G[F].

    Every vertex of ``g`` appears in exactly one component; vertices missed
    by ``edge_set`` form trivial components.  Components are listed by their
    smallest vertex.
    """
    f = sorted(set(edge_set))
    m = g.m
    for e in f:
        if not 0 <= e < m:
            raise GraphError(f"unknown edge identity {e}")
    adj, comps = _touched_components(g, f)
    least = {x: verts[0] for verts in comps for x in verts}
    edges: dict[int, list[int]] = {}
    us = g.endpoint_columns[0]
    for e in f:
        edges.setdefault(least[us[e]], []).append(e)
    by_least = {verts[0]: verts for verts in comps}
    out = []
    for v in range(g.n):
        verts = by_least.get(v)
        if verts is None:
            if v not in adj:
                out.append(Component(vertices=(v,), edge_ids=(), min_degree=0, max_degree=0))
            continue
        degs = [len(adj[x]) for x in verts]
        out.append(
            Component(
                vertices=tuple(sorted(verts)),
                edge_ids=tuple(edges[v]),
                min_degree=min(degs),
                max_degree=max(degs),
            )
        )
    return out
