"""Optimal colourings and faithful immersions of graphs without independent triples.

When no three vertices are pairwise non-adjacent, every optimal colouring
consists of classes of size one or two (pairs are non-edges), so the
chromatic number is ``n`` minus a maximum matching of the complement.  This
module computes such colourings, classifies their pair classes by how the
singleton classes attach to them (``_with_split``, the only code that applies
the corner rule: all singletons meeting a pair class in exactly one edge meet
the same half, its corner), and realizes the central building block of the
immersion constructor: a K_χ immersion whose paths never leave the two
classes they connect, available whenever every pair class has a singleton
attached by exactly one edge.

Optimality is proved by one blossom matching of the complement, handed to
the matcher as one bitmask per vertex (``_non_adjacency``: the vertex set's
mask minus the vertex's neighbours and itself), so no adjacency list is
built.  ``chi_alpha2`` and ``_optimal_colouring`` build colourings that are
optimal by construction.  The public ``refine_split`` and ``faithful_immersion``
prove their input optimal (``_require_optimal``) and raise ``PremiseError``
otherwise; the constructor calls their private cores ``_refine_split`` and
``_faithful_immersion`` directly, on refinements and restrictions of the
colouring of ``chi_alpha2``, so one matching serves a whole construction.
``_faithful_immersion`` skips detached classes (only ``faithful_immersion``
refuses them), lays its length-3 routes into the caller's paths dict and
spent-edge set through ``_lay_paths``, the constructor's one path lane, and
returns only the corners.

A corner pair with no listed path is joined by its lowest-id edge, and
certificates leave such paths out: the lane lays only the routes between
non-adjacent corners, and ``Immersion.paths`` reads the others off the host
graph's adjacency masks.
``verify_immersion`` replays any immersion certificate against the host
graph and is completely independent of the construction code.  It and
``chi_alpha2`` run with the cyclic garbage collector paused
(``gcpause.gc_paused``): they allocate many short-lived containers and no
reference cycles.  The audit
helpers check the structural facts the constructor relies on (shared
attachment vertices, the singleton clique, adjacency of inner halves, the
four-class K₄, and the counting inequality enforced by ``refine_split``);
they return failure strings instead of raising so tests can point them at
adversarial inputs.  They read adjacency masks; the K₄ audit pairs up only
the singletons' non-edges into pair classes.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .errors import CertificateError, PremiseError
from .gcpause import gc_paused
from .graphs import Multigraph, alpha_at_most_2, iter_bits
from .matching import matching_size, maximum_matching
from .reporting import ValidityReport


@dataclass(frozen=True)
class PairColouring:
    """A proper colouring with classes of size at most two, plus its split.

    ``singletons`` lists the vertices forming size-1 classes.  A pair class
    is *attached* when some singleton meets it in exactly one edge; ``owner``
    maps each attached class to the lowest such singleton.  The remaining
    pair classes are *detached*.  ``corner`` maps each attached class to the
    one half all its attachers meet; ``disputed`` lists the attached classes
    whose attachers meet both halves, which no optimal colouring has.
    """

    classes: tuple[tuple[int, ...], ...]
    singletons: tuple[int, ...]
    attached: tuple[tuple[int, int], ...]
    detached: tuple[tuple[int, int], ...]
    owner: dict[tuple[int, int], int] = field(compare=False)
    corner: dict[tuple[int, int], int] = field(default_factory=dict, compare=False)
    disputed: tuple[tuple[int, int], ...] = ()

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.attached + self.detached))

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(v for cls in self.classes for v in cls))

    def inner(self, cls: tuple[int, int]) -> int:
        """The half of the attached class ``cls`` that is not its corner."""
        return cls[1] if self.corner[cls] == cls[0] else cls[0]

    @cached_property
    def _detached_halves(self) -> tuple[int, dict[int, int]]:
        """The mask of every detached class's halves, and each half's partner."""
        bits = 0
        partner: dict[int, int] = {}
        for p, q in self.detached:
            bits |= 1 << p | 1 << q
            partner[p], partner[q] = q, p
        return bits, partner


@dataclass(frozen=True)
class Immersion:
    """A complete-graph immersion: corners plus one edge-id path per corner pair.

    A path is an edge-identity sequence walking from the lower corner to the
    higher one, keyed by the sorted corner pair.  ``listed`` holds the paths
    a certificate writes out.  A corner pair with no listed path is joined by
    its lowest-id edge: its path is implicit.  ``paths`` answers for every
    corner pair, reading implicit paths off ``host`` (without a host it holds
    the listed paths alone).  When ``faithful_to`` is set, every path is
    confined to the union of its two corners' colour classes.
    """

    corners: tuple[int, ...]
    listed: Mapping[tuple[int, int], tuple[int, ...]]
    faithful_to: PairColouring | None = None
    host: Multigraph | None = field(default=None, compare=False)

    @cached_property
    def paths(self) -> CornerPaths:
        return CornerPaths(self)


class CornerPaths(Mapping):
    """Every path of an immersion, keyed by sorted corner pair; read-only.

    Holds the listed paths and resolves any other pair of adjacent corners
    to ``(lowest id,)`` through the host graph when that pair is read.
    Iterates the listed pairs first, then the implicit ones in sorted order,
    read off one adjacency mask per corner.
    """

    __slots__ = ("_listed", "_host", "_corners")

    def __init__(self, imm: Immersion):
        self._listed = imm.listed
        self._host = imm.host
        self._corners = frozenset(imm.corners)

    def _implicit(self, key) -> bool:
        """Whether ``key`` is an unlisted sorted pair of adjacent corners."""
        g, corners = self._host, self._corners
        return (
            g is not None
            and type(key) is tuple
            and len(key) == 2
            and key[0] in corners
            and key[1] in corners
            and 0 <= key[0] < key[1] < g.n
            and key not in self._listed
            and g.has_edge(*key)
        )

    def _implicit_rows(self) -> Iterator[tuple[int, int]]:
        """``(u, row)`` for each corner u in the host, ascending: ``row`` masks
        the adjacent corners above u that are not listed with it."""
        g = self._host
        if g is None:
            return
        corners = sorted(u for u in self._corners if 0 <= u < g.n)
        listed_with, bits = dict.fromkeys(corners, 0), _bits(corners)
        for key in self._listed:
            if len(key) == 2 and key[0] in listed_with and key[0] < key[1] and bits >> key[1] & 1:
                listed_with[key[0]] |= 1 << key[1]
        for u in corners:
            yield u, g.adjacency_mask(u) & bits & -(2 << u) & ~listed_with[u]

    def __getitem__(self, key):
        seq = self._listed.get(key)
        if seq is not None:
            return seq
        if not self._implicit(key):
            raise KeyError(key)
        return (self._host.free_edge(key, ()),)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        yield from self._listed
        for u, row in self._implicit_rows():
            for w in iter_bits(row):
                yield u, w

    def __len__(self) -> int:
        return len(self._listed) + sum(row.bit_count() for _, row in self._implicit_rows())

    def __repr__(self) -> str:
        return repr(dict(self))


def _bits(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def _colouring_failures(g: Multigraph, classes) -> list[str]:
    """Why ``classes`` are not disjoint independent classes of size one or two
    inside the graph, one string per violation; empty when they are."""
    bad = []
    seen: set[int] = set()
    for cls in classes:
        if not 1 <= len(cls) <= 2 or len(set(cls)) != len(cls):
            bad.append(f"class {tuple(cls)} does not have one or two distinct vertices")
            continue
        inside = True
        for v in cls:
            if not 0 <= v < g.n:
                bad.append(f"class vertex {v} outside the graph")
                inside = False
            elif v in seen:
                bad.append(f"vertex {v} appears in two classes")
            seen.add(v)
        if inside and len(cls) == 2 and g.has_edge(cls[0], cls[1]):
            bad.append(f"class {tuple(cls)} spans an edge")
    return bad


def _check_colouring(g: Multigraph, classes) -> None:
    """Validate shape: disjoint independent classes of size one or two."""
    bad = _colouring_failures(g, classes)
    if bad:
        raise PremiseError(bad[0])


def _with_split(g: Multigraph, classes) -> PairColouring:
    """Attach the singleton/pair/attached/detached split, with each attached
    class's owner and corner or dispute, to raw classes of any shape."""
    norm = tuple(sorted(tuple(sorted(cls)) for cls in classes))
    singles = tuple(cls[0] for cls in norm if len(cls) == 1)
    pairs = [cls for cls in norm if len(cls) == 2]

    # Classes parsed from a certificate may name vertices outside the
    # graph; such a vertex has no edges, as ``has_edge`` would say.
    def row(a: int) -> int:
        return g.adjacency_mask(a) if 0 <= a < g.n else 0

    single_bits = _bits(v for v in singles if 0 <= v < g.n)
    owner: dict[tuple[int, int], int] = {}
    corner: dict[tuple[int, int], int] = {}
    disputed = []
    for cls in pairs if single_bits else ():  # no singleton: no class attaches
        row_a, row_b = row(cls[0]), row(cls[1])
        # singletons adjacent to exactly one half of the class; the lowest owns it
        once = (row_a ^ row_b) & single_bits
        if once:
            owner[cls] = (once & -once).bit_length() - 1
            if once & row_a and once & row_b:
                disputed.append(cls)
            else:
                corner[cls] = cls[0] if once & row_a else cls[1]
    return PairColouring(
        classes=norm,
        singletons=singles,
        attached=tuple(cls for cls in pairs if cls in owner),
        detached=tuple(cls for cls in pairs if cls not in owner),
        owner=owner,
        corner=corner,
        disputed=tuple(disputed),
    )


def _non_adjacency(g: Multigraph, verts: tuple[int, ...]) -> list[int]:
    """Complement masks of G[verts] in global vertex ids, one per vertex of G.

    A vertex outside ``verts`` gets mask 0, so it stays exposed in the
    blossom matching and is never searched from.
    """
    live = _bits(verts)
    masks = [0] * g.n
    for u in verts:
        masks[u] = live & ~g.adjacency_mask(u) & ~(1 << u)
    return masks


def _optimal_colouring(g: Multigraph) -> PairColouring:
    """Optimal colouring of G: matched complement edges plus singletons."""
    verts = tuple(range(g.n))
    mate = maximum_matching(g.n, _non_adjacency(g, verts))
    classes = [(u, mate[u]) for u in verts if mate[u] > u] + [
        (u,) for u in verts if mate[u] == -1
    ]
    col = _with_split(g, classes)
    _check_colouring(g, col.classes)
    return col


def _require_optimal(g: Multigraph, col: PairColouring, what: str) -> None:
    """Raise ``PremiseError`` unless ``col`` is an optimal colouring of its vertices."""
    _check_colouring(g, col.classes)
    mate = maximum_matching(g.n, _non_adjacency(g, col.vertices))
    if len(col.classes) != len(col.vertices) - matching_size(mate):
        raise PremiseError(f"{what} needs an optimal colouring")


@gc_paused
def chi_alpha2(g: Multigraph) -> tuple[int, PairColouring]:
    """Chromatic number and an optimal size-≤2-class colouring.

    Only defined when the graph has no independent triple; the complement is
    then triangle-free and its maximum matching pairs up as many classes as
    possible.
    """
    if not alpha_at_most_2(g):
        raise PremiseError("graph has three pairwise non-adjacent vertices")
    col = _optimal_colouring(g)
    return len(col.classes), col


def corner_labels(g: Multigraph, col: PairColouring) -> dict[tuple[int, int], int]:
    """For each attached class, the vertex every attaching singleton leans on.

    A singleton meeting a pair class in exactly one edge determines a
    distinguished *corner* half of the class; all such singletons name the
    same vertex in any optimal colouring.  Disagreement means the input was
    not an optimal colouring and is reported as a broken certificate; both
    are read off ``col``'s split, not off ``g``.
    """
    if col.disputed:
        raise CertificateError(
            "attaching singletons disagree on the corner half",
            dump={"class": col.disputed[0], "named": list(col.disputed[0])},
        )
    return col.corner


def _hop_fault(g: Multigraph, route: tuple[int, ...], u: int, w: int) -> CertificateError:
    """Why the hop u-w of ``route`` has no edge left to take."""
    if g.has_edge(u, w):
        return CertificateError(
            "no unused edge left between path vertices",
            dump={"pair": (u, w), "copies": g.multiplicity(u, w)},
        )
    return CertificateError(
        "required edge missing from the host graph", dump={"route": route, "gap": (u, w)}
    )


def _second_path(key: tuple[int, int]) -> CertificateError:
    return CertificateError("two paths for one corner pair", dump={"pair": key})


def _lay_paths(g: Multigraph, routes, used: set[int], paths: dict) -> None:
    """The path lane: lay each vertex route as a path of lowest unused edges.

    Each hop takes its pair's lowest edge identity not in ``used`` and adds
    it there; the path is stored in ``paths`` under the route's sorted end
    pair and walks from the lower end.  A second path for an end pair (also
    across calls that share ``paths``), a hop with no edge and a hop whose
    copies are all spent are broken contracts.  The constructor lays only
    listed routes: each joins two non-adjacent corners, and each hop has a
    non-corner end.  So no hop spends the lowest edge of an adjacent corner
    pair, its implicit path, in whatever order the routes are laid.
    """
    for route in routes:
        a, b = route[0], route[-1]
        key = (a, b) if a < b else (b, a)
        if key in paths:
            raise _second_path(key)
        ids = []
        for u, w in zip(route, route[1:]):
            e = g.free_edge((u, w) if u < w else (w, u), used)
            if e is None:
                raise _hop_fault(g, route, u, w)
            used.add(e)
            ids.append(e)
        paths[key] = tuple(ids) if a < b else tuple(reversed(ids))


def _require_adjacent(g: Multigraph, singles, corners: int) -> None:
    """Check that each singleton is adjacent to every other corner in the
    mask ``corners``, as its implicit paths need; the first gap is a missing
    edge."""
    for s in singles:
        gap = corners & ~g.adjacency_mask(s) & ~(1 << s)
        if gap:
            y = (gap & -gap).bit_length() - 1
            raise _hop_fault(g, (s, y), s, y)


# -- the split refinement ---------------------------------------------------


def _grouped_by_owner(col: PairColouring) -> dict[int, list[tuple[int, int]]]:
    groups: dict[int, list[tuple[int, int]]] = {}
    for cls in col.attached:
        groups.setdefault(col.owner[cls], []).append(cls)
    return groups


def _count_gap(
    g: Multigraph, col: PairColouring, labels, group: list[tuple[int, int]], cls: tuple[int, int]
) -> tuple[int, int]:
    """LHS and RHS of the counting inequality for one attached class.

    ``group`` lists the attached classes of ``cls``'s owner, as
    ``_grouped_by_owner`` gives them.
    """
    near = g.adjacency_mask(labels[cls])
    # a detached class meets the corner once iff exactly one half is missed
    halves, partner = col._detached_halves
    missed = halves & ~near
    lhs = sum(not missed >> partner[h] & 1 for h in iter_bits(missed))
    rhs = sum(near >> p & near >> q & 1 for p, q in group if (p, q) != cls)
    return lhs, rhs


def _violations(g: Multigraph, col: PairColouring) -> Iterator[tuple[int, tuple, int, int]]:
    """Each attached class that breaks the counting inequality, as
    ``(owner, class, lhs, rhs)``, by owner and then by class."""
    labels = corner_labels(g, col)
    for v, group in sorted(_grouped_by_owner(col).items()):
        for cls in sorted(group):
            lhs, rhs = _count_gap(g, col, labels, group, cls)
            if lhs > rhs:
                yield v, cls, lhs, rhs


def refine_split(g: Multigraph, col: PairColouring) -> PairColouring:
    """Rework the colouring until the counting inequality holds everywhere.

    For every owner v and every attached class X of v, the number of
    detached classes meeting X's corner in exactly one edge must not exceed
    the number of v's other attached classes meeting it in two.  A violation
    is repaired by making the corner a singleton and pairing v with the
    inner half — a proper colouring of the same size with strictly more
    attached classes, so at most one swap per pair class occurs.  Raises
    ``PremiseError`` unless ``col`` is an optimal colouring of its vertices.
    """
    _require_optimal(g, col, "refine_split")
    return _refine_split(g, col)


def _refine_split(g: Multigraph, col: PairColouring) -> PairColouring:
    """``refine_split`` on a colouring already known to be optimal."""
    for _ in range(len(col.pairs) + 1):
        swap = next(_violations(g, col), None)
        if swap is None:
            return col
        v, cls, _, _ = swap
        retained = [c for c in col.classes if c != (v,) and c != cls]
        swapped = [(col.corner[cls],), tuple(sorted((v, col.inner(cls))))]
        next_col = _with_split(g, retained + swapped)
        if len(next_col.attached) <= len(col.attached):
            raise CertificateError(
                "swap failed to enlarge the attached family",
                dump={"owner": v, "class": cls, "before": col.attached, "after": next_col.attached},
            )
        col = next_col
    raise CertificateError("split refinement did not stabilise", dump={"classes": col.classes})


# -- faithful immersion -----------------------------------------------------


def faithful_immersion(g: Multigraph, col: PairColouring) -> Immersion:
    """K_χ immersion whose paths stay inside the classes they connect.

    Requires every pair class to be attached.  Corners are the singletons
    together with each class's corner half; paths are direct edges except
    between two corner halves that are non-adjacent, which are joined by the
    length-3 route through the inner halves.  Raises ``PremiseError`` unless
    ``col`` is an optimal colouring of its vertices with every pair class
    attached; that premise is checked here, not in ``_faithful_immersion``.
    """
    _require_optimal(g, col, "faithful immersion")
    if col.detached:
        raise PremiseError(
            f"pair class {col.detached[0]} has no singleton attached by exactly one edge"
        )
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    corners = _faithful_immersion(g, col, set(), paths)
    return Immersion(corners, paths, faithful_to=col, host=g)


def _faithful_immersion(
    g: Multigraph, col: PairColouring, used: set[int], paths: dict
) -> tuple[int, ...]:
    """``faithful_immersion`` on a colouring already known to be optimal.

    Detached classes are skipped (the constructor immerses them a level
    below).  Only the length-3 routes between non-adjacent class corners are
    laid, by ``_lay_paths`` into ``paths`` and ``used``, shared with the
    caller; every hop has an inner-half end, so no route takes an implicit
    pair's edge.  The other corner pairs are implicit, each singleton's
    checked adjacent.  The corners are returned.
    """
    labels = corner_labels(g, col)
    singles = col.singletons
    halves = [(labels[cls], col.inner(cls)) for cls in col.attached]
    corners = tuple(sorted(singles + tuple(c for c, _ in halves)))
    _require_adjacent(g, singles, _bits(corners))
    # non-adjacent corners walk through the two inner halves
    pairs = combinations(halves, 2)
    routes = [(ca, ib, ia, cb) for (ca, ia), (cb, ib) in pairs if not g.has_edge(ca, cb)]
    _lay_paths(g, routes, used, paths)
    return corners


# -- independent verifier ---------------------------------------------------


@gc_paused
def verify_immersion(
    g: Multigraph, imm: Immersion, t: int, faithful_wrt: PairColouring | None = None
) -> ValidityReport:
    """Replay an immersion certificate clause by clause.

    Accepts iff the corner set has exactly ``t`` distinct vertices, there is
    exactly one path per unordered corner pair, every path is a walk whose
    consecutive edges chain between its corners, and no edge identity is
    used twice.  A corner pair with no listed path is joined by its lowest-id
    edge (``Immersion``): each corner's unlisted pairs above it are checked
    by one AND of adjacency masks, and a listed edge that joins an unlisted
    corner pair must not be that pair's lowest identity.  A colouring in
    ``faithful_wrt`` (defaulting to the immersion's own ``faithful_to``
    annotation) must be a colouring of the graph: classes of one or two
    distinct vertices inside it, pairwise disjoint, none spanning an edge.
    It additionally restricts every path to the union of its corners'
    classes, at most one corner per class; an implicit path never leaves its
    two corners, so only listed paths are walked for it.
    """
    failures: list[str] = []
    corners = imm.corners
    if len(corners) != t:
        failures.append(f"corner count {len(corners)} differs from target {t}")
    distinct = sorted(set(corners))
    if len(distinct) != len(corners):
        failures.append("corners are not distinct")
    if any(not 0 <= u < g.n for u in corners):
        failures.append("corner outside the graph")
        return ValidityReport.from_failures(failures)

    listed = imm.listed
    corner_bits = _bits(distinct)
    # listed_with[u]: the corners above u listed with it; other listed keys are foreign
    listed_with = [0] * g.n
    pairs: list[tuple[int, int]] = []
    foreign = []
    for key in listed:
        ordered = len(key) == 2 and 0 <= key[0] < key[1]
        if ordered and corner_bits >> key[0] & corner_bits >> key[1] & 1:
            pairs.append(key)
            listed_with[key[0]] |= 1 << key[1]
        else:
            foreign.append(key)

    missing: list[str] = []
    implicit = 0
    for u in distinct:
        unlisted = corner_bits & -(2 << u) & ~listed_with[u]
        row = g.adjacency_mask(u)
        implicit += (unlisted & row).bit_count()
        missing += [f"missing path for corner pair {(u, w)}" for w in iter_bits(unlisted & ~row)]

    m = g.m
    us, vs = g.endpoint_columns
    free_edge = g.free_edge
    tally = bytearray(m)  # 1 once an edge identity is on some listed path
    reused: set[int] = set()
    broken: list[tuple[tuple[int, int], str]] = []
    for key in pairs:
        seq = listed[key]
        if not seq:
            broken.append((key, f"empty path for pair {key}"))
            continue
        at = key[0]
        for e in seq:
            if not 0 <= e < m:
                broken.append((key, f"path for pair {key} uses unknown edge {e}"))
                break
            u, w = us[e], vs[e]
            if at == u:
                at = w
            elif at == w:
                at = u
            else:
                broken.append((key, f"path for pair {key}: edge {e} does not continue the walk"))
                break
            if tally[e]:
                reused.add(e)
            tally[e] = 1
            # an unlisted corner pair's lowest identity is its implicit path
            if corner_bits >> u & corner_bits >> w & 1 and not listed_with[u] >> w & 1:
                if free_edge((u, w), ()) == e:
                    reused.add(e)
        else:
            if at != key[1]:
                broken.append(
                    (key, f"path for pair {key} stops at {at}, not at its endpoint {key[1]}")
                )

    failures += missing
    failures += [f"path for non-corner pair {key}" for key in sorted(foreign)]
    failures += [message for _, message in sorted(broken)]
    if reused:
        failures.append(f"edge reuse: identities {sorted(reused)[:8]} appear in several paths")

    col = faithful_wrt if faithful_wrt is not None else imm.faithful_to
    if col is not None:
        failures += _colouring_failures(g, col.classes)
        home: dict[int, tuple[int, ...]] = {}
        for cls in col.classes:
            for v in cls:
                home[v] = cls
        corner_set = set(corners)
        for cls in col.classes:
            inside = set(cls) & corner_set
            if len(inside) > 1:
                failures.append(f"class {cls} contains two corners {sorted(inside)}")
        uncovered = {u for u in distinct if u not in home}
        if uncovered:
            failures += [
                f"corner pair {key} not covered by the colouring"
                for key in combinations(distinct, 2)
                if key[0] in uncovered or key[1] in uncovered
            ]
        for key in sorted(pairs):
            if key[0] in uncovered or key[1] in uncovered:
                continue
            allowed = set(home[key[0]]) | set(home[key[1]])
            for e in listed[key]:
                if not 0 <= e < m:
                    continue
                if us[e] not in allowed or vs[e] not in allowed:
                    failures.append(f"path for pair {key} leaves its classes at edge {e}")
                    break

    return ValidityReport.from_failures(
        failures, details={"listed": len(listed), "implicit": implicit}
    )


# -- structural audits ------------------------------------------------------
#
# Each audit checks a fact that holds for every optimal colouring of a graph
# without independent triples; the construction trusts these facts, the
# tests point the audits at everything the pipeline produces.


def audit_shared_attachment(g: Multigraph, col: PairColouring) -> list[str]:
    """All singletons attaching to a pair class by one edge name one vertex
    (the split lists the classes where they do not in ``col.disputed``)."""
    return [f"attachers of class {cls} split between {list(cls)}" for cls in col.disputed]


def audit_singleton_clique(g: Multigraph, col: PairColouring) -> list[str]:
    """Any two singleton classes are adjacent (they would merge otherwise)."""
    singles = _bits(col.singletons)
    return [
        f"singletons {u} and {w} are non-adjacent"
        for u in col.singletons
        for w in iter_bits(singles & ~g.adjacency_mask(u) & -(2 << u))
    ]


def audit_inner_adjacency(g: Multigraph, col: PairColouring) -> list[str]:
    """Inner halves of classes attached to a common singleton are adjacent."""
    bad = []
    for v in col.singletons:
        row = g.adjacency_mask(v)
        # v meets (p, q) once when their bits differ; the inner half is the missed one
        inners = [q if row >> p & 1 else p for p, q in col.pairs if (row >> p ^ row >> q) & 1]
        bad.extend(
            f"inner halves {p} and {q} at singleton {v} are non-adjacent"
            for p, q in combinations(inners, 2)
            if not g.has_edge(p, q)
        )
    return bad


def audit_double_nonedge(g: Multigraph, col: PairColouring) -> list[str]:
    """Two singleton non-edges into distinct pair classes force a K₄.

    If u misses one half of class A and v ≠ u misses one half of class B ≠ A,
    then u, v and the two other halves are pairwise adjacent.  Only the
    singletons' non-edges into pair classes are listed and paired, so the
    scan costs the square of their number, not of |classes| · |singletons|.
    """
    if len(col.singletons) < 2:
        return []
    singles = _bits(col.singletons)
    # (class, singleton, the class's other half) per missed half, by class
    misses = [
        (cls, u, other)
        for cls in col.pairs
        for half, other in (cls, cls[::-1])
        for u in iter_bits(singles & ~g.adjacency_mask(half))
    ]
    bad = []
    for (cls_a, u, a2), (cls_b, v, b2) in combinations(misses, 2):
        if cls_a == cls_b or u == v:
            continue
        four = (u, v, a2, b2)
        for x, y in combinations(four, 2):
            if not g.has_edge(x, y):
                bad.append(
                    f"quadruple {four} from classes {cls_a}, {cls_b} misses edge {x}-{y}"
                )
    return bad


def audit_refined(g: Multigraph, col: PairColouring) -> list[str]:
    """The counting inequality of refine_split holds for every attached class."""
    return [
        f"class {cls} of owner {v}: {lhs} singly-met detached classes "
        f"but only {rhs} doubly-met companions"
        for v, cls, lhs, rhs in _violations(g, col)
    ]


def run_colouring_audits(g: Multigraph, col: PairColouring) -> list[str]:
    """Every structural audit that applies to a bare optimal colouring."""
    return (
        audit_shared_attachment(g, col)
        + audit_singleton_clique(g, col)
        + audit_inner_adjacency(g, col)
        + audit_double_nonedge(g, col)
    )
