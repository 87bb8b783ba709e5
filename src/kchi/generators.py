"""Seeded instance generation and text/JSON serialization.

Generation is pure given its parameters: the same ``(n, density, seed)``
always yields the same graph, bit-exact through :func:`emit_edge_list`.
Generators that already hold a simple graph's adjacency bitmasks
(``gen_alpha2`` and the complete and cocktail families) build it straight
from those rows with ``Multigraph._from_rows``, which expands them into the
graph's endpoint columns; the others, and parsed input, go through the
edge-list constructor.

Text formats
------------
Edge list: a header line ``n m`` followed by ``m`` lines ``u v`` with
``0 <= u, v < n`` and ``u != v``.  ``#`` starts a comment, blank lines are
ignored.  :func:`emit_edge_list` canonicalizes (edges sorted, one space,
trailing newline), so ``emit(parse(x)) == emit(parse(emit(parse(x))))``.

DOT output is emit-only, for eyeballing instances with graphviz.

Certificate JSON: an immersion certificate serializes as an object with

* ``"kind"``: the string ``"immersion"``;
* ``"t"``: number of corners;
* ``"corners"``: sorted corner vertices;
* ``"paths"``: a list of ``{"pair": [u, w], "edges": [...]}`` objects, at
  most one per corner pair, edges given by identity in walk order from ``u``
  to ``w``.  A corner pair with no listed path is joined by its lowest-id
  edge, so the constructor's certificates list only the paths that are not
  that edge; a certificate that lists every path is valid too;
* ``"classes"``: optionally, the colour classes the paths are confined to
  (each a list of one or two vertices).

Keys are emitted sorted so serialization is deterministic.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from functools import cache
from itertools import chain, compress, repeat
from operator import add, itemgetter, lt

from .errors import CertificateError, GraphError
from .gcpause import gc_paused
from .graphs import Multigraph, alpha_at_most_2
from .immersion import (
    Immersion,
    _faithful_immersion,
    _refine_split,
    _with_split,
    chi_alpha2,
    verify_immersion,
)

__all__ = [
    "gen_alpha2",
    "gen_multigraph",
    "gen_family",
    "parse_edge_list",
    "emit_edge_list",
    "emit_dot",
    "emit_certificate",
    "parse_certificate",
]


# -- graph generation --------------------------------------------------------


def gen_alpha2(n: int, density: float, seed: int) -> Multigraph:
    """Seeded random graph with no independent triple.

    Grows a triangle-free graph by greedy insertion — every vertex pair is
    attempted with probability ``density``, in seeded random order, and kept
    unless it closes a triangle — then returns its complement, built
    straight from the complement's adjacency rows.  ``density`` 0 gives the
    complete graph.  Edges are listed as sorted pairs (u, v), u < v.

    Pairs u < v are shuffled as the int codes ``u * n + v``; the swaps of
    ``random.shuffle`` depend only on the length, so this is the order a
    list of pair tuples would get.  One ``rng.random()`` is drawn per pair,
    in that order, whether or not the pair is kept.
    """
    if n < 1:
        raise GraphError(f"need at least one vertex, got {n}")
    rng = random.Random(seed)
    codes = [u * n + v for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(codes)
    mask = [0] * n
    for code in compress(codes, map(lt, iter(rng.random, None), repeat(density))):
        u, v = divmod(code, n)
        if mask[u] & mask[v]:
            continue  # a common neighbour would close a triangle
        mask[u] |= 1 << v
        mask[v] |= 1 << u
    full = (1 << n) - 1
    g = Multigraph._from_rows([full & ~mask[u] & ~(1 << u) for u in range(n)])
    assert alpha_at_most_2(g)
    return g


def gen_multigraph(n: int, density: float, seed: int, max_mult: int = 3) -> Multigraph:
    """Seeded random multigraph: each pair present with probability
    ``density``, carrying 1..max_mult parallel edges."""
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.extend([(u, v)] * rng.randint(1, max_mult))
    return Multigraph(n, edges)


def _complete(n):
    full = (1 << n) - 1
    return Multigraph._from_rows([full & ~(1 << u) for u in range(n)])


def _cocktail(k):
    """K_2k minus a perfect matching: u is adjacent to all but itself and u ^ 1."""
    full = (1 << 2 * k) - 1
    return Multigraph._from_rows([full & ~(3 << (u & ~1)) for u in range(2 * k)])


def _faithful_instance(k: int, seed: int) -> Multigraph:
    """A host whose optimal colouring meets the faithful-immersion premise.

    k pair classes {2i, 2i+1} over a complete core, one designated singleton
    adjacent to exactly the upper half of every class, extra singletons
    adjacent to everything.  The seed varies the singleton count and knocks
    out a triangle-free set of upper-upper edges, which forces some corner
    pairs onto the length-3 detour through the lower halves.
    """
    if k < 1:
        raise GraphError(f"need at least one pair class, got {k}")
    rng = random.Random(seed)
    extras = rng.randint(0, 2)
    n = 2 * k + 1 + extras
    removed = [0] * n
    for i in range(k):
        for j in range(i + 1, k):
            ci, cj = 2 * i + 1, 2 * j + 1
            if rng.random() < 0.4 and not removed[ci] & removed[cj]:
                removed[ci] |= 1 << cj
                removed[cj] |= 1 << ci

    edges = []
    for u in range(2 * k):
        for v in range(u + 1, 2 * k):
            if u // 2 == v // 2 or removed[u] >> v & 1:
                continue
            edges.append((u, v))
    attacher = 2 * k
    edges.extend((2 * i + 1, attacher) for i in range(k))
    for t in range(attacher + 1, n):
        edges.extend((u, t) for u in range(t))
    return Multigraph(n, edges)


_SIMPLE_FAMILIES = {
    "cycle": lambda n: Multigraph(n, [(i, (i + 1) % n) for i in range(n)]),
    "complete": _complete,
    "star": lambda s: Multigraph(s + 1, [(0, i) for i in range(1, s + 1)]),
    "cocktail": _cocktail,
}


def gen_family(name: str, params) -> Multigraph:
    """Named instance families.

    cycle n | complete n | star s | cocktail k take a single integer.
    ``doubled`` wraps another family, duplicating every edge:
    ``gen_family("doubled", ("cycle", 5))``.  ``faithful`` takes ``k`` or
    ``(k, seed)`` and builds a host graph whose optimal colouring satisfies
    the faithful-immersion premise; the instance is validated end to end
    before it is returned.  A missing, extra or non-integer parameter
    raises :class:`GraphError`.
    """
    args = tuple(params) if isinstance(params, (tuple, list)) else (params,)
    if name == "doubled":
        if not args or not isinstance(args[0], str):
            raise GraphError(f"family 'doubled' needs the family it doubles, got {list(args)}")
        return gen_family(args[0], args[1:]).doubled()
    if name not in _SIMPLE_FAMILIES and name != "faithful":
        raise GraphError(f"unknown family {name!r}")
    arity = (1, 2) if name == "faithful" else (1,)
    if len(args) not in arity or not all(type(a) is int for a in args):
        usage = "an integer k, or k and a seed" if name == "faithful" else "one integer"
        raise GraphError(f"family {name!r} takes {usage}, got {list(args)}")
    if name in _SIMPLE_FAMILIES:
        (n,) = args
        if name == "cycle" and n < 3:
            raise GraphError(f"a cycle needs at least three vertices, got {n}")
        if n < (0 if name == "complete" else 1):
            raise GraphError(f"family {name!r} got size {n}")
        return _SIMPLE_FAMILIES[name](n)
    k, seed = args if len(args) == 2 else (args[0], 0)
    g = _faithful_instance(k, seed)
    chi, col = chi_alpha2(g)  # optimal by construction: no second matching
    col = _refine_split(g, col)
    if col.detached:
        raise CertificateError(
            "generated instance has a detached class", dump={"k": k, "seed": seed}
        )
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    imm = Immersion(_faithful_immersion(g, col, set(), paths), paths)
    rep = verify_immersion(g, imm, chi, faithful_wrt=col)
    if not rep.ok:
        raise CertificateError(
            "generated instance failed its immersion check",
            dump={"k": k, "seed": seed, "failures": rep.failures},
        )
    return g


# -- edge-list text ----------------------------------------------------------

_TOKEN = re.compile(r"\S+")


def _rows(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(body)]
        if tokens:
            yield line_no, tokens


def _two_ints(line_no, tokens, what):
    if len(tokens) != 2:
        col = tokens[2][1] if len(tokens) > 2 else tokens[-1][1]
        raise GraphError(
            f"line {line_no}, column {col}: expected exactly two integers ({what})"
        )
    out = []
    for tok, col in tokens:
        if not re.fullmatch(r"[+-]?\d+", tok):
            raise GraphError(
                f"line {line_no}, column {col}: expected an integer, got {tok!r}"
            )
        out.append(int(tok))
    return out


def parse_edge_list(text: str) -> Multigraph:
    """Parse 'n m' header plus m 'u v' lines into a multigraph."""
    rows = list(_rows(text))
    if not rows:
        raise GraphError("line 1, column 1: empty input, expected an 'n m' header")
    line_no, tokens = rows[0]
    n, m = _two_ints(line_no, tokens, "header 'n m'")
    if n < 0 or m < 0:
        raise GraphError(f"line {line_no}: negative count in header {n} {m}")
    if len(rows) - 1 != m:
        where = rows[m + 1][0] if len(rows) - 1 > m else rows[-1][0]
        raise GraphError(
            f"line {where}: header promises {m} edges, input has {len(rows) - 1}"
        )
    edges = []
    for line_no, tokens in rows[1:]:
        u, v = _two_ints(line_no, tokens, "edge 'u v'")
        for x, (_, col) in zip((u, v), tokens):
            if not 0 <= x < n:
                raise GraphError(
                    f"line {line_no}, column {col}: vertex {x} outside 0..{n - 1}"
                )
        if u == v:
            raise GraphError(f"line {line_no}: loop {u} {v} is not allowed")
        edges.append((u, v))
    return Multigraph(n, edges)


def emit_edge_list(g: Multigraph) -> str:
    lines = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, hi in g.sorted_runs() for v in hi]
    return "\n".join(lines) + "\n"


def emit_dot(g: Multigraph) -> str:
    lines = [f"  {v};" for v in range(g.n) if g.degree(v) == 0]
    lines += [f"  {u} -- {v};" for u, hi in g.sorted_runs() for v in hi]
    return "graph g {\n" + "\n".join(lines) + ("\n" if lines else "") + "}\n"


# -- certificate JSON --------------------------------------------------------


def _certificate_doc(imm: Immersion) -> dict:
    doc = {
        "kind": "immersion",
        "t": len(imm.corners),
        "corners": list(imm.corners),
        "paths": [
            {"pair": list(pair), "edges": list(ids)}
            for pair, ids in sorted(imm.listed.items())
        ],
    }
    if imm.faithful_to is not None:
        doc["classes"] = [list(cls) for cls in imm.faithful_to.classes]
    return doc


def _int_list(items, pad: str) -> str:
    """A list of ints as ``json.dumps(..., indent=2)`` lays it out at indentation ``pad``."""
    if not items:
        return "[]"
    sep = ",\n  " + pad
    return "[" + sep[1:] + sep.join(map(int.__repr__, items)) + "\n" + pad + "]"


@cache
def _path_template(length: int) -> str:
    """One path entry's text for a path of ``length`` edges, a ``%d`` per number.

    Cached: a certificate has few distinct path lengths.
    """
    return (
        '    {\n      "edges": [\n'
        + ",\n".join(["        %d"] * length)
        + '\n      ],\n      "pair": [\n        %d,\n        %d\n      ]\n    }'
    )


@gc_paused
def emit_certificate(imm: Immersion) -> str:
    """The certificate as ``json.dumps(doc, sort_keys=True, indent=2)`` writes it, plus a newline.

    Only the listed paths are written; a corner pair without one is joined
    by its lowest-id edge (see the module docstring).  json's indented
    output runs its pure-Python encoder, so the text is joined here
    directly: keys sorted, two spaces per level, one number per line, with
    the paths section written by one ``%`` over the per-length entry
    templates of its paths.  A certificate this layout
    does not cover (a number that is not a plain int, a pair not of two
    corners, an empty path) is handed to json itself, so the output is the
    same either way.
    """
    paths = imm.listed
    classes = () if imm.faithful_to is None else imm.faithful_to.classes
    leaves = chain(
        imm.corners,
        chain.from_iterable(paths),
        chain.from_iterable(paths.values()),
        chain.from_iterable(classes),
    )
    if set(map(type, leaves)) - {int} or set(map(len, paths)) - {2} or not all(paths.values()):
        return json.dumps(_certificate_doc(imm), sort_keys=True, indent=2) + "\n"
    parts = ["{\n"]
    if imm.faithful_to is not None:
        listed = ",\n".join(["    " + _int_list(cls, "    ") for cls in classes])
        parts.append('  "classes": ' + ("[\n" + listed + "\n  ]" if classes else "[]") + ",\n")
    parts.append('  "corners": ' + _int_list(imm.corners, "  ") + ",\n")
    parts.append('  "kind": "immersion",\n')
    pairs = sorted(paths)
    seqs = list(map(paths.__getitem__, pairs))
    # one format over every entry: each path's edges, then its pair
    listed = ",\n".join(map(_path_template, map(len, seqs))) % tuple(
        chain.from_iterable(map(add, seqs, pairs))
    )
    parts.append('  "paths": ' + ("[\n" + listed + "\n  ]" if paths else "[]") + ",\n")
    parts.append(f'  "t": {len(imm.corners)}\n}}\n')
    return "".join(parts)


@gc_paused
def parse_certificate(g: Multigraph, text: str) -> Immersion:
    """Rebuild an immersion certificate; the graph resolves colour classes
    and is the host of its implicit paths, which are not built here.

    Every container must be a JSON list and every corner, pair entry, edge
    and class entry a plain integer (not ``true``/``false``); anything else
    raises ``GraphError``, and so does a pair listed twice.  Values are not
    judged here: a class or corner outside the graph parses, and
    ``verify_immersion`` rejects it.  A present ``classes`` field, even an
    empty one, is the faithful colouring.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"certificate is not valid JSON: {exc}") from None
    try:
        if doc["kind"] != "immersion":
            raise GraphError(f"unknown certificate kind {doc['kind']!r}")
        corners = doc["corners"]
        entries = doc["paths"]
        pairs = list(map(itemgetter("pair"), entries))
        seqs = list(map(itemgetter("edges"), entries))
        faithful = "classes" in doc
        classes = doc["classes"] if faithful else []
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed certificate: missing or bad field {exc}") from None
    containers = chain((corners, entries, classes), pairs, seqs)
    leaves = chain.from_iterable(chain((corners,), pairs, seqs, classes))
    # lazy chains: each test runs only once the containers before it are lists
    if (
        set(map(type, containers)) - {list}
        or set(map(type, classes)) - {list}
        or set(map(type, leaves)) - {int}
    ):
        raise GraphError(
            "malformed certificate: corners, pairs, edges and classes must be lists of integers"
        )
    paths = dict(zip(map(tuple, pairs), map(tuple, seqs)))
    if len(paths) < len(pairs):
        twice = next(p for p, k in Counter(map(tuple, pairs)).items() if k > 1)
        raise GraphError(f"malformed certificate: pair {list(twice)} has two paths")
    col = _with_split(g, list(map(tuple, classes))) if faithful else None
    return Immersion(tuple(corners), paths, faithful_to=col, host=g)
