"""Layer spans for kchi, recorded from outside the package.

A :class:`Tracer` rebinds, in every kchi module that holds it, each function
one kchi module imports from another (``kchi.construct.critical_colouring``,
``kchi.factor.bipartite_maximum_matching``, ...), plus the entry points the
benchmark itself calls and the methods of ``_FactorSolver``.  Each wrapper
records a :class:`Span` (name, start, end, parent, operation id) in memory.
Helpers called ~10⁵ times per operation (``_edge_count``, ``_take_edge``,
``has_edge``, ``_as_path``) stay unwrapped, so their time shows as their
caller's self time; ``weighted_degree`` and ``remove_copy`` are counted,
not timed.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import kchi.colouring as colouring
import kchi.construct as construct
import kchi.decorated as decorated
import kchi.factor as factor
import kchi.generators as generators
import kchi.graphs as graphs
import kchi.immersion as immersion
import kchi.matching as matching

SETUP = "setup"  # operation id of spans recorded while inputs are generated


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list
    op: int | str | None
    note: dict | None = None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest on one thread, so the children of a span are disjoint and
    their summed durations are exactly the part of it they cover.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


# (defining module, function name, span name, notes taken from args and result)
SPANNED = (
    (matching, "maximum_matching", "matching.blossom", lambda args, res: {"vertices": args[0]}),
    (matching, "bipartite_maximum_matching", "matching.bipartite", None),
    (colouring, "cycle_matching_colouring", "colouring.cm", lambda args, res: {"steps": res.palette}),
    (colouring, "validate_cm_colouring", "colouring.validate", None),
    (decorated, "critical_colouring", "decorated.critical",
     lambda args, res: {"edges": args[0].m, "tagged": bool(res.reserved or res.relief)}),
    (decorated, "validate_decorated", "decorated.validate", None),
    (immersion, "chi_alpha2", "immersion.chi", None),
    (immersion, "_optimal_colouring", "immersion.optimal_colouring", None),
    (immersion, "refine_split", "immersion.refine_split", None),
    (immersion, "faithful_immersion", "immersion.faithful", None),
    (immersion, "run_colouring_audits", "immersion.audits", None),
    (immersion, "audit_refined", "immersion.audits", None),
    (immersion, "verify_immersion", "immersion.verify", None),
    (construct, "construct_immersion", "construct.self", None),
    (construct, "build_bridge_digraph", "construct.bridge_digraph",
     lambda args, res: {"arcs": len(res.arcs)}),
    (construct, "audit_out_degree", "construct.bridge_digraph", None),
    (construct, "restrict_out_degree", "construct.bridge_digraph", None),
    (construct, "assign_bridges", "construct.assign_bridges", None),
    (graphs, "alpha_at_most_2", "graphs.alpha_check", None),
    (graphs, "components_of", "graphs.components_of", None),
    (generators, "emit_certificate", "generators.emit", lambda args, res: {"bytes": len(res.encode())}),
    (generators, "parse_certificate", "generators.parse", None),
    (generators, "gen_alpha2", "generators.gen", None),
    (generators, "gen_multigraph", "generators.gen", None),
)
SPANNED_METHODS = ((factor._FactorSolver, "solve", "factor.solve"),)
COUNTED_METHODS = (
    (factor._FactorSolver, "weighted_degree", "factor.weighted_degree"),
    (factor._FactorSolver, "remove_copy", "factor.remove_copy"),
)

# Functions a module calls through its own globals are rebound there as well,
# so intra-module calls (``_immerse`` → ``build_bridge_digraph``) are seen.
# ``_optimal_colouring`` is the exception: only construct's binding is
# traced, so its call count is the number of recursion levels.
_OWN_BINDING_SKIPPED = {(immersion, "_optimal_colouring")}


def _kchi_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "kchi" or name.startswith("kchi.")]


class Tracer:
    """Records spans and counts while installed; restores every binding after."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int | str, Counter] = defaultdict(Counter)
        self._op: int | str | None = None
        self._count = Counter()
        self._parent: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _spanned(self, fn, name, notes):
        tracer = self

        def spanned(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            spans.append(None)
            parent = tracer._parent
            tracer._parent = idx
            start = perf_counter()
            result = note = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer._parent = parent
                if notes is not None and result is not None:
                    note = notes(args, result)
                spans[idx] = Span(name, start, end, parent, tracer._op, note)

        return spanned

    def _counted(self, fn, name):
        tracer = self

        def counted(*args, **kwargs):
            tracer._count[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _bind(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        """Rebind every traced name for the duration of the block."""
        modules = _kchi_modules()
        try:
            for owner, attr, name, notes in SPANNED:
                original = getattr(owner, attr)
                wrapper = self._spanned(original, name, notes)
                for mod in modules:
                    if (mod, attr) in _OWN_BINDING_SKIPPED:
                        continue
                    if getattr(mod, attr, None) is original:
                        self._bind(mod, attr, wrapper)
            for cls, attr, name in SPANNED_METHODS:
                self._bind(cls, attr, self._spanned(getattr(cls, attr), name, None))
            for cls, attr, name in COUNTED_METHODS:
                self._bind(cls, attr, self._counted(getattr(cls, attr), name))
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    @contextmanager
    def operation(self, op_id: int | str):
        """Attribute the spans and counts recorded inside the block to ``op_id``."""
        self._op, self._count = op_id, self.counts[op_id]
        try:
            yield
        finally:
            self._op, self._count = None, Counter()


# -- per-layer metrics ---------------------------------------------------------

# span-derived metrics: (metric, unit, better); each timing is self time per
# operation, each count is per operation unless its unit says otherwise
PER_LAYER = (
    ("matching.blossom.calls", "count/op", "lower"),
    ("matching.blossom.s", "s/op", "lower"),
    ("matching.blossom.vertices", "count/op", "lower"),
    ("matching.bipartite.calls", "count/op", "lower"),
    ("matching.bipartite.s", "s/op", "lower"),
    ("factor.solve.calls", "count/op", "lower"),
    ("factor.solve.s", "s/op", "lower"),
    ("factor.weighted_degree.calls", "count/op", "lower"),
    ("factor.remove_copy.calls", "count/op", "lower"),
    ("colouring.cm.s", "s/op", "lower"),
    ("colouring.steps", "count/op", "lower"),
    ("colouring.validate.s", "s/op", "lower"),
    ("decorated.critical.calls", "count/op", "lower"),
    ("decorated.critical.s", "s/op", "lower"),
    ("decorated.conflict_edges", "count/op", "lower"),
    ("decorated.nonempty_share", "share", "lower"),
    ("decorated.validate.s", "s/op", "lower"),
    ("immersion.chi.s", "s/op", "lower"),
    ("immersion.optimal_colouring.calls", "count/op", "lower"),
    ("immersion.optimal_colouring.s", "s/op", "lower"),
    ("immersion.refine_split.calls", "count/op", "lower"),
    ("immersion.refine_split.s", "s/op", "lower"),
    ("immersion.faithful.calls", "count/op", "lower"),
    ("immersion.faithful.s", "s/op", "lower"),
    ("immersion.audits.s", "s/op", "lower"),
    ("immersion.verify.calls", "count/op", "lower"),
    ("immersion.verify.s", "s/op", "lower"),
    ("construct.self.s", "s/op", "lower"),
    ("construct.bridge_digraph.s", "s/op", "lower"),
    ("construct.arcs", "count/op", "lower"),
    ("construct.assign_bridges.s", "s/op", "lower"),
    ("graphs.alpha_check.calls", "count/op", "lower"),
    ("graphs.alpha_check.s", "s/op", "lower"),
    ("graphs.components_of.s", "s/op", "lower"),
    ("generators.emit.s", "s/op", "lower"),
    ("generators.parse.s", "s/op", "lower"),
    ("generators.cert_bytes", "bytes/op", "lower"),
    ("generators.gen.s", "s/setup", "lower"),
    ("shape.singletons", "count/op", "higher"),
    ("shape.attached", "count/op", "higher"),
    ("shape.conflict_nonempty", "count/op", "higher"),
    ("shape.reserve_relief", "count/op", "higher"),
    ("trace.overhead_share", "share", "lower"),
)

_NOTE_METRICS = {
    "matching.blossom.vertices": ("matching.blossom", "vertices"),
    "colouring.steps": ("colouring.cm", "steps"),
    "decorated.conflict_edges": ("decorated.critical", "edges"),
    "construct.arcs": ("construct.bridge_digraph", "arcs"),
    "generators.cert_bytes": ("generators.emit", "bytes"),
}


def layer_metrics(tracer: Tracer, ops: list[int], setups: int) -> dict[str, float]:
    """Per-layer figures of the traced operations ``ops`` (means per op).

    ``generators.gen.s`` is the exception: it is the time spent in the
    generators per set-up, span time including the α-check they run, since
    set-up has no operation to attribute it to.  Shape and overhead metrics
    are filled in by the caller, which holds the checks' results.
    """
    traced = set(ops)
    per_op = max(len(traced), 1)
    own = self_times(tracer.spans)
    secs: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    notes: dict[tuple[str, str], float] = defaultdict(float)
    gen_s = 0.0
    critical = nonempty = tagged = 0
    for span, t in zip(tracer.spans, own):
        if span.op == SETUP:
            if span.name == "generators.gen":
                gen_s += span.end - span.start
            continue
        if span.op not in traced:
            continue
        secs[span.name] += t
        calls[span.name] += 1
        for key, value in (span.note or {}).items():
            notes[(span.name, key)] += value
        if span.name == "decorated.critical" and span.note:
            critical += 1
            nonempty += span.note["edges"] > 0
            tagged += span.note["tagged"]
    counted: Counter = Counter()
    for op in traced:
        counted.update(tracer.counts.get(op, {}))

    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if name in _NOTE_METRICS:
            out[name] = notes[_NOTE_METRICS[name]] / per_op
        elif field == "s":
            out[name] = secs[layer] / per_op
        elif field == "calls":
            out[name] = (calls[layer] + counted[layer]) / per_op
    out["generators.gen.s"] = gen_s / max(setups, 1)
    out["decorated.nonempty_share"] = nonempty / critical if critical else 0.0
    out["shape.conflict_nonempty"] = nonempty / per_op
    out["shape.reserve_relief"] = tagged / per_op
    return out


def _nearest_traced_ancestor(spans: list[Span], i: int, names: set[str]) -> str | None:
    p = spans[i].parent
    while p is not None:
        if spans[p].name in names:
            return spans[p].name
        p = spans[p].parent
    return None


def blossom_calls_by_caller(tracer: Tracer, ops: list[int]) -> dict[int, Counter]:
    """Per operation, blossom matchings inside ``construct_immersion`` by caller layer."""
    callers = {
        "immersion.chi",
        "immersion.optimal_colouring",
        "immersion.refine_split",
        "immersion.faithful",
    }
    traced = set(ops)
    out: dict[int, Counter] = {op: Counter() for op in ops}
    for i, span in enumerate(tracer.spans):
        if span.name != "matching.blossom" or span.op not in traced:
            continue
        if _nearest_traced_ancestor(tracer.spans, i, {"construct.self"}) is None:
            continue
        out[span.op][_nearest_traced_ancestor(tracer.spans, i, callers) or "other"] += 1
    return out


def colouring_shares(tracer: Tracer, ops: list[int]) -> dict[str, float]:
    """Shares of ``cycle_matching_colouring``'s span time taken by its layers."""
    traced = set(ops)
    own = self_times(tracer.spans)
    by_layer: dict[str, float] = defaultdict(float)
    for i, span in enumerate(tracer.spans):
        if span.op in traced and (
            span.name == "colouring.cm" or _nearest_traced_ancestor(tracer.spans, i, {"colouring.cm"})
        ):
            by_layer[span.name] += own[i]
    total = sum(by_layer.values())
    return {name: t / total for name, t in by_layer.items()} if total else {}
