"""Workloads, checked operations and end-to-end metrics of the kchi benchmark.

Every workload is a pool of graphs generated from the seed (the set-up),
then whole passes over the pool until the run's seconds are spent.  Load
comes from this one process, one operation at a time (a closed loop with a
single client), so the numbers measure kchi and not a scheduler.  Each
operation has two timed steps and every output is checked:

* ``immerse``: certify (``construct_immersion`` + ``emit_certificate``,
  the wait of a ``kchi immerse`` user), then replay the certificate
  (``parse_certificate``, ``chi_alpha2``, ``verify_immersion``, the wait
  of a ``kchi verify`` user); the replay must pass and the corner count
  must equal χ.
* ``stress``: the library calls of one ``kchi stress`` case:
  ``construct_immersion``, then ``chi_alpha2`` + ``verify_immersion``;
  graphs with n ≤ 10 are also compared with ``brute_chi`` (untimed).
* ``colour``: ``cycle_matching_colouring``, then ``validate_cm_colouring``;
  the colouring must validate, use at most Δ colours and have no even
  cycle.

An exception or a failed check fails the operation; it is recorded and
never retried.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import kchi.colouring as colouring
import kchi.construct as construct
import kchi.generators as generators
import kchi.immersion as immersion
import kchi.oracles as oracles
from kchi.graphs import Multigraph

import tracing

SETUP_REPEATS = (3, 15)  # at least, at most
SETUP_SECONDS = 3.0  # repeat cheap set-ups until this much time is spent
ORACLE_MAX_N = 10
STRESS_N_CAP = 40


@dataclass(frozen=True)
class Input:
    label: str
    graph: Multigraph


@dataclass(frozen=True)
class Kind:
    produce: Callable  # graph -> product
    check: Callable  # (graph, product) -> (problems, shape)
    oracle: Callable | None = None  # untimed extra check: (graph, product) -> problems


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    make_inputs: Callable[[int], list[Input]]


@dataclass
class Record:
    """One attempted operation: timings, outcome and the shape it showed."""

    index: int
    label: str
    n: int
    m: int
    op_s: float = 0.0
    check_s: float = 0.0
    error: str | None = None  # "ExceptionType: message" when a step raised
    problems: list[str] = field(default_factory=list)  # failed checks
    shape: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


# -- operations ------------------------------------------------------------------


def _certify(g: Multigraph) -> str:
    return generators.emit_certificate(construct.construct_immersion(g))


def _replay(g: Multigraph, text: str):
    imm = generators.parse_certificate(g, text)
    return _verified(g, imm)


def _verified(g: Multigraph, imm) -> tuple[list[str], dict]:
    chi, col = immersion.chi_alpha2(g)
    report = immersion.verify_immersion(g, imm, chi)
    problems = [f"replay: {f}" for f in report.failures[:3]]
    if len(imm.corners) != chi:
        problems.append(f"{len(imm.corners)} corners for chi = {chi}")
    return problems, {"singletons": len(col.singletons), "attached": len(col.attached)}


def _brute_chi_agrees(g: Multigraph, imm) -> list[str]:
    if g.n > ORACLE_MAX_N:
        return []
    chi = oracles.brute_chi(g)
    return [] if chi == len(imm.corners) else [f"brute_chi = {chi}, corners = {len(imm.corners)}"]


def _validate(g: Multigraph, col) -> tuple[list[str], dict]:
    report = colouring.validate_cm_colouring(g, col)
    problems = [f"validate: {f}" for f in report.failures[:3]]
    if col.palette > g.max_degree():
        problems.append(f"palette {col.palette} exceeds max degree {g.max_degree()}")
    if report.details.get("even_cycles"):
        problems.append(f"{len(report.details['even_cycles'])} even cycles")
    return problems, {}


# The operations look library functions up at call time, so the traced run's
# rebinding reaches the benchmark's own calls too.
def _construct(g: Multigraph):
    return construct.construct_immersion(g)


def _colour(g: Multigraph):
    return colouring.cycle_matching_colouring(g)


KINDS = {
    "immerse": Kind(_certify, _replay),
    "stress": Kind(_construct, _verified, _brute_chi_agrees),
    "colour": Kind(_colour, _validate),
}


# -- inputs ----------------------------------------------------------------------


def alpha2_pool(specs: list[tuple[int, float]]) -> Callable[[int], list[Input]]:
    """``gen_alpha2`` graphs of the given (n, density), seeded per run."""

    def make(seed: int) -> list[Input]:
        rng = random.Random(seed)
        seeds = [rng.randrange(2**32) for _ in specs]
        return [
            Input(f"n={n} d={d} seed={s}", generators.gen_alpha2(n, d, s))
            for (n, d), s in zip(specs, seeds)
        ]

    return make


def stress_pool(count: int, n_cap: int = STRESS_N_CAP) -> Callable[[int], list[Input]]:
    """``kchi stress`` cases with n ≤ ``n_cap``, density drawn per case.

    ``kchi stress`` also draws n at random; here every n in 1..n_cap is
    equally frequent, since the median of a run would otherwise jump with
    the median n drawn (one vertex more costs ~15% at n ≈ 20).
    """

    def make(seed: int) -> list[Input]:
        rng = random.Random(seed)
        out = []
        for i in range(count):
            n, d, graph_seed = 1 + i % n_cap, rng.random(), rng.randrange(2**32)
            out.append(Input(f"n={n} d={d:.4f} seed={graph_seed}", generators.gen_alpha2(n, d, graph_seed)))
        return out

    return make


def multigraph_pool(n: int, degrees: list[float], max_mult: int = 3) -> Callable[[int], list[Input]]:
    """``gen_multigraph`` graphs with the given average degrees."""

    def make(seed: int) -> list[Input]:
        rng = random.Random(seed)
        seeds = [rng.randrange(2**32) for _ in degrees]
        mean_mult = (1 + max_mult) / 2
        return [
            Input(
                f"n={n} deg~{deg} seed={s}",
                generators.gen_multigraph(n, deg / (mean_mult * (n - 1)), s, max_mult),
            )
            for deg, s in zip(degrees, seeds)
        ]

    return make


# Why each workload exists is recorded in BENCHMARK.json.  immerse_dense stops
# at n = 601: one n = 1000 construction (+ 3.8 s to generate) would leave a
# run too few operations for a steady median.  Densities are fixed per slot so
# that only the graphs, not their mix, change with the seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("immerse_dense", "immerse", alpha2_pool([(300, 0.2), (401, 0.4), (500, 0.6), (601, 0.8)])),
        Workload("stress_small", "stress", stress_pool(1000)),
        Workload("colour_dense", "colour", alpha2_pool([(158, 0.2), (159, 0.4), (160, 0.6), (161, 0.8)])),
        Workload("colour_sparse", "colour", multigraph_pool(10_000, [6.0, 12.0])),
    )
}


# -- running ---------------------------------------------------------------------


def attempt(kind: Kind, index: int, inp: Input) -> Record:
    g = inp.graph
    rec = Record(index, inp.label, g.n, g.m)
    t0 = perf_counter()
    try:
        product = kind.produce(g)
    except Exception as exc:  # any fault is a failed operation, recorded as such
        rec.op_s = perf_counter() - t0
        rec.error = f"{type(exc).__name__}: {exc}"[:300]
        return rec
    t1 = perf_counter()
    rec.op_s = t1 - t0
    try:
        rec.problems, rec.shape = kind.check(g, product)
    except Exception as exc:
        rec.check_s = perf_counter() - t1
        rec.error = f"{type(exc).__name__}: {exc}"[:300]
        return rec
    rec.check_s = perf_counter() - t1
    if kind.oracle is not None:
        rec.problems += kind.oracle(g, product)
    return rec


@dataclass
class Run:
    workload: str
    seed: int
    records: list[Record]
    setup_s: list[float]
    peak_rss_mb: float
    traced: list[Record] = field(default_factory=list)
    tracer: tracing.Tracer | None = None


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> Run:
    """Set up repeatedly (see ``SETUP_REPEATS``), then run whole passes for ``seconds``.

    With ``trace``, every input runs untraced and traced back to back, the
    order alternating per operation, so the two share inputs and the
    difference is the tracing overhead.
    """
    kind = KINDS[workload.kind]
    tracer = tracing.Tracer() if trace else None
    setup_s = []
    pool: list[Input] = []
    least, most = SETUP_REPEATS
    while len(setup_s) < least or (sum(setup_s) < SETUP_SECONDS and len(setup_s) < most):
        pool = []  # every set-up starts from the same heap
        gc.collect()
        t0 = perf_counter()
        if tracer is None:
            pool = workload.make_inputs(seed)
        else:
            with tracer.installed(), tracer.operation(tracing.SETUP):
                pool = workload.make_inputs(seed)
        setup_s.append(perf_counter() - t0)
    # The pool is an artefact of the benchmark (a kchi command holds one
    # graph): keep the collector from walking it during the operations.
    gc.collect()
    gc.freeze()
    try:
        records, traced = _passes(kind, pool, seconds, tracer)
    finally:
        gc.unfreeze()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return Run(workload.name, seed, records, setup_s, peak, traced, tracer)


def _passes(kind: Kind, pool: list[Input], seconds: float, tracer: tracing.Tracer | None):
    records: list[Record] = []
    traced: list[Record] = []
    start = perf_counter()
    while not records or perf_counter() - start < seconds:
        for inp in pool:
            index = len(records)
            if tracer is None:
                records.append(attempt(kind, index, inp))
                continue
            for traced_now in ((False, True) if index % 2 == 0 else (True, False)):
                if traced_now:
                    with tracer.installed(), tracer.operation(index):
                        traced.append(attempt(kind, index, inp))
                else:
                    records.append(attempt(kind, index, inp))
    return records, traced


# -- arithmetic ------------------------------------------------------------------

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(len(ordered) * p / 100), 1) - 1]


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, samples beyond it) for the highest percentile of
    ``TAIL_PERCENTILES`` with at least ``TAIL_BEYOND`` samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        beyond = n - math.ceil(n * p / 100)
        if beyond >= TAIL_BEYOND:
            return p, nearest_rank(values, p), beyond
    return None


def timings(records: list[Record], step: str) -> list[float]:
    # a failed operation misses any latency limit
    return [getattr(r, step) if r.ok else math.inf for r in records]


def throughput(records: list[Record]) -> tuple[float, float]:
    """(verified operations, validated edges) per second of operation wall time.

    A failed attempt counts its time, and neither an operation nor edges.
    """
    busy = sum(r.op_s + r.check_s for r in records)
    done = [r for r in records if r.ok]
    return len(done) / busy, sum(r.m for r in done) / busy


END_TO_END = (
    ("op_s.p50", "s", "lower"),
    ("check_s.p50", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("edges_per_s", "edges/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)


def end_to_end(run: Run) -> dict[str, float]:
    ops_per_s, edges_per_s = throughput(run.records)
    return {
        "op_s.p50": statistics.median(timings(run.records, "op_s")),
        "check_s.p50": statistics.median(timings(run.records, "check_s")),
        "ops_per_s": ops_per_s,
        "edges_per_s": edges_per_s,
        "peak_rss_mb": run.peak_rss_mb,
        "setup_s": statistics.median(run.setup_s),
    }


def failed_share(records: list[Record]) -> float:
    return sum(not r.ok for r in records) / len(records)


def per_layer(run: Run) -> dict[str, float]:
    ops = [r.index for r in run.traced]
    out = tracing.layer_metrics(run.tracer, ops, len(run.setup_s))
    ok = [r for r in run.traced if r.ok]
    for key in ("singletons", "attached"):
        out[f"shape.{key}"] = sum(r.shape.get(key, 0) for r in ok) / max(len(ok), 1)
    traced_s = sum(r.op_s + r.check_s for r in run.traced)
    plain_s = sum(r.op_s + r.check_s for r in run.records)
    out["trace.overhead_share"] = traced_s / plain_s - 1
    return out
