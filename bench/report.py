"""Human-readable report lines of a benchmark run.

End-to-end figures are printed under the names a kchi user knows them by
(``cert_s``, ``verify_s``, ``certs_per_s`` for certify/replay workloads,
``colour_s`` for colouring ones), beside the generic names BENCHMARK.json
judges.  The traced report sets its figures beside ROADMAP.md's.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter

import tracing
import workloads

ROADMAP_BLOSSOM_CALLS = "48 at n=300 (chi 1, _immerse 25, refine_split 12, faithful 10)"
ROADMAP_COLOUR_SHARES = "cProfile at n=160: try_augment 54%, weighted_degree 34%"
MAX_LISTED_INPUTS = 8


def fmt(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.6g}"


def _line(name: str, value, unit: str, note: str = "") -> str:
    shown = value if isinstance(value, str) else fmt(value)
    return f"  {name:<34} {shown:>12} {unit:<8} {note}".rstrip()


def _tail_line(name: str, values: list[float], unit: str) -> str:
    found = workloads.tail(values)
    if found is None:
        return _line(name, "n/a", unit, f"({len(values)} samples; a tail needs >= 20)")
    p, value, beyond = found
    return _line(name, value, unit, f"(p{p:g} of {len(values)} samples, {beyond} beyond)")


def _grouped(records, values):
    """Values by input label, or all together when there are many inputs."""
    few = len({r.label for r in records}) <= MAX_LISTED_INPUTS
    out: dict[str, list] = {}
    for r, v in zip(records, values):
        out.setdefault(r.label if few else "all inputs", []).append(v)
    return out


def end_to_end(run: workloads.Run, metrics: dict, kind: str) -> list[str]:
    recs = run.records
    op = workloads.timings(recs, "op_s")
    check = workloads.timings(recs, "check_s")
    units = {n: u for n, u, _ in workloads.END_TO_END}
    lines = [f"end-to-end ({kind}; {len(recs)} operations over {len({r.label for r in recs})} inputs):"]
    if kind == "colour":
        colour = [a + b for a, b in zip(op, check)]
        lines += [
            _line("colour_s.p50", statistics.median(colour), "s", "colour + validate"),
            _tail_line("colour_s.tail", colour, "s"),
        ]
    else:
        lines += [
            _line("cert_s.p50", metrics["op_s.p50"], "s", "= op_s.p50"),
            _tail_line("cert_s.tail", op, "s"),
            _line("verify_s.p50", metrics["check_s.p50"], "s", "= check_s.p50"),
            _line("certs_per_s", metrics["ops_per_s"], "1/s", "= ops_per_s"),
        ]
    lines.append(_line("failed_share", workloads.failed_share(recs), "share"))
    lines += [_line(name, value, units[name]) for name, value in metrics.items()]
    lines += [
        f"  op_s.p50 of {label}: {fmt(statistics.median(ts))} s"
        for label, ts in _grouped(recs, op).items()
    ]
    ok = [r for r in recs if r.ok]
    if kind != "colour" and ok:
        lines.append(
            "  shape per op (chi_alpha2 colouring): singletons %.4g, attached classes %.4g"
            % tuple(sum(r.shape[k] for r in ok) / len(ok) for k in ("singletons", "attached"))
        )
    return lines


def per_layer(run: workloads.Run, metrics: dict, kind: str) -> list[str]:
    ops = [r.index for r in run.traced]
    units = {n: u for n, u, _ in tracing.PER_LAYER}
    lines = [f"per layer ({len(ops)} traced operations; self time per op):"]
    lines += [_line(name, value, units[name]) for name, value in metrics.items()]
    lines.append(
        _line("failed_share (traced)", workloads.failed_share(run.traced), "share",
              f"untraced: {fmt(workloads.failed_share(run.records))}")
    )
    if kind == "colour":
        shares = tracing.colouring_shares(run.tracer, ops)
        lines.append(f"  shares of cycle_matching_colouring time ({ROADMAP_COLOUR_SHARES}):")
        lines.append("    " + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        lines.append("    weighted_degree is counted, not timed: its time is in colouring.cm's self share")
        return lines
    by_caller = tracing.blossom_calls_by_caller(run.tracer, ops)
    lines.append(f"  blossom calls per construct_immersion (ROADMAP: {ROADMAP_BLOSSOM_CALLS}):")
    for label, counters in _grouped(run.traced, [by_caller[r.index] for r in run.traced]).items():
        mean = Counter()
        for c in counters:
            mean.update({caller: k / len(counters) for caller, k in c.items()})
        parts = ", ".join(f"{caller.split('.')[-1]} {k:.3g}" for caller, k in sorted(mean.items()))
        lines.append(f"    {label}: {sum(mean.values()):.4g} ({parts})")
    return lines
