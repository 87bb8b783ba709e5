"""Benchmark of kchi: certify/replay and colouring, end to end and per layer.

Run from the root of a checkout; it imports kchi from ``src/`` there::

    python3 bench/run.py --workload immerse_dense --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracing.py``) with the tracing overhead.
The report goes to standard output, its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the environment and every failure, is written to
``bench/out/<workload>-seed<seed>-trace<t>.json``; a traced run also writes
its spans beside it.  BENCHMARK.json lists the workloads and metrics the
benchmark is judged on.  ``colour_sparse`` (n = 10⁴) runs the same way but
is not listed there: at present every one of its operations fails with a
``RecursionError`` in the recursive bipartite matching.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def _import_kchi() -> None:
    """Import kchi from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "kchi" / "__init__.py").is_file():
        raise SystemExit(f"bench: no kchi sources at {src / 'kchi'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import kchi

    if Path(kchi.__file__).resolve().parent != (src / "kchi").resolve():
        raise SystemExit(f"bench: imported kchi from {kchi.__file__}, not from {src}")


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "recursion_limit": sys.getrecursionlimit(),
        "commit": commit,
        "seed": seed,
        "platform": platform.platform(),
    }


def _json_number(value: float):
    return value if math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_kchi()
    import report
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    run = workloads.run_workload(workload, args.seed, args.seconds, bool(args.trace))

    if args.trace:
        metrics = workloads.per_layer(run)
        units = {n: u for n, u, _ in tracing.PER_LAYER}
        judged = run.traced
        lines = report.per_layer(run, metrics, workload.kind)
    else:
        metrics = workloads.end_to_end(run)
        units = {n: u for n, u, _ in workloads.END_TO_END}
        judged = run.records
        lines = report.end_to_end(run, metrics, workload.kind)

    failures = [
        {"workload": run.workload, "seed": run.seed, "op": r.index, "input": r.label,
         "error": r.error, "problems": r.problems}
        for r in judged if not r.ok
    ]
    print(f"kchi benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    for f in failures[:5]:
        print(f"failure: op {f['op']} ({f['input']}): {f['error'] or '; '.join(f['problems'])}")
    if len(failures) > 5:
        print(f"failure: ... {len(failures) - 5} more in the result file")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "env": env,
        "workload": args.workload,
        "seconds": args.seconds,
        "setup_s": run.setup_s,
        "metrics": {k: _json_number(v) for k, v in metrics.items()},
        "failures": failures,
        "operations": [
            {"op": r.index, "input": r.label, "n": r.n, "m": r.m, "op_s": r.op_s,
             "check_s": r.check_s, "ok": r.ok}
            for r in judged
        ],
    }, indent=1) + "\n")
    if args.trace:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for s in run.tracer.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.note]) + "\n")

    print(json.dumps({
        "correct": not any(r.problems for r in run.records + run.traced),
        "attempted": len(judged),
        "failed": len(failures),
        "metrics": {k: {"value": _json_number(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
