"""The benchmark's own arithmetic, tracer and a tiny run of each workload."""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, self_times  # noqa: E402
from workloads import Record, tail, throughput  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", 0.0, 10.0, None, 0),
        Span("b", 1.0, 4.0, 0, 0),
        Span("c", 5.0, 9.0, 0, 0),
        Span("d", 6.0, 7.0, 2, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


@pytest.mark.parametrize(
    "count, percentile, beyond",
    [(1000, 99.0, 10), (999, 95.0, 49), (200, 95.0, 10), (100, 90.0, 10), (20, 50.0, 10), (19, None, None)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, percentile, beyond):
    values = [float(i) for i in range(count)]
    found = tail(values)
    if percentile is None:
        assert found is None
        return
    p, value, n_beyond = found
    assert (p, n_beyond) == (percentile, beyond)
    assert sum(v > value for v in values) == beyond


def test_edges_per_s_counts_failed_time_and_no_edges():
    records = [
        Record(0, "a", 10, 100, op_s=1.0, check_s=1.0),
        Record(1, "b", 10, 300, op_s=1.5, error="RecursionError: too deep"),
        Record(2, "c", 10, 50, op_s=0.25, check_s=0.25, problems=["validate: bad"]),
    ]
    ops_per_s, edges_per_s = throughput(records)
    assert ops_per_s == pytest.approx(1 / 4)
    assert edges_per_s == pytest.approx(100 / 4)
    assert workloads.failed_share(records) == pytest.approx(2 / 3)


def test_failed_operation_misses_every_latency_limit():
    records = [Record(0, "a", 1, 1, op_s=1.0), Record(1, "b", 1, 1, op_s=0.5, error="X: y")]
    assert workloads.timings(records, "op_s") == [1.0, math.inf]


def test_tracer_restores_every_binding():
    import kchi.construct
    import kchi.factor

    before = (kchi.construct.critical_colouring, kchi.factor.bipartite_maximum_matching,
              kchi.factor._FactorSolver.__dict__["solve"])
    tracer = tracing.Tracer()
    with tracer.installed():
        assert kchi.construct.critical_colouring is not before[0]
    after = (kchi.construct.critical_colouring, kchi.factor.bipartite_maximum_matching,
             kchi.factor._FactorSolver.__dict__["solve"])
    assert after == before


TINY = {
    "immerse_dense": workloads.alpha2_pool([(12, 0.3), (13, 0.7)]),
    "stress_small": workloads.stress_pool(6, n_cap=12),
    "colour_dense": workloads.alpha2_pool([(9, 0.5)]),
    "colour_sparse": workloads.multigraph_pool(40, [3.0]),
}


def _declared():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc["end_to_end"]], [m["name"] for m in doc["per_layer"]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_of_each_workload(name, trace):
    tiny = workloads.Workload(name, workloads.WORKLOADS[name].kind, TINY[name])
    run = workloads.run_workload(tiny, seed=3, seconds=0, trace=trace)
    assert run.records and all(r.ok for r in run.records)
    end_to_end, per_layer = _declared()
    if trace:
        assert len(run.traced) == len(run.records) and all(r.ok for r in run.traced)
        metrics = workloads.per_layer(run)
        assert sorted(metrics) == sorted(per_layer)
    else:
        metrics = workloads.end_to_end(run)
        assert sorted(metrics) == sorted(end_to_end)
        assert all(math.isfinite(v) and v > 0 for v in metrics.values())
