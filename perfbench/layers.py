"""The per-layer split: span self times and counts -> named metrics.

Every traced run prints every metric below. A metric that a workload
does not exercise (``serve.*`` on ``table5``, say) reads 0.
"""

from __future__ import annotations

from . import stats

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("datagen.generate_s", "s"),
    ("datagen.cache_s", "s"),
    ("datagen.hit_ratio", "ratio"),
    ("datagen.lookups", "count"),
    ("datagen.bytes_written", "bytes"),
    ("graph.build_s", "s"),
    ("graph.partition_s", "s"),
    ("graph.shard_bytes", "bytes"),
    ("kernels.step_s", "s"),
    ("kernels.prepare_s", "s"),
    ("kernels.calls", "count"),
    ("kernels.edges", "count"),
    ("kernels.edges_per_s", "1/s"),
    ("frameworks.self_s", "s"),
    ("cluster.superstep_s", "s"),
    ("cluster.supersteps", "count"),
    ("harness.self_s", "s"),
    ("harness.cell_ms.p50", "ms"),
    ("harness.cell_ms.tail", "ms"),
    ("harness.journal_s", "s"),
    ("harness.pool_ms.p50", "ms"),
    ("harness.compute_ms.p50", "ms"),
    ("serve.overhead_ms.p50", "ms"),
    ("serve.registry_s", "s"),
    ("serve.admission_ms", "ms"),
    ("serve.refused", "count"),
    ("observability.overhead_pct", "%"),
    ("observability.coverage_pct", "%"),
    ("observability.unattributed_s", "s"),
    ("error_rate", "fraction"),
)

#: Span name -> the self-time metric it adds to.
SELF_TIME = {
    "datagen.generate": "datagen.generate_s",
    "datagen.cache": "datagen.cache_s",
    "graph.build": "graph.build_s",
    "graph.partition": "graph.partition_s",
    "kernels.step": "kernels.step_s",
    "kernels.prepare": "kernels.prepare_s",
    "frameworks.run": "frameworks.self_s",
    "cluster.superstep": "cluster.superstep_s",
    "cluster.account": "cluster.superstep_s",
    "harness.cell": "harness.self_s",
    "harness.journal": "harness.journal_s",
    "serve.registry": "serve.registry_s",
}


def from_recorder(recorder) -> dict:
    """The metrics one process's spans support (unset ones stay 0)."""
    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    for span_name, seconds in recorder.self_seconds().items():
        metric = SELF_TIME.get(span_name)
        if metric in metrics:
            metrics[metric] += seconds
    spans = recorder.spans
    metrics["kernels.calls"] = float(sum(
        1 for name, _s, end, parent, _r in spans
        if name == "kernels.step" and end is not None
        and (parent is None or spans[parent][0] != "kernels.step")))
    metrics["kernels.edges"] = recorder.counts.get("kernels.edges", 0.0)
    if metrics["kernels.step_s"] > 0:
        metrics["kernels.edges_per_s"] = \
            metrics["kernels.edges"] / metrics["kernels.step_s"]
    metrics["cluster.supersteps"] = float(
        len(recorder.durations("cluster.superstep")))
    lookups = recorder.counts.get("datagen.lookups", 0.0)
    metrics["datagen.lookups"] = lookups
    if lookups:
        metrics["datagen.hit_ratio"] = \
            recorder.counts.get("datagen.hits", 0.0) / lookups
    cells = recorder.durations("harness.cell")
    if cells:
        metrics["harness.cell_ms.p50"] = 1e3 * stats.median(cells)
        metrics["harness.cell_ms.tail"] = 1e3 * stats.tail(cells)[0]
    pool = list(recorder.interval_ms("harness.pool").values())
    if pool:
        metrics["harness.pool_ms.p50"] = stats.median(pool)
    admits = recorder.durations("serve.admission")
    if admits:
        metrics["serve.admission_ms"] = 1e3 * stats.median(admits)
    metrics["serve.refused"] = recorder.counts.get("serve.admission.raised", 0.0)
    return metrics


def coverage(recorder, run_s: float) -> dict:
    """How much of ``run_s`` the layers below the roots account for.

    A root span (``harness.root``: the ``table5`` or Graph500 call the
    benchmark makes) encloses everything, so its self time is whatever
    no wrapper beneath it claimed. That time is reported as
    ``observability.unattributed_s`` and left out of
    ``observability.coverage_pct``, the summed self time of every other
    span as a share of ``run_s``: a wrapper that stops binding lowers
    the coverage instead of hiding in the root.
    """
    self_s = recorder.self_seconds()
    unattributed = self_s.pop("harness.root", 0.0)
    return {"observability.coverage_pct":
            100.0 * sum(self_s.values()) / run_s,
            "observability.unattributed_s": unattributed}
