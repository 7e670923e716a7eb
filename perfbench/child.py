"""One measured process of the ``table5`` or ``outofcore`` workload.

Run as ``python3 -m perfbench.child <workload> ...`` from the checkout
root with ``src`` on ``PYTHONPATH`` and ``REPRO_CACHE_DIR`` pointing at
a fresh benchmark-owned cache. The child imports and prepares its
inputs, prints ``READY`` (the parent's clock reads set-up time from
launch to that line), runs the timed phase, then prints one JSON line
with its measurements. ``--setup-only`` exits after ``READY``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import layers, spans

#: sha256 of the canonical JSON of the table5 payload and every cell's
#: status, from a serial journaled sweep of the 180 cells.
TABLE5_DIGEST = "c476a5554ec7f001bcd02b31bad75b11af8aa69c2500ad5a8d043f0d7567d597"

#: The out-of-core Graph500 run: R-MAT scale and edge factor, shard
#: working-set budget and search keys.
OOC_SCALE = 17
OOC_EDGE_FACTOR = 16
OOC_BUDGET_MB = 64
OOC_ROOTS = 8

_clock = time.perf_counter


def _ready() -> None:
    print("READY", flush=True)


def _reset_peak_rss() -> None:
    """Rewind VmHWM to the current resident set, so the peak read
    after the timed phase is that phase's, not set-up's."""
    from repro.observability import reset_peak_rss

    if not reset_peak_rss():
        raise RuntimeError("cannot reset the peak RSS counter")


def _peak_rss_mb() -> float:
    from repro.observability import peak_rss_bytes

    return peak_rss_bytes() / 2**20


def table5_digest(data, result) -> str:
    """Digest of the table payload plus every cell's status."""
    payload = {"table": data,
               "statuses": {"/".join(str(record.key[k])
                                     for k in sorted(record.key)):
                            record.status for record in result}}
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_table5(args, recorder: spans.Recorder) -> dict:
    from repro.harness import sweep, tables
    from repro.harness.datasets import clear_proxy_caches

    # Set-up: fill the benchmark's empty dataset cache with every
    # table5 input, then drop the in-process memo so the sweep reads
    # the cache as ``repro sweep table5`` does in a fresh process.
    for algorithm, names in tables.SINGLE_NODE_DATASETS.items():
        for name in names:
            tables._single_node_dataset(algorithm, name)
    clear_proxy_caches()
    _ready()
    if args.setup_only:
        return {}
    setup_bytes = _cache_bytes()

    patches = spans.install(recorder) if args.trace else spans.Patches()
    if not args.trace:
        patches.function(recorder, "harness.cell", sweep, "execute_cell")
    run_s, digests, failed, attempted = [], set(), 0, 0
    _reset_peak_rss()
    started = _clock()
    while not run_s or _clock() - started + run_s[-1] <= args.seconds:
        clear_proxy_caches()
        engine = sweep.Sweep(
            "table5", journal=f"{args.work}/table5-{len(run_s)}.jsonl")
        t0 = _clock()
        data = tables.table5(sweep=engine)
        run_s.append(_clock() - t0)
        digests.add(table5_digest(data, engine.last))
        statuses = [record.status for record in engine.last]
        attempted += len(statuses)
        failed += sum(status in ("failed", "crashed") for status in statuses)
    peak = _peak_rss_mb()
    patches.remove()
    return {"run_s": run_s, "op_s": recorder.durations("harness.cell"),
            "setup_bytes": setup_bytes, "peak_rss_mb": peak,
            "attempted": attempted, "failed": failed,
            "correct": digests == {TABLE5_DIGEST},
            "digests": sorted(digests)}


def run_outofcore(args, recorder: spans.Recorder) -> dict:
    from repro import datagen
    from repro.graph import graph_digests
    from repro.harness import graph500, runner

    _ready()
    if args.setup_only:
        return {}
    setup_bytes = _cache_bytes()
    patches = spans.install(recorder) if args.trace else spans.Patches()
    if not args.trace:
        patches.function(recorder, "frameworks.run", runner, "run")
    _reset_peak_rss()
    # Called through their modules, so that the traced run's wrappers
    # (rebound after these imports) are the functions called.
    t0 = _clock()
    graph = datagen.rmat_graph_sharded(
        OOC_SCALE, edge_factor=OOC_EDGE_FACTOR, seed=args.seed,
        directed=False, memory_budget_mb=OOC_BUDGET_MB)
    result = graph500.graph500_protocol(graph, scale=OOC_SCALE,
                                        framework="native",
                                        num_roots=OOC_ROOTS, streamed=True)
    run_s = _clock() - t0
    peak = _peak_rss_mb()
    patches.remove()
    shard_bytes = _tree_bytes(graph.root)

    # Outside the timed region: the streamed build must be the dense
    # in-memory build, partition for partition.
    correct = result.all_valid
    if args.check:
        dense = datagen.rmat_graph.__wrapped__(
            OOC_SCALE, OOC_EDGE_FACTOR, seed=args.seed, directed=False)
        correct = correct and graph.digests() == graph_digests(
            dense, graph.num_partitions)
    bfs = recorder.durations("frameworks.run")
    return {"run_s": [run_s], "op_s": bfs, "setup_bytes": setup_bytes,
            "peak_rss_mb": peak, "attempted": result.num_roots,
            "failed": 0 if result.all_valid else result.num_roots,
            "correct": bool(correct), "shard_bytes": shard_bytes}


def _cache_bytes() -> int:
    from repro.datagen.cache import cache_root

    return _tree_bytes(cache_root())


def _tree_bytes(root) -> int:
    return sum(path.stat().st_size for path in Path(root).rglob("*")
               if path.is_file())


WORKLOADS = {"table5": run_table5, "outofcore": run_outofcore}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--check", action="store_true",
                        help="also run the workload's slow correctness "
                             "check (outside the timed region)")
    parser.add_argument("--delay", action="append", default=[],
                        metavar="SPAN=SECONDS",
                        help="with --trace 1, sleep inside every span of "
                             "that name (the attribution self-test)")
    parser.add_argument("--spans-out",
                        help="with --trace 1, write the spans here")
    args = parser.parse_args(argv)
    delays = {name: float(seconds) for name, seconds
              in (item.split("=") for item in args.delay)}
    recorder = spans.Recorder(delays=delays)
    report = WORKLOADS[args.workload](args, recorder)
    if args.setup_only:
        return 0
    if args.trace:
        report["layers"] = layers.from_recorder(recorder)
        # The cache was empty at launch, so whatever it holds beyond
        # the set-up's entries was written by the timed phase.
        report["layers"]["datagen.bytes_written"] = \
            _cache_bytes() - report.pop("setup_bytes")
        report["layers"]["graph.shard_bytes"] = report.get("shard_bytes", 0)
        report["layers"].update(layers.coverage(
            recorder, sum(report["run_s"])))
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as handle:
                json.dump(recorder.to_dict(), handle)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
