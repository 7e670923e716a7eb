"""The repository's wall-clock benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table5 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer split.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report (machine fingerprint included). Everything the
run writes lives under ``.perfbench_work/`` in the checkout and is
removed when it ends, except a traced run's spans, which are kept in
``.perfbench_traces/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path.cwd()), str(Path.cwd() / "src")]

from perfbench import fingerprint, layers, stats  # noqa: E402
from perfbench.common import (  # noqa: E402
    ROOT, BenchError, child_env, fresh_dir, trace_path)

WORKLOADS = ("table5", "serve", "outofcore")

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("max_rate_per_s", "1/s"),
)

#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 3

#: Extra environment per workload. glibc raises its mmap threshold each
#: time a large mapped block is freed; afterwards freed arrays may stay
#: in the heap, and the out-of-core VmHWM of identical runs lands on one
#: of two levels (155 or 186 MB). That workload exists to show bounded
#: memory, so it pins the threshold at glibc's initial 128 KiB and its
#: peak measures live memory (at ~1 s more system time per run). The
#: other workloads keep the allocator's defaults: pinning slows serving
#: by a third.
WORKLOAD_ENV = {"outofcore": {"MALLOC_MMAP_THRESHOLD_": "131072"}}

_clock = time.perf_counter


def run_child(workload, work, seed, seconds, trace, *, setup_only=False,
              check=False, extra=()):
    """One measured child process; returns ``(setup_s, report)``."""
    child_work = fresh_dir(work, "child")
    cache = child_work / "cache"
    command = [sys.executable, "-m", "perfbench.child", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--work", str(child_work), "--trace", str(trace)]
    if setup_only:
        command.append("--setup-only")
    if check:
        command.append("--check")
    command += list(extra)
    started = _clock()
    env = {**child_env(cache), **WORKLOAD_ENV.get(workload, {})}
    proc = subprocess.Popen(command, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = _clock() - started
        output = proc.stdout.read()
        code = proc.wait(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"{workload} child exited {code}")
    shutil.rmtree(child_work, ignore_errors=True)
    if setup_only:
        return setup_s, {}
    return setup_s, json.loads(output.strip().splitlines()[-1])


def _batch_reports(workload, work, seed, seconds, trace):
    """Full children until ``seconds`` of timed work, then set-up-only
    children until :data:`SETUP_SAMPLES` set-ups were measured."""
    setups, reports = [], []
    timed = 0.0
    while not reports or (workload == "outofcore" and timed < seconds):
        setup_s, report = run_child(workload, work, seed, seconds, trace,
                                    check=not reports)
        setups.append(setup_s)
        reports.append(report)
        timed += sum(report["run_s"])
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, work, seed, seconds, trace,
                                setup_only=True)[0])
    return setups, reports


def batch_workload(workload, work, seed, seconds):
    """End-to-end metrics of ``table5`` or ``outofcore``."""
    setups, reports = _batch_reports(workload, work, seed, seconds, 0)
    run_s = [value for report in reports for value in report["run_s"]]
    op_s = [value for report in reports for value in report["op_s"]]
    tail_s, tail_pct, beyond = stats.tail(op_s)
    metrics = {
        "setup_s": stats.median(setups),
        "run_s": stats.median(run_s),
        "peak_rss_mb": stats.median([r["peak_rss_mb"] for r in reports]),
        "p50_ms": 1e3 * stats.median(op_s),
        "tail_ms": 1e3 * tail_s,
        "max_rate_per_s": len(op_s) / sum(op_s),
    }
    operations = "cells" if workload == "table5" else "BFS roots"
    notes = [f"{len(run_s)} timed run(s): run_s {fmt_list(run_s)}",
             f"set-ups: {fmt_list(setups)}",
             f"{len(op_s)} {operations}; tail is p{tail_pct:.1f} with "
             f"{beyond} samples beyond"]
    return _result(reports, metrics), notes


def batch_traced(workload, work, seed, seconds):
    """Per-layer metrics of ``table5`` or ``outofcore``: one untraced
    child for the overhead baseline, then one traced child."""
    _setup, plain = run_child(workload, work, seed, seconds, 0, check=True)
    _setup, traced = run_child(
        workload, work, seed, seconds, 1,
        extra=["--spans-out", str(trace_path(workload, seed))])
    metrics = dict(traced["layers"])
    metrics["observability.overhead_pct"] = 100.0 * (
        stats.median(traced["run_s"]) / stats.median(plain["run_s"]) - 1)
    result = _result([plain, traced], metrics)
    metrics["error_rate"] = result["failed"] / result["attempted"]
    notes = [f"untraced run_s {fmt_list(plain['run_s'])}, "
             f"traced run_s {fmt_list(traced['run_s'])}",
             f"spans: {trace_path(workload, seed).relative_to(ROOT)}"]
    return result, notes


def _result(reports, metrics) -> dict:
    return {"correct": all(report["correct"] for report in reports),
            "attempted": sum(report["attempted"] for report in reports),
            "failed": sum(report["failed"] for report in reports),
            "metrics": metrics}


def fmt_list(values) -> str:
    return "[" + ", ".join(f"{value:.3f}" for value in values) + "]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Wall-clock benchmark of the reproduction.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        stamp = fingerprint.machine(ROOT)
        if args.workload == "serve":
            from perfbench import serve_bench

            runner = serve_bench.traced if args.trace \
                else serve_bench.untraced
            result, notes = runner(work, args.seed, args.seconds)
        else:
            runner = batch_traced if args.trace else batch_workload
            result, notes = runner(args.workload, work, args.seed,
                                   args.seconds)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    units = dict(layers.PER_LAYER if args.trace else END_TO_END)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("fingerprint: " + json.dumps(stamp, sort_keys=True))
    for note in notes:
        print("  " + note)
    for name, unit in units.items():
        print(f"  {name:<28} {result['metrics'][name]:>14.4f} {unit}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(result["metrics"][name]),
                           "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
