"""The ``serve`` workload: ``repro serve`` driven open-loop on a rate ladder.

Each server runs at its default pool size (``--jobs 2``) and listens on
port 0 with a benchmark-owned cache and state directory. The client is
this process: at most ``nproc`` (2) keep-alive connections, seeded
Poisson arrivals, gate experiments and one perf-analyze request per
algorithm (89% / 11% below the top rung, 97% / 3% on it), all
``wait: true``.
Async sweeps are left out: they finish off the request path and add
load that no request owns.

* ``run_s`` is a closed-loop pass over the 64 gate cells, one request
  at a time over one connection: the median of :data:`PASSES` passes on
  each of the :data:`BOOTS` servers a run boots, each server's after a
  warm-up pass. ``p50_ms`` is the median over the gate cells of each
  cell's median latency in those passes, and ``tail_ms`` the tail of
  all their requests. Pooling servers matters: one server's passes can
  run ~20% faster or slower than another's for its whole life.
* Each ladder rung offers :data:`RATES` requests per second after an
  untimed warm-up at the same rate. A latency is timed from the
  request's *due* time, so a stall also charges the requests queued
  behind it; how late each request was sent is recorded too. The rungs
  are printed; of them only the top rung's throughput is a metric
  (``max_rate_per_s``). The top rung offers more than the server can
  complete, so its throughput is the server's capacity, not a rate the
  ladder caps. Open-loop medians and tails on a 2-core machine
  shared by client, server and two workers moved by 30% (median) and
  70% (tail) between runs of identical schedules, too much to gate.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import subprocess
import sys
import time

from . import stats
from .common import ROOT, BenchError, child_env, fresh_dir, trace_path

#: Offered rates of the ladder (requests per second). The top rung is
#: above the capacity of a 2-core machine (~50 completions per second).
RATES = (15, 30, 45, 60, 90)

#: Pool workers of the server (``repro serve``'s default).
POOL_JOBS = 2

#: Each timed rung sends every gate cell once per this many seconds of
#: ``--seconds`` (at least once), plus one perf-analyze request per
#: algorithm: 64 + 8 = 72 requests (89% / 11%) at 25 s. The rungs below
#: the top are printed, not gated, so they are kept short; the closed-
#: loop passes get the time instead.
SECONDS_PER_GATE_ROUND = 30

#: The top rung, whose throughput is reported, sends the gate cells this
#: many times as often (4 x 64 + 8 = 264 requests, 97% / 3%, at 25 s),
#: so that it keeps the server busy for about five seconds.
TOP_RUNG_ROUNDS = 4

#: Untimed warm-up before each rung (seconds at the rung's rate).
WARMUP_S = 1.0

#: Servers booted per run, each timed for ``setup_s`` and each serving
#: the closed-loop passes; the last one also serves the ladder.
BOOTS = 3

#: Closed-loop passes over the gate cells per server, for ``run_s``,
#: ``p50_ms`` and ``tail_ms``, after untimed warm-up passes: a new
#: server's first pass runs ~7% slower than the next ones.
PASSES = 3
WARMUP_PASSES = 1

_READY = re.compile(r"listening on http://([^:]+):(\d+)")
_clock = time.perf_counter


def gate_cells(root) -> dict:
    """The 64 gate cells and their expected results, by ``alg/fw/nodes``."""
    with open(os.path.join(root, "BENCH_serve.json"), encoding="utf-8") as f:
        return json.load(f)["cells"]


def _gate_body(cell: str) -> dict:
    algorithm, framework, nodes = cell.split("/")
    return {"gate": {"algorithm": algorithm, "framework": framework,
                     "nodes": int(nodes)}, "wait": True}


def _perf_body(algorithm: str) -> dict:
    return {"framework": "native", "algorithms": [algorithm],
            "node_counts": [1], "wait": True}


def rung_plan(seed, rounds: int, cells, algorithms, tag: str) -> list:
    """Every gate cell ``rounds`` times plus one perf-analyze request
    per algorithm, in a seeded order. The composition is the same for
    every seed: the median and the tail of a mix of fast and slow cells
    would otherwise move with which cells a seed happened to draw."""
    plan = [("gate", "/experiments", _gate_body(cell), cell)
            for cell in sorted(cells) for _ in range(rounds)]
    plan += [("perf-analyze", "/perf/analyze", _perf_body(algorithm), None)
             for algorithm in sorted(algorithms)]
    random.Random(f"plan:{tag}:{seed}").shuffle(plan)
    return plan


class Server:
    """One ``repro serve`` process under :mod:`perfbench.serve_host`."""

    def __init__(self, work, spans_out=None):
        self.cache = fresh_dir(work, "serve-cache")
        self.state = fresh_dir(work, "serve-state")
        self.report_path = self.state / "host-report.json"
        command = [sys.executable, "-m", "perfbench.serve_host",
                   "--report", str(self.report_path)]
        if spans_out is not None:
            command += ["--trace", "--spans-out", str(spans_out)]
        command += ["--", "--port", "0", "--jobs", str(POOL_JOBS),
                    "--state-dir", str(self.state)]
        started = _clock()
        self.proc = subprocess.Popen(command, env=child_env(self.cache),
                                     stdout=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline()
            self.setup_s = _clock() - started
            match = _READY.search(line)
            if match is None:
                raise BenchError(f"server did not come up: {line!r}")
        except BaseException:
            self.kill()
            raise
        self.host, self.port = match.group(1), int(match.group(2))

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, kind, _value, _traceback) -> None:
        """Drain on success; on an error, kill and let it propagate."""
        if kind is None:
            self.stop()
        else:
            self.kill()

    def stop(self) -> None:
        """SIGTERM: a clean drain must exit 0."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        finally:
            self.kill()
        if code != 0:
            raise BenchError(f"server exited {code} after SIGTERM")

    def report(self) -> dict:
        """What the host wrote once the server drained."""
        with open(self.report_path, encoding="utf-8") as handle:
            return json.load(handle)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


async def _send(client, item, due=None) -> dict:
    """One request of a plan; a transport failure is a sample with
    status 0, counted as failed, not raised."""
    kind, path, body, cell = item
    sent = _clock()
    try:
        status, payload = await client.request("POST", path, body)
    except Exception as error:  # any failure is a sample, not a crash
        status, payload = 0, {"error": type(error).__name__}
    return {"kind": kind, "cell": cell, "status": status, "payload": payload,
            "due": sent if due is None else due, "sent": sent,
            "done": _clock()}


async def _open_loop(server, plan, due, connections):
    """Send ``plan[i]`` at ``due[i]`` s from now over a fixed set of
    connections; returns one sample dict per request, in plan order."""
    from repro.serve.client import ServeClient

    idle = asyncio.Queue()
    clients = [ServeClient(server.host, server.port, timeout_s=60.0)
               for _ in range(connections)]
    for client in clients:
        idle.put_nowait(client)
    start = _clock() + 0.05

    async def one(index):
        client = await idle.get()
        try:
            return await _send(client, plan[index], start + due[index])
        finally:
            idle.put_nowait(client)

    tasks = []
    try:
        for index, offset in enumerate(due):
            delay = start + offset - _clock()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(one(index)))
        samples = await asyncio.gather(*tasks)
    finally:
        for client in clients:
            await client.close()
    return list(samples), start


async def _closed_loop(server, plan):
    from repro.serve.client import ServeClient

    client = ServeClient(server.host, server.port, timeout_s=60.0)
    try:
        return [await _send(client, item) for item in plan]
    finally:
        await client.close()


def check(samples, expected) -> tuple:
    """``(failed, wrong)``: non-2xx/transport failures, and answers that
    differ from the gate cells in ``BENCH_serve.json``."""
    failed = wrong = 0
    for sample in samples:
        if not 200 <= sample["status"] < 300:
            failed += 1
            continue
        payload = sample["payload"]
        if payload.get("state") != "done":
            wrong += 1
            continue
        if sample["kind"] != "gate":
            continue
        result = payload.get("result") or {}
        cell = expected[sample["cell"]]
        runtime = (result.get("value") or {}).get("runtime_s")
        if result.get("status") != cell["status"] \
                or runtime != cell["runtime_s"]:
            wrong += 1
    return failed, wrong


class ServeRun:
    """Bookkeeping of one serve run: every sample, and the checks."""

    def __init__(self, work, seed, seconds):
        self.work = work
        self.seed, self.seconds = seed, seconds
        self.expected = gate_cells(ROOT)
        from repro.algorithms.registry import ALGORITHMS

        self.algorithms = tuple(ALGORITHMS)
        self.connections = max(1, min(2, os.cpu_count() or 1))
        self.attempted = self.failed = self.wrong = 0
        self.setups = []

    def record(self, samples) -> list:
        failed, wrong = check(samples, self.expected)
        self.attempted += len(samples)
        self.failed += failed
        self.wrong += wrong
        return samples

    def boot(self, spans_out=None) -> Server:
        """Boot a server, timing it. With ``spans_out`` the server is
        traced and writes its spans there."""
        server = Server(self.work, spans_out)
        self.setups.append(server.setup_s)
        return server

    def passes(self, server, boot=0):
        """Closed-loop passes over every gate cell: the wall time of each
        timed pass, and every timed request's ``(cell, latency)``.
        ``boot`` numbers the server within the run, so each gets its own
        orders."""
        times, latencies = [], []
        for index in range(WARMUP_PASSES + PASSES):
            rng = random.Random(f"pass:{self.seed}:{boot}:{index}")
            cells = sorted(self.expected)
            rng.shuffle(cells)
            plan = [("gate", "/experiments", _gate_body(c), c)
                    for c in cells]
            start = _clock()
            samples = self.record(asyncio.run(_closed_loop(server, plan)))
            if index < WARMUP_PASSES:
                continue
            times.append(_clock() - start)
            latencies += [(s["cell"], s["done"] - s["sent"])
                          for s in samples]
        return times, latencies

    def ladder(self, server) -> list:
        rounds = max(1, round(self.seconds / SECONDS_PER_GATE_ROUND))
        rungs = []
        for rate in RATES:
            warm = rung_plan(self.seed, 1, self.expected, self.algorithms,
                             f"warm:{rate}")[:int(WARMUP_S * rate)]
            self.record(self._drive(server, rate, warm)[0])
            top = TOP_RUNG_ROUNDS if rate == RATES[-1] else 1
            plan = rung_plan(self.seed, rounds * top, self.expected,
                             self.algorithms, f"timed:{rate}")
            samples, start = self._drive(server, rate, plan)
            self.record(samples)
            rungs.append(summarize_rung(rate, samples, start))
        return rungs

    def _drive(self, server, rate, plan):
        due = stats.arrival_times(self.seed, rate, len(plan))
        return asyncio.run(_open_loop(server, plan, due, self.connections))

    def result(self, metrics) -> dict:
        return {"correct": self.wrong == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def summarize_rung(rate, samples, start) -> dict:
    latencies = [s["done"] - s["due"] for s in samples]
    tail_s, tail_pct, beyond = stats.tail(latencies)
    # Completions per second over the window the rung offered load in:
    # a server that keeps up has finished nearly all of it by the last
    # due time, an overloaded one only what its capacity allowed.
    last_due = max(s["due"] for s in samples)
    achieved = sum(s["done"] <= last_due for s in samples) \
        / (last_due - start)
    # Successful completions per second from the first due time to the
    # last completion: the offered rate while the server keeps up, its
    # capacity once the rung overloads it.
    ok = sum(200 <= s["status"] < 300 for s in samples)
    throughput = ok / (max(s["done"] for s in samples) - start)
    return {"rate": rate, "samples": samples,
            "p50_s": stats.median(latencies), "tail_s": tail_s,
            "tail_pct": tail_pct, "beyond": beyond,
            "achieved": achieved, "throughput": throughput,
            "lateness": [s["sent"] - s["due"] for s in samples],
            "failed": sum(not 200 <= s["status"] < 300 for s in samples)}


def _rung_notes(rungs) -> list:
    notes = []
    for rung in rungs:
        lateness = rung["lateness"]
        notes.append(
            f"{rung['rate']:>3} rps: p50 {1e3 * rung['p50_s']:8.2f} ms, "
            f"tail {1e3 * rung['tail_s']:8.2f} ms "
            f"(p{rung['tail_pct']:.1f}, {rung['beyond']} beyond, "
            f"n={len(rung['samples'])}), achieved {rung['achieved']:.2f}/s, "
            f"throughput {rung['throughput']:.2f}/s, "
            f"send lateness p50 {1e3 * stats.median(lateness):.1f} ms "
            f"max {1e3 * max(lateness):.1f} ms"
            f"{'' if stats.rung_passes(rung) else '  [fails rung rule]'}")
    return notes


def untraced(work, seed, seconds):
    serve_run = ServeRun(work, seed, seconds)
    pass_s, latencies = [], []
    for boot in range(BOOTS):
        with serve_run.boot() as server:
            times, served = serve_run.passes(server, boot)
            pass_s += times
            latencies += served
            if boot == BOOTS - 1:
                rungs = serve_run.ladder(server)
    report = server.report()
    tail_s, tail_pct, beyond = stats.tail([v for _, v in latencies])
    metrics = {
        "setup_s": stats.median(serve_run.setups),
        "run_s": stats.median(pass_s),
        # The server process only. Each pool worker's peak is printed,
        # but it lands on one of two levels (~160 or ~191 MB) depending
        # on which cells the worker ran first: glibc's dynamic mmap
        # threshold keeps some freed arrays in the heap. Summed with
        # the workers' peaks, the metric moved by 7.5% between runs;
        # pinning the threshold (as the out-of-core workload does) made
        # serving 25-70% slower.
        "peak_rss_mb": report["server_rss_mb"],
        # Every pass sends each cell once, so this estimates the median
        # request; a stall that slows a few requests barely moves it.
        "p50_ms": 1e3 * stats.median_of_medians(latencies),
        "tail_ms": 1e3 * tail_s,
        # The top rung overloads the server: its throughput is the
        # server's capacity.
        "max_rate_per_s": rungs[-1]["throughput"],
    }
    best = stats.max_passing_rung(rungs)
    notes = [f"boots: {[round(s, 3) for s in serve_run.setups]}",
             f"peak RSS: server {report['server_rss_mb']:.1f} MB, workers "
             f"{[round(mb, 1) for mb in report['workers_rss_mb']]} MB",
             f"gate passes: {[round(s, 3) for s in pass_s]}; "
             f"{len(latencies)} requests, tail is p{tail_pct:.1f} with "
             f"{beyond} samples beyond",
             "highest rung passing the ladder rule: "
             + (f"{best['rate']} rps" if best else "none")]
    notes += _rung_notes(rungs)
    return serve_run.result(metrics), notes


def traced(work, seed, seconds):
    """Per-layer split of serving: an untraced pass for the overhead
    baseline, then a traced server through the pass and the ladder,
    then the served cells replayed in-process for their compute time."""
    serve_run = ServeRun(work, seed, seconds)
    with serve_run.boot() as plain:
        plain_s = serve_run.passes(plain)[0]
    with serve_run.boot(spans_out=trace_path("serve", seed)) as server:
        traced_s = serve_run.passes(server)[0]
        rungs = serve_run.ladder(server)
    report = server.report()
    metrics = dict(report["layers"])
    served = [s for rung in rungs for s in rung["samples"]
              if 200 <= s["status"] < 300]
    pool_ms = report["pool_ms"]
    overheads = [1e3 * (s["done"] - s["sent"]) - pool_ms[s["payload"]["job"]]
                 for s in served if s["payload"].get("job") in pool_ms]
    if overheads:
        metrics["serve.overhead_ms.p50"] = stats.median(overheads)
    metrics["harness.compute_ms.p50"] = stats.median(
        replay_compute_ms(server.cache, served))
    metrics["observability.overhead_pct"] = 100.0 * (
        stats.median(traced_s) / stats.median(plain_s) - 1)
    result = serve_run.result(metrics)
    metrics["error_rate"] = result["failed"] / result["attempted"]
    notes = [f"untraced passes {[round(s, 3) for s in plain_s]}, "
             f"traced passes {[round(s, 3) for s in traced_s]}",
             f"spans: {trace_path('serve', seed).relative_to(ROOT)}"]
    notes += _rung_notes(rungs)
    return result, notes


def replay_compute_ms(cache_dir, served) -> list:
    """Compute time of each served request's cell, replayed in this
    process against the same datasets, pinned as the server pins them.

    Pool workers fork after the wrappers are installed, so what they
    record never reaches the parent; the replay measures the cells'
    compute without the pool and HTTP around it. Each distinct cell
    runs once; the result is weighted by how often it was served.
    """
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    from repro.datagen import cache as dataset_cache
    from repro.harness.datasets import clear_proxy_caches, \
        weak_scaling_dataset
    from repro.serve import app

    with dataset_cache.pinning():
        for algorithm in sorted({k.split("/")[0] for k in
                                 (s["cell"] for s in served if s["cell"])}):
            for nodes in app.WARM_NODE_COUNTS:
                weak_scaling_dataset(algorithm, nodes)
    compute = {}
    try:
        for sample in served:
            key = json.dumps(sample["payload"].get("request"),
                             sort_keys=True)
            if key in compute:
                continue
            kind = sample["kind"]
            request = sample["payload"]["request"]
            if kind == "gate":
                cell_key = dict(request["gate"])
            else:
                cell_key = {"framework": request["framework"],
                            "algorithms": list(request["algorithms"]),
                            "node_counts": list(request["node_counts"])}
            start = _clock()
            app._EXECUTORS[kind](cell_key)
            compute[key] = 1e3 * (_clock() - start)
    finally:
        dataset_cache.clear_pins()
        clear_proxy_caches()
    return [compute[json.dumps(s["payload"].get("request"), sort_keys=True)]
            for s in served]
