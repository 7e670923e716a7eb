"""The server process of the ``serve`` workload.

``python3 -m perfbench.serve_host --report FILE [--trace] -- <serve args>``
runs ``repro serve <serve args>`` through the CLI's own entry point.
With ``--trace`` the layer wrappers are installed before the service
boots, and the spans of request handling (everything after the warm-up)
are kept. When the server has drained, the process writes ``FILE``: the
peak RSS of the server and of its pool workers (read just before the
pool shuts down) and, when traced, the per-layer split and each job's
pool round trip; ``--spans-out`` also receives the spans themselves.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing
import sys

from . import layers, spans


def vm_hwm_mb(pid) -> float:
    """Peak resident set (``VmHWM``) of process ``pid``, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.serve_host")
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out",
                        help="with --trace, write the spans here")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [arg for arg in args.serve_args if arg != "--"]

    from repro import cli
    from repro.observability import peak_rss_bytes
    from repro.serve.app import ExperimentService

    # Cells compute in the pool's forked workers; their peaks are read
    # while they are still alive, when the drained service stops.
    workers_mb = []
    stop = ExperimentService.stop

    @functools.wraps(stop)
    def read_workers_then_stop(service):
        workers_mb.extend(vm_hwm_mb(child.pid)
                          for child in multiprocessing.active_children())
        return stop(service)

    ExperimentService.stop = read_workers_then_stop
    recorder = spans.Recorder()
    patches = None
    if args.trace:
        patches = spans.install(recorder)
        start = ExperimentService.start

        @functools.wraps(start)
        def start_then_forget(service):
            # The split covers request handling, not the warm-up.
            start(service)
            recorder.spans.clear()
            recorder.counts.clear()

        patches.attribute(ExperimentService, "start", start_then_forget)
    code = cli.main(["serve", *serve_args])
    report = {"exit": code, "server_rss_mb": peak_rss_bytes() / 2**20,
              "workers_rss_mb": workers_mb}
    if patches is not None:
        report["layers"] = layers.from_recorder(recorder)
        report["pool_ms"] = recorder.interval_ms("harness.pool")
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as handle:
                json.dump(recorder.to_dict(), handle)
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
