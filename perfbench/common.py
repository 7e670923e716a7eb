"""Paths and process environment shared by the benchmark's modules."""

from __future__ import annotations

import os
from pathlib import Path

#: The checkout being measured: the benchmark runs from its root.
ROOT = Path.cwd()


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong output)."""


def child_env(cache_dir) -> dict:
    """Environment of every process the benchmark starts: the checkout's
    ``src`` and the benchmark package importable, and a dataset cache of
    its own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    for name in ("REPRO_OUT_OF_CORE", "REPRO_DATASET_CACHE",
                 "REPRO_CHAOS_REAL"):
        env.pop(name, None)
    return env


def fresh_dir(work: Path, prefix: str) -> Path:
    """A new, empty directory ``<work>/<prefix>-<n>``."""
    index = sum(1 for _ in work.glob(prefix + "-*"))
    path = work / f"{prefix}-{index}"
    path.mkdir(parents=True)
    return path


def trace_path(workload: str, seed: int) -> Path:
    """Where a traced run writes its spans; kept after the run."""
    path = ROOT / ".perfbench_traces" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(exist_ok=True)
    return path
