"""Machine fingerprint and calibration stamp printed with every result.

Wall-clock figures from two machines compare only through a common
yardstick: each result carries the core count, interpreter and library
versions, the code it measured, and the time of a fixed numpy loop.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import time


def calibration_s(repeats: int = 5) -> float:
    """Median time of a fixed, allocation-light numpy loop."""
    import numpy as np

    data = np.arange(1 << 20, dtype=np.float64)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        value = data
        for _ in range(20):
            value = np.sqrt(value * value + 1.0)
        float(value.sum())
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def source_commit(root) -> str:
    """The git commit when the checkout is a repository, else a digest
    of every file under ``src/`` (a checkout without ``.git``)."""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def machine(root) -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "commit": source_commit(root),
            "calibration_s": round(calibration_s(), 6)}
