"""Attribution self-test: a known cost must land in the layer it was put in.

Run from the repository root::

    python3 perfbench/selftest.py

Runs the traced ``table5`` sweep in :data:`PAIRS` alternating pairs,
without and with a sleep of :data:`DELAY_S` inside every
``Kernel.step`` wrapper. It passes when the
acceptance rule over ``run_s`` (the bound in ``BENCHMARK.json``) flags
the delayed runs, and when the traced split puts the added time in
``kernels.step_s``: at least the injected total, matching the ``run_s``
increase to within a quarter of it, while no other layer moves by more
than a tenth of it. Takes about a minute per pair.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path.cwd()), str(Path.cwd() / "src")]

from perfbench import stats  # noqa: E402
from perfbench.common import ROOT  # noqa: E402
from perfbench.run import run_child  # noqa: E402

#: Plain/delayed run pairs, their order alternating between pairs.
PAIRS = 2

#: Seconds slept inside every ``Kernel.step`` span of a delayed run.
DELAY_S = 0.001


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = [m for m in bench["end_to_end"] if m["name"] == "run_s"]

    work = ROOT / ".perfbench_work" / f"selftest-{time.time_ns()}"
    work.mkdir(parents=True)
    runs = {"plain": [], "delayed": []}
    try:
        for pair in range(PAIRS):
            order = ("plain", "delayed") if pair % 2 == 0 \
                else ("delayed", "plain")
            for side in order:
                extra = ["--delay", f"kernels.step={DELAY_S}"] \
                    if side == "delayed" else []
                _setup, report = run_child("table5", work, 0, 1, 1,
                                           extra=extra)
                if not report["correct"]:
                    print(f"{side} run produced a wrong table5")
                    return 1
                runs[side].append(report)
                print(f"{side:>8}: run_s {report['run_s'][0]:.3f} s, "
                      f"kernels.step_s "
                      f"{report['layers']['kernels.step_s']:.3f} s",
                      flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def med(side, name):
        if name == "run_s":
            return stats.median([r["run_s"][0] for r in runs[side]])
        return stats.median([r["layers"][name] for r in runs[side]])

    flagged = stats.regressions(
        {"run_s": [r["run_s"][0] for r in runs["plain"]]},
        {"run_s": [r["run_s"][0] for r in runs["delayed"]]}, bound)
    calls = med("delayed", "kernels.calls")
    injected = calls * DELAY_S
    added_run = med("delayed", "run_s") - med("plain", "run_s")
    added_step = med("delayed", "kernels.step_s") - med("plain",
                                                       "kernels.step_s")
    others = {name: med("delayed", name) - med("plain", name)
              for name in runs["plain"][0]["layers"]
              if name.endswith("_s") and not name.endswith("_per_s")
              and name != "kernels.step_s"}
    moved = {name: delta for name, delta in others.items()
             if abs(delta) > 0.1 * injected}
    print(f"injected {injected:.3f} s ({calls:.0f} steps x "
          f"{1e3 * DELAY_S:g} ms); run_s +{added_run:.3f} s; "
          f"kernels.step_s +{added_step:.3f} s")
    print(f"flagged end-to-end metrics: {flagged}")
    print(f"other layers moved by > 10% of the injection: {moved}")
    ok = (flagged == ["run_s"] and added_step >= injected
          and abs(added_run - added_step) <= 0.25 * injected
          and not moved)
    print("attribution self-test " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
