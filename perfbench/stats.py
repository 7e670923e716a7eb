"""Order statistics, open-loop schedules and the rung rule.

Pure functions with no dependency on ``repro``, so the benchmark's own
tests can pin them down exactly.
"""

from __future__ import annotations

import random
import statistics

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10

#: Serve ladder rule: the tail latency limit a passing rung must meet.
TAIL_LIMIT_S = 1.0

#: Serve ladder rule: completions keep up when the achieved rate is at
#: least this share of the offered rate.
KEEP_UP_SHARE = 0.9

#: Serve ladder rule: the generator's lateness "grows" when the median
#: lateness of a rung's last quarter exceeds its first quarter's by more
#: than this many seconds.
LATENESS_GROWTH_S = 0.25


def median(values) -> float:
    return float(statistics.median(values))


def median_of_medians(samples) -> float:
    """The median, over keys, of each key's median value.

    ``samples`` is a sequence of ``(key, value)`` pairs. When every key
    is sampled equally often this estimates the pooled median, but a
    stall that slows a few samples moves it far less: each key's own
    median drops them first.
    """
    groups = {}
    for key, value in samples:
        groups.setdefault(key, []).append(value)
    if not groups:
        raise ValueError("median of an empty sample")
    return median(median(values) for values in groups.values())


def tail(values, beyond: int = TAIL_BEYOND):
    """The highest percentile with ``beyond`` samples above it.

    Returns ``(value, percentile, samples_beyond)``. The value is the
    sorted sample at index ``n - 1 - beyond``, whose percentile is the
    share of samples at or below it. When that percentile would fall
    below p90 (fewer than ``10 * beyond`` samples) it is no tail: the
    maximum is returned with ``0`` samples beyond, so the count printed
    beside it says so.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n < 10 * beyond:
        return float(ordered[-1]), 100.0, 0
    return float(ordered[n - 1 - beyond]), 100.0 * (n - beyond) / n, beyond


def arrival_times(seed: int, rate: float, count: int) -> list:
    """Due offsets (s) of ``count`` Poisson arrivals at ``rate`` per s.

    A Poisson process conditioned on ``count`` arrivals in
    ``[0, count / rate]`` places them as sorted uniforms, so every seed
    offers exactly the nominal rate and runs differ only in *when*
    requests bunch up. The same ``(seed, rate, count)`` always gives the
    same schedule.
    """
    rng = random.Random(f"arrivals:{seed}:{rate}:{count}")
    span = count / rate
    return sorted(rng.uniform(0.0, span) for _ in range(count))


def lateness_grows(lateness, threshold_s: float = LATENESS_GROWTH_S) -> bool:
    """Does the last quarter run later than the first by > threshold?"""
    quarter = max(1, len(lateness) // 4)
    return (median(lateness[-quarter:]) - median(lateness[:quarter])
            > threshold_s)


def rung_passes(rung: dict) -> bool:
    """The ladder rule for one rung.

    ``rung`` holds ``rate`` (offered per s), ``tail_s``, ``achieved``
    (completions per s over the rung), ``lateness`` (per-request send
    lateness in due order, s) and ``failed``.
    """
    return (rung["failed"] == 0
            and rung["tail_s"] <= TAIL_LIMIT_S
            and rung["achieved"] >= KEEP_UP_SHARE * rung["rate"]
            and not lateness_grows(rung["lateness"]))


def max_passing_rung(rungs):
    """The highest rung of an unbroken run of passing rungs from the
    lowest rate, or ``None`` when the lowest rung already fails."""
    best = None
    for rung in sorted(rungs, key=lambda r: r["rate"]):
        if not rung_passes(rung):
            break
        best = rung
    return best


def regressions(parent: dict, change: dict, metrics) -> list:
    """Metrics on which ``change`` is worse than ``parent`` by more than
    their bound: the acceptance rule applied to two sets of runs.

    ``parent``/``change`` map a metric name to its values over runs;
    ``metrics`` is the ``end_to_end`` list of ``BENCHMARK.json``.
    """
    flagged = []
    for metric in metrics:
        name = metric["name"]
        before, after = median(parent[name]), median(change[name])
        if metric["better"] == "lower":
            worse = after > before * (1 + metric["bound"])
        else:
            worse = after < before * (1 - metric["bound"])
        if worse:
            flagged.append(name)
    return flagged
