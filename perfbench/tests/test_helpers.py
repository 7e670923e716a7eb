"""Tests of the benchmark's own helpers.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import layers, serve_bench, spans, stats  # noqa: E402


# -- self time ---------------------------------------------------------------

@pytest.fixture
def fake_clock(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(spans, "_clock", lambda: float(next(ticks)))


def test_self_time_subtracts_enclosed_children(fake_clock):
    recorder = spans.Recorder()
    root = recorder.enter("harness.root")            # t=0
    child = recorder.enter("frameworks.run")         # t=1
    grandchild = recorder.enter("kernels.step")      # t=2
    recorder.exit(grandchild)                        # t=3
    recorder.exit(child)                             # t=4
    sibling = recorder.enter("kernels.step")         # t=5
    recorder.exit(sibling)                           # t=6
    recorder.exit(root)                              # t=7
    assert recorder.self_seconds() == {"harness.root": 3.0,
                                       "frameworks.run": 2.0,
                                       "kernels.step": 2.0}
    assert sum(recorder.self_seconds().values()) == 7.0
    # The root's own 3 s are claimed by no layer below it.
    assert layers.coverage(recorder, 7.0) == {
        "observability.coverage_pct": 100.0 * 4.0 / 7.0,
        "observability.unattributed_s": 3.0}


def test_kernel_calls_count_outermost_steps_only(fake_clock):
    recorder = spans.Recorder()
    outer = recorder.enter("kernels.step")
    inner = recorder.enter("kernels.step")
    recorder.exit(inner)
    recorder.exit(outer)
    assert layers.from_recorder(recorder)["kernels.calls"] == 1.0


# -- tail percentile -----------------------------------------------------------

def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    value, percentile, beyond = stats.tail(values)
    assert (value, percentile, beyond) == (90.0, 90.0, 10)
    assert sum(v > value for v in values) == 10


def test_tail_of_a_small_sample_is_the_maximum_with_none_beyond():
    assert stats.tail([5.0, 1.0, 3.0] * 5) == (5.0, 100.0, 0)
    assert stats.tail(range(99)) == (98.0, 100.0, 0)
    value, percentile, beyond = stats.tail(range(200))
    assert (value, percentile, beyond) == (189.0, 95.0, 10)


def test_tail_rejects_an_empty_sample():
    with pytest.raises(ValueError):
        stats.tail([])


def test_median_of_medians_drops_a_stall_within_each_key():
    steady = [("a", 1.0), ("b", 2.0), ("c", 3.0)] * 3
    assert stats.median_of_medians(steady) == 2.0
    # One stalled sample per key moves the pooled median, not this one.
    stalled = steady + [("a", 9.0), ("b", 9.0), ("c", 9.0)]
    assert stats.median([v for _, v in stalled]) == 2.5
    assert stats.median_of_medians(stalled) == 2.0
    with pytest.raises(ValueError):
        stats.median_of_medians([])


# -- arrival schedule ----------------------------------------------------------

def test_arrivals_repeat_for_a_seed_and_offer_the_nominal_rate():
    first = stats.arrival_times(7, 30, 240)
    assert first == stats.arrival_times(7, 30, 240)
    assert first != stats.arrival_times(8, 30, 240)
    assert first == sorted(first) and len(first) == 240
    assert 0.0 <= first[0] and first[-1] <= 240 / 30


def test_rung_plan_fixes_the_mix_and_seeds_only_the_order():
    cells = [f"a{i}/f/1" for i in range(64)]
    algorithms = ["x", "y", "z"]
    plan = serve_bench.rung_plan(1, 2, cells, algorithms, "timed")
    assert plan == serve_bench.rung_plan(1, 2, cells, algorithms, "timed")
    assert len(plan) == 131
    assert all(sum(c == cell for *_, c in plan) == 2 for cell in cells)
    assert sorted(p[2]["algorithms"][0] for p in plan
                  if p[0] == "perf-analyze") == algorithms
    other = serve_bench.rung_plan(2, 2, cells, algorithms, "timed")
    assert sorted(map(repr, other)) == sorted(map(repr, plan))
    assert other != plan


# -- rung rule -----------------------------------------------------------------

def _rung(rate, tail_s=0.2, achieved=None, lateness=None, failed=0):
    return {"rate": rate, "tail_s": tail_s,
            "achieved": rate if achieved is None else achieved,
            "lateness": lateness or [0.001] * 40, "failed": failed}


def test_max_rate_is_the_top_of_the_unbroken_passing_ladder():
    rungs = [_rung(15), _rung(30), _rung(45, achieved=36.0), _rung(60)]
    assert stats.max_passing_rung(rungs)["rate"] == 30


@pytest.mark.parametrize("broken", [
    {"tail_s": 1.01},
    {"achieved": 12.0},
    {"lateness": [0.0] * 20 + [0.5] * 20},
    {"failed": 1},
])
def test_each_rule_fails_a_rung(broken):
    assert stats.rung_passes(_rung(15))
    assert not stats.rung_passes(_rung(15, **broken))
    assert stats.max_passing_rung([_rung(15, **broken), _rung(30)]) is None


def test_regressions_flag_only_metrics_worse_than_their_bound():
    metrics = [{"name": "run_s", "better": "lower", "bound": 0.1},
               {"name": "rate", "better": "higher", "bound": 0.1}]
    parent = {"run_s": [10.0, 10.2, 9.9], "rate": [30.0, 30.1, 29.9]}
    assert stats.regressions(parent, parent, metrics) == []
    slower = {"run_s": [11.5, 11.6, 11.4], "rate": [29.0, 29.5, 29.2]}
    assert stats.regressions(parent, slower, metrics) == ["run_s"]


# -- serve correctness ---------------------------------------------------------

def test_serve_check_separates_failures_from_wrong_answers():
    expected = {"bfs/native/1": {"status": "ok", "runtime_s": 0.5}}

    def sample(status, runtime, kind="gate"):
        return {"kind": kind, "cell": "bfs/native/1", "status": status,
                "payload": {"state": "done",
                            "result": {"status": "ok",
                                       "value": {"runtime_s": runtime}}}}

    samples = [sample(200, 0.5), sample(200, 0.25), sample(503, 0.5),
               sample(200, None, kind="perf-analyze")]
    assert serve_bench.check(samples, expected) == (1, 1)


# -- wrappers on the real program ------------------------------------------------

def test_install_attributes_an_injected_delay_to_its_layer(tmp_path,
                                                           monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    from repro.datagen import rmat_graph
    from repro.harness import runner

    graph = rmat_graph.__wrapped__(7, 8, seed=3, directed=False)

    def traced_run(delays):
        recorder = spans.Recorder(delays=delays)
        patches = spans.install(recorder)
        try:
            index = recorder.enter("harness.root")
            runner.run_experiment("bfs", "native", graph, source=0)
            recorder.exit(index)
        finally:
            patches.remove()
        return recorder

    plain = layers.from_recorder(traced_run({}))
    delayed_recorder = traced_run({"kernels.step": 0.01})
    delayed = layers.from_recorder(delayed_recorder)
    calls = delayed["kernels.calls"]
    assert calls == plain["kernels.calls"] > 0
    assert delayed["kernels.edges"] == plain["kernels.edges"] > 0
    added = delayed["kernels.step_s"] - plain["kernels.step_s"]
    assert added >= 0.01 * calls
    assert abs(delayed["frameworks.self_s"] - plain["frameworks.self_s"]) \
        < 0.5 * added
    root = delayed_recorder.durations("harness.root")[0]
    split = layers.coverage(delayed_recorder, root)
    assert split["observability.coverage_pct"] > 90.0
    assert split["observability.coverage_pct"] / 100.0 * root \
        + split["observability.unattributed_s"] == pytest.approx(root)
    # Removing the wrappers restores every binding.
    assert not hasattr(runner.run, "__perfbench_original__")
