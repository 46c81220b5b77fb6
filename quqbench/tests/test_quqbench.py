"""The benchmark's own tests: arrival schedule, tail rule, metric names,
span bookkeeping.  Run with ``python3 -m pytest quqbench/tests``."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from common import (  # noqa: E402
    E2E_UNITS,
    LAYER_UNITS,
    NAME_RE,
    TAIL_BEYOND,
    UNIT_RE,
    WORKLOADS,
    latency_summary,
    load_benchmark_spec,
    poisson_schedule,
    tail_rank,
    window_rates,
)
from spans import PREDICT, SHARD_PREDICT, ShardLog, Tracer  # noqa: E402


def test_schedule_is_deterministic_for_a_seed():
    first = poisson_schedule(12.0, 30.0, seed=5)
    assert np.array_equal(first, poisson_schedule(12.0, 30.0, seed=5))
    other = poisson_schedule(12.0, 30.0, seed=6)
    count = min(len(first), len(other))
    assert not np.array_equal(first[:count], other[:count])


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_schedule_is_a_bursty_poisson_process(seed):
    rate, duration = 33.0, 60.0
    times = poisson_schedule(rate, duration, seed)
    assert np.all(np.diff(times) > 0)
    assert times[0] >= 0 and times[-1] < duration
    expected = rate * duration
    assert abs(len(times) - expected) < 5 * math.sqrt(expected)
    gaps = np.diff(times)
    # Exponential gaps have a coefficient of variation of 1; even spacing 0.
    assert 0.8 < gaps.std() / gaps.mean() < 1.2


def test_schedule_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        poisson_schedule(0.0, 10.0, seed=1)


@pytest.mark.parametrize("count", [TAIL_BEYOND + 1, 40, 100, 397])
def test_tail_rank_leaves_exactly_ten_beyond(count):
    index, percentile = tail_rank(count)
    assert count - 1 - index == TAIL_BEYOND
    # Nearest rank: the p-th percentile is the ceil(p/100 * n)-th value.
    assert math.ceil(round(percentile / 100 * count, 9)) - 1 == index


def test_tail_rank_of_a_hundred_is_p90():
    assert tail_rank(100) == (89, 90.0)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_rank(TAIL_BEYOND)


def test_latency_summary_reports_the_tail_value():
    values = np.random.default_rng(3).permutation(np.arange(1.0, 101.0))
    summary = latency_summary(values)
    assert summary == {"p50": 50.5, "tail": 90.0, "tail_percentile": 90.0,
                       "count": 100}
    assert np.sum(values > summary["tail"]) == TAIL_BEYOND
    assert latency_summary(values[:TAIL_BEYOND]) == {
        "p50": float(np.median(values[:TAIL_BEYOND])), "count": TAIL_BEYOND}


def test_window_rates_are_steady_through_a_stall():
    instants = np.arange(41) * 0.1  # a batch of 8 every 0.1 s: 80 images/s
    rates = window_rates(np.repeat(instants, 8), 4)
    assert rates == pytest.approx([80.0] * 10)
    stalled = instants + np.where(np.arange(41) >= 5, 1.0, 0.0)
    # One stalled window of ten leaves the median where it was.
    assert np.median(window_rates(np.repeat(stalled, 8), 4)) == pytest.approx(80.0)
    with pytest.raises(ValueError):
        window_rates(np.repeat(instants[:4], 8), 4)


def test_metric_names_match_benchmark_json():
    spec = load_benchmark_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    assert {n: m["unit"] for n, m in end_to_end.items()} == E2E_UNITS
    assert {n: m["unit"] for n, m in per_layer.items()} == LAYER_UNITS
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT_RE.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = end_to_end["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_batch_rows_split_predict_into_parts():
    tracer = Tracer()
    route = tracer.wrap("backend.route", lambda: None)

    def body():
        route()
        route()

    tracer.wrap(PREDICT, body, new_batch=True)()
    tracer.wrap(PREDICT, lambda: None, new_batch=True)()
    rows = tracer.batch_rows(float("-inf"), float("inf"))
    assert len(rows) == 2
    with_parts = [r for r in rows if "backend.route" in r]
    assert len(with_parts) == 1
    assert with_parts[0]["backend.route"] == pytest.approx(
        sum(tracer.durations("backend.route")))
    assert with_parts[0][PREDICT] >= with_parts[0]["backend.route"]
    assert {s[5] for s in tracer.spans} == {1, 2}


def test_shard_log_round_trip():
    log = ShardLog(capacity=2)
    log.append({"start": 1.0, SHARD_PREDICT: 1.5, "dispatches": 59})
    log.append({"start": 3.0, SHARD_PREDICT: 1.0})
    log.append({"start": 9.0})  # past capacity: dropped
    rows = log.rows()
    assert len(rows) == 2
    assert rows[0][SHARD_PREDICT] == 1.5 and rows[0]["dispatches"] == 59
    assert rows[1]["start"] == 3.0 and rows[1][PREDICT] == 0.0
