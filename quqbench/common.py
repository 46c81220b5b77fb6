"""Workload names, metric specs, traffic and statistics helpers.

Nothing here imports the program under test, so the benchmark's own tests
(``quqbench/tests``) check these rules in milliseconds.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

#: Workload names, in the order ``--workload all`` runs them.
WORKLOADS = ("serve-int-thread", "serve-fq-cluster")

#: End-to-end metrics every workload reports, with their units.  The
#: open-loop latency, median and tail, is printed with each run but not
#: reported here: its spread over ten runs reaches the largest bound a
#: metric may have.
E2E_UNITS = {
    "setup_s": "s",
    "images_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run, with their units.  Times of one
#: batch are means over the batches of the timed phases; request spans
#: are medians over the open-loop requests; set-up spans are medians over
#: the set-ups of one run.  A layer a workload does not run reads 0.
LAYER_UNITS = {
    "quant.calibrate_s": "s",
    "backend.build_s": "s",
    "serve.warm_s": "s",
    "cluster.spawn_s": "s",
    "backend.predict_ms": "ms",
    "backend.route_ms": "ms",
    "backend.weight_decode_ms": "ms",
    "kernels.gemm_ms": "ms",
    "backend.other_ms": "ms",
    "quant.fake_quant_ms": "ms",
    "kernels.dispatches": "count",
    "kernels.cache_misses": "count",
    "backend.weight_bytes": "bytes",
    "serve.submit_us": "us",
    "serve.queue_wait_ms": "ms",
    "serve.exec_ms": "ms",
    "serve.completion_ms": "ms",
    "serve.open.batch_size_mean": "images",
    "serve.open.batches": "count",
    "serve.closed.batch_size_mean": "images",
    "serve.closed.batches": "count",
    "cluster.shard_predict_ms": "ms",
    "cluster.ring_ms": "ms",
    "admission.decide_us": "us",
    "trace.images_per_s": "1/s",
}

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Metric names: a letter or digit first, at most 64 of ``[A-Za-z0-9_.-]``.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
#: Units: at most 16 of ``[A-Za-z0-9_/%.-]``.
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def seed_stream(seed: int, purpose: str) -> np.random.Generator:
    """An independent generator per input kind, fixed by ``seed``.

    Keying on ``purpose`` keeps the image pool and the arrival schedule
    independent, so changing how many images one of them draws never
    shifts the other.
    """
    key = [int(seed)] + [ord(c) for c in purpose]
    return np.random.default_rng(np.random.SeedSequence(key))


def poisson_schedule(rate: float, duration: float, seed: int) -> np.ndarray:
    """Open-loop arrival offsets (seconds from phase start) of a Poisson
    process at ``rate`` per second, truncated to ``[0, duration)``.

    Exponential gaps make the arrivals bursty: requests that land while a
    batch runs queue up and the next batch takes them together.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be > 0")
    rng = seed_stream(seed, "arrivals")
    # Enough gaps that running short has probability far below 1e-9.
    count = int(rate * duration + 12 * np.sqrt(rate * duration) + 16)
    times = np.cumsum(rng.exponential(1.0 / rate, size=count))
    return times[times < duration]


def tail_rank(count: int) -> tuple[int, float]:
    """Index into the ascending-sorted samples of the tail value, and its
    percentile: the highest percentile with at least :data:`TAIL_BEYOND`
    samples beyond it (nearest-rank definition)."""
    if count <= TAIL_BEYOND:
        raise ValueError(
            f"{count} samples: a tail needs more than {TAIL_BEYOND}"
        )
    index = count - TAIL_BEYOND - 1
    return index, 100.0 * (index + 1) / count


def latency_summary(samples_ms) -> dict:
    """Median and sample count, plus the tail value and its percentile
    when there are enough samples for one."""
    values = np.sort(np.asarray(samples_ms, dtype=np.float64))
    summary = {"p50": float(np.median(values)), "count": int(len(values))}
    if len(values) > TAIL_BEYOND:
        index, percentile = tail_rank(len(values))
        summary.update(tail=float(values[index]), tail_percentile=percentile)
    return summary


def window_rates(times, window: int) -> list[float]:
    """Completion rates over consecutive windows of ``window`` batches.

    ``times`` holds one completion instant per image; the images of a batch
    share theirs.  Each window runs from one batch's completion to the
    completion ``window`` batches later and counts the images those
    batches finished.  The median of these keeps a few seconds of a
    slowed host from moving the figure.
    """
    instants, counts = np.unique(np.asarray(times, dtype=np.float64),
                                 return_counts=True)
    if len(instants) <= window:
        raise ValueError(f"{len(instants)} batches: a window needs more than {window}")
    return [float(counts[i + 1:i + window + 1].sum() / (instants[i + window] - instants[i]))
            for i in range(0, len(instants) - window, window)]


def load_benchmark_spec(path: Path = BENCHMARK_JSON) -> dict:
    with open(path) as handle:
        return json.load(handle)
