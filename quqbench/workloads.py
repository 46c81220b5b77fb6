"""The two workloads: set-up, timed phases, output checks and metrics.

Every workload serves ``vit_mini_s`` under 6-bit QUQ with full coverage.
The network is fixed (seeded random initialisation, calibrated on 32
SynthShapes images, both from :data:`DEPLOY_SEED`), so every run measures
the same deployment; ``--seed`` makes the traffic: the image pool and the
open-loop arrival schedule.  Nothing is trained or downloaded.
"""

from __future__ import annotations

import os
import queue
import resource
import shutil
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.backend import (
    FloatFakeQuantBackend,
    FusedEncoder,
    IntNativeBackend,
    PackedWeight,
)
from repro.data import generate
from repro.hw.executor import ModelExecutor
from repro.kernels import KERNELS
from repro.models import build_model
from repro.quant import PTQPipeline
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    BatchPolicy,
    ClusterEngine,
    ClusterPolicy,
    ModelRegistry,
    ServeEngine,
)

from common import (
    E2E_UNITS,
    LAYER_UNITS,
    latency_summary,
    poisson_schedule,
    seed_stream,
    window_rates,
)
from spans import (
    PREDICT,
    PREDICT_PARTS,
    SHARD_PREDICT,
    ShardLog,
    TracedServable,
    Tracer,
    kernel_counts,
)

MODEL = "vit_mini_s"
BITS = 6
INT_SPEC = f"{MODEL}/quq/{BITS}/full/int"
FQ_SPEC = f"{MODEL}/quq/{BITS}/full"
DEPLOY_SEED = 0
CALIB_IMAGES = 32

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Distinct images per run; requests cycle through them.
POOL = 64
MAX_BATCH = 8
#: Batches per throughput window (``images_per_s`` is the median window).
RATE_WINDOW = 4
#: Rounds of one open-loop then one closed-loop phase, each phase
#: ``1 / (2 * ROUNDS)`` of ``--seconds``.  Alternating spreads both
#: metrics over the whole run, so a slow stretch of the host weighs on
#: the latency and the throughput alike instead of on one of them.
ROUNDS = 4
#: Threads that wait on open-loop requests: more than are ever
#: outstanding at a third of capacity, so each completion is seen when
#: it happens.
WAITERS = 8
WAIT_S = 60.0
#: Served fake-quant logits against the single-image predict: float32
#: rounding through four blocks is ~1e-7 on logits below 1.
FLOAT_ATOL = 1e-5

#: Open-loop rate (about a third of capacity) and closed-loop clients
#: (two full batches per executor: one running, one forming).
SERVE = {
    "serve-int-thread": {"spec": INT_SPEC, "rate": 12.0, "clients": 2 * MAX_BATCH},
    "serve-fq-cluster": {"spec": FQ_SPEC, "rate": 33.0, "clients": 4 * MAX_BATCH},
}
SHARDS = 2

WORK = Path(__file__).resolve().parent / "_work"


def load_model(name: str):
    """The benchmark's loader: seeded random weights, never the zoo's
    train-on-miss path."""
    return build_model(name, seed=DEPLOY_SEED), 0.0


def batch_policy() -> BatchPolicy:
    # Queue and timeout far above what either phase offers, so nothing
    # is refused or expires.
    return BatchPolicy(max_batch_size=MAX_BATCH, max_wait_ms=5.0,
                       max_queue=512, timeout_ms=WAIT_S * 1e3)


def peak_rss_mb(shard_pids=()) -> float:
    """Peak resident set of this process plus each shard's private pages.

    Shards are forked from this process and share its pages until they
    write them; counting those once, here, keeps the figure from moving
    with how much the parent held at the moment it forked.  A shard's
    private pages are read after the timed phases, when it has served
    its largest batches.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in shard_pids:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    kib += int(line.split()[1])
    return kib / 1024.0


def latency_note(summary: dict, samples: str) -> str:
    note = f"latency p50 {summary['p50']:.2f} ms"
    if "tail" in summary:
        note += f", tail {summary['tail']:.2f} ms at p{summary['tail_percentile']:.1f}"
    return f"{note} of {summary['count']} {samples} (printed, not gated)"


class Request:
    """One submitted image and what became of it."""

    __slots__ = ("phase", "due", "sent", "image", "handle", "result", "error",
                 "observed")

    def __init__(self, phase: str, due: float, image: int):
        self.phase, self.due, self.image = phase, due, image
        self.sent = self.observed = None
        self.handle = self.result = self.error = None

    def wait(self) -> None:
        try:
            self.result = self.handle.result(timeout=WAIT_S)
        except Exception as error:  # counted as a failed operation
            self.error = error
        self.observed = time.monotonic()


class Waiters:
    """Threads that block on open-loop requests as they are submitted."""

    def __init__(self, count: int):
        self._queue: queue.Queue = queue.Queue()
        self._threads = [threading.Thread(target=self._run, daemon=True)
                         for _ in range(count)]
        for thread in self._threads:
            thread.start()

    def _run(self) -> None:
        while (record := self._queue.get()) is not None:
            record.wait()

    def put(self, record: Request) -> None:
        self._queue.put(record)

    def close(self) -> None:
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=WAIT_S + 5)


class Run:
    """One workload run: ``execute`` returns the result line's fields."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = float(seconds)
        self.tracer = Tracer() if trace else None
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.layers: dict[str, float] = {name: 0.0 for name in LAYER_UNITS}
        self.setup_s: list[float] = []
        self.setup_windows: list[tuple[float, float]] = []
        self.calib = generate(CALIB_IMAGES, seed=DEPLOY_SEED).images
        pool_seed = int(seed_stream(seed, "images").integers(2**31))
        self.pool = generate(POOL, seed=pool_seed).images
        WORK.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))

    # -- helpers -------------------------------------------------------
    def span(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.span(name, fn, *args, **kwargs)

    def fresh_cache(self, index: int) -> Path:
        """A new, empty cache directory for one set-up: nothing saved by an
        earlier set-up or run can be warm-loaded."""
        path = self.root / f"setup-{index}"
        path.mkdir()
        os.environ["REPRO_CACHE_DIR"] = str(path)
        return path

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def install_tracer(self) -> None:
        tracer = self.tracer
        tracer.patch(PTQPipeline, "calibrate", "quant.calibrate")
        tracer.patch(IntNativeBackend, "__init__", "backend.build")
        tracer.patch(FloatFakeQuantBackend, "__init__", "backend.build")
        tracer.patch(IntNativeBackend, "predict", PREDICT, new_batch=True)
        tracer.patch(FloatFakeQuantBackend, "predict", PREDICT, new_batch=True)
        tracer.patch(FusedEncoder, "route", "backend.route")
        tracer.patch(PackedWeight, "shifted", "backend.weight_decode")
        tracer.patch_kernels(KERNELS)

    def execute(self) -> dict:
        if self.tracer is not None:
            self.install_tracer()
        try:
            e2e, attempted, failed = self.serve()
        finally:
            if self.tracer is not None:
                self.tracer.unpatch()
            os.environ.pop("REPRO_CACHE_DIR", None)
            shutil.rmtree(self.root, ignore_errors=True)
        if self.tracer is not None:
            self.layers["trace.images_per_s"] = e2e["images_per_s"]
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            path = traces / f"{self.workload}-seed{self.seed}.json"
            self.tracer.write(path)
            self.notes.append(f"spans written to {path}")
            values, units = self.layers, LAYER_UNITS
        else:
            values, units = e2e, E2E_UNITS
        self.check(failed == 0, f"{failed} of {attempted} operations failed")
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in units.items()}
        return {"correct": not self.failures, "attempted": attempted,
                "failed": failed, "metrics": metrics}

    def setup_layers(self) -> None:
        """Median per set-up of each set-up span (traced runs)."""
        names = {"quant.calibrate": "quant.calibrate_s",
                 "backend.build": "backend.build_s",
                 "serve.warm": "serve.warm_s", "cluster.spawn": "cluster.spawn_s"}
        for span, metric in names.items():
            per_setup = [sum(self.tracer.durations(span, lo, hi))
                         for lo, hi in self.setup_windows]
            self.layers[metric] = float(np.median(per_setup))

    def batch_layers(self, rows: list[dict], dispatches: float,
                     misses: float) -> None:
        """Per-batch layer means from rows of span seconds (traced runs)."""
        if not rows:
            self.failures.append("traced run recorded no timed batch")
            return
        mean = {name: 1e3 * float(np.mean([r.get(name, 0.0) for r in rows]))
                for name in (PREDICT,) + PREDICT_PARTS}
        self.layers["backend.predict_ms"] = mean[PREDICT]
        self.layers["backend.route_ms"] = mean["backend.route"]
        self.layers["backend.weight_decode_ms"] = mean["backend.weight_decode"]
        self.layers["kernels.gemm_ms"] = mean["kernels.gemm"]
        self.layers["quant.fake_quant_ms"] = mean["quant.fake_quant"]
        self.layers["backend.other_ms"] = mean[PREDICT] - sum(
            mean[name] for name in PREDICT_PARTS)
        self.layers["kernels.dispatches"] = dispatches / len(rows)
        self.layers["kernels.cache_misses"] = misses

    def check_datapaths(self, model, pipeline, int_backend=None) -> None:
        """The int logits on a sample batch equal the reference
        :class:`ModelExecutor` bit for bit.  How many of the same images
        the fake-quant datapath disagrees on is reported, not gated: about
        one image in thirty differs by a quantization step, so whether a
        sample passes depends on the traffic seed."""
        sample = self.pool[:4]
        if int_backend is None:
            int_backend = IntNativeBackend(model, pipeline, bits=BITS)
        logits = int_backend.predict(sample)
        reference = ModelExecutor(model, pipeline, bits=BITS).run(sample)
        self.check(np.array_equal(logits, reference),
                   "int logits differ from hw.executor.ModelExecutor")
        fake = FloatFakeQuantBackend(model, pipeline).predict(sample)
        gaps = np.max(np.abs(logits - fake), axis=1)
        self.notes.append(
            f"int vs fake-quant: {int(np.sum(gaps > FLOAT_ATOL))} of {len(sample)} images "
            f"differ by more than {FLOAT_ATOL:g}, max |diff| {float(gaps.max()):.2e} "
            "(reported, not gated)")

    def singles(self, backend) -> np.ndarray:
        """Each pool image's logits from a batch of one."""
        return np.stack([backend.predict(self.pool[i:i + 1])[0]
                         for i in range(POOL)])

    # -- the timed run ---------------------------------------------------
    def serve(self):
        config = SERVE[self.workload]
        spec = config["spec"]
        cluster = self.workload == "serve-fq-cluster"
        log = ShardLog() if cluster and self.tracer is not None else None
        engine = None
        try:
            for index in range(SETUPS):
                if engine is not None:
                    engine.stop()
                registry, engine = self.serve_setup(index, spec, cluster, log)
            servable = registry.get(spec)
            counts = kernel_counts(KERNELS)
            submit = engine.submit
            if self.tracer is not None:
                submit = self.tracer.wrap("serve.submit", engine.submit)
            phase_s = self.seconds / (2 * ROUNDS)
            arrivals = poisson_schedule(config["rate"], ROUNDS * phase_s, self.seed)
            opened, closed, rates = [], [], []
            for begin in phase_s * np.arange(ROUNDS):
                part = arrivals[(arrivals >= begin) & (arrivals < begin + phase_s)]
                opened += self.open_loop(submit, spec, part - begin, len(opened))
                records, closing = self.closed_loop(submit, spec, config["clients"],
                                                    phase_s)
                closed += records
                rates += window_rates([r.handle.completed_at for r in records
                                       if r.result is not None
                                       and r.handle.completed_at <= closing],
                                      RATE_WINDOW)
            after = kernel_counts(KERNELS)
            snapshot = engine.snapshot()
            pids = [shard["pid"] for shard in snapshot["lanes"][spec].get("shards", [])]
            rss = peak_rss_mb(pids)
        finally:
            if engine is not None:
                engine.stop()

        records = opened + closed
        errors = [r.error for r in records if r.error is not None]
        if errors:
            self.notes.append(f"{len(errors)} requests failed, first: {errors[0]!r}")
        self.check(snapshot["counters"].get("rejected_total", 0) == 0,
                   "engine refused requests")
        served = [r for r in opened if r.result is not None]
        summary = latency_summary([1e3 * (r.observed - r.due) for r in served])
        e2e = {
            "setup_s": float(np.median(self.setup_s)),
            "images_per_s": float(np.median(rates)),
            "peak_rss_mb": rss,
        }
        late = [1e3 * (r.sent - r.due) for r in opened]
        self.notes.append(
            f"{ROUNDS} rounds of {phase_s:g} s open, {phase_s:g} s closed loop: "
            f"{len(opened)} open-loop requests at {config['rate']}/s (generator "
            f"late p50 {np.median(late):.2f} ms, max {max(late):.2f} ms); "
            f"{len(closed)} closed-loop with {config['clients']} outstanding, "
            f"{len(rates)} throughput windows")
        self.notes.append(latency_note(summary, "open-loop requests"))

        if self.tracer is not None:
            self.request_layers(opened, closed, log, cluster, after[0] - counts[0],
                                after[1] - counts[1], servable)
        self.check_results(records, self.singles(servable.backend),
                           exact=servable.backend.name == "int")
        self.check_datapaths(servable.model, servable.pipeline,
                             None if cluster else servable.backend)
        return e2e, len(records), len(errors)

    def serve_setup(self, index: int, spec: str, cluster: bool, log):
        """One timed set-up: registry, engine, warm-up requests."""
        cache = self.fresh_cache(index)
        start = time.monotonic()
        registry = ModelRegistry(capacity=1, artifact_dir=cache / "serve",
                                 loader=load_model, calib_provider=lambda: self.calib)
        if cluster:
            servable = self.span("serve.warm", registry.get, spec)
            if log is not None:
                servable = TracedServable(servable, log, self.tracer, KERNELS)
            admission = AdmissionController(AdmissionPolicy())
            if self.tracer is not None:
                self.tracer.patch(admission, "decide", "admission.decide")
            engine = ClusterEngine(
                loader=lambda _spec: servable,
                policy=batch_policy(),
                cluster=ClusterPolicy(shards=SHARDS, image_hw=self.pool.shape[1],
                                      channels=self.pool.shape[3]),
                admission=admission,
            )
            self.span("cluster.spawn", engine.warm, spec)
        else:
            engine = ServeEngine(registry, policy=batch_policy())
            self.span("serve.warm", engine.warm, spec)
        warm = [engine.submit(spec, self.pool[i]) for i in range(2 * MAX_BATCH)]
        for handle in warm:
            handle.result(timeout=WAIT_S)  # fills the kernel caches
        end = time.monotonic()
        self.setup_s.append(end - start)
        self.setup_windows.append((start, end))
        stats = registry.stats
        self.check(stats["calibrations"] == 1 and stats["warm_loads"] == 0,
                   f"set-up {index}: {stats['calibrations']} calibrations, "
                   f"{stats['warm_loads']} warm loads (want 1 and 0)")
        return registry, engine

    def open_loop(self, submit, spec: str, offsets, first: int) -> list[Request]:
        """Requests due at ``offsets`` (seconds from now), numbered from
        ``first``; returns once every reply is in.  Latency counts from
        each due time."""
        waiters = Waiters(WAITERS)
        records = []
        start = time.monotonic() + 0.01
        try:
            for number, offset in enumerate(offsets, first):
                record = Request("open", start + offset, number % POOL)
                delay = record.due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                record.sent = time.monotonic()
                records.append(record)
                try:
                    record.handle = submit(spec, self.pool[record.image])
                except Exception as error:  # refused: a failed operation
                    record.error, record.observed = error, time.monotonic()
                    continue
                waiters.put(record)
        finally:
            waiters.close()
        return records

    def closed_loop(self, submit, spec: str, clients: int, seconds: float):
        """``clients`` callers that each wait for a reply before sending
        again, for ``seconds``; returns the records and the time they
        stopped sending."""
        records: list[Request] = []
        stop_at = time.monotonic() + seconds

        def client(first: int) -> None:
            number = first
            while time.monotonic() < stop_at:
                record = Request("closed", time.monotonic(), number % POOL)
                record.sent = record.due
                records.append(record)
                number += clients
                try:
                    record.handle = submit(spec, self.pool[record.image])
                except Exception as error:
                    record.error, record.observed = error, time.monotonic()
                    return
                record.wait()
                if record.error is not None:
                    return

        threads = [threading.Thread(target=client, args=(i,), daemon=True)
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=stop_at - time.monotonic() + WAIT_S + 5)
        return records, stop_at

    def check_results(self, records: list[Request], reference: np.ndarray,
                      exact: bool) -> None:
        """Every served result is quantized, labelled by its argmax, and
        equal to the single-image predict of its image: bit for bit when
        ``exact`` (integer arithmetic), else within :data:`FLOAT_ATOL`."""
        bad = {"float": 0, "label": 0, "logits": 0}
        for record in records:
            result = record.result
            if result is None:
                continue
            bad["float"] += not result.quantized
            bad["label"] += result.label != int(np.argmax(result.logits))
            expected = reference[record.image]
            if exact:
                same = np.array_equal(result.logits, expected)
            else:
                same = np.allclose(result.logits, expected, rtol=0.0, atol=FLOAT_ATOL)
            bad["logits"] += not same
        self.check(bad["float"] == 0, f"{bad['float']} results not quantized")
        self.check(bad["label"] == 0, f"{bad['label']} labels are not the argmax")
        self.check(bad["logits"] == 0,
                   f"{bad['logits']} results differ from single-image predict")

    def request_layers(self, opened, closed, log, cluster, dispatches, misses,
                       servable) -> None:
        """Request, batch and shard metrics of a traced serve run."""
        tracer = self.tracer
        self.setup_layers()
        stamps = [r for r in opened + closed if r.result is not None]
        for r in stamps:
            h = r.handle
            tracer.add("serve.queue_wait", h.enqueued_at, h.dispatched_at, h.seq)
            tracer.add("serve.exec", h.dispatched_at, h.completed_at, h.seq)
            tracer.add("serve.completion", h.completed_at, r.observed, h.seq)
        timed = [r for r in opened if r.result is not None]
        lo = min(r.sent for r in stamps)
        hi = max(r.observed for r in stamps)
        self.layers["serve.submit_us"] = 1e6 * float(np.median(
            tracer.durations("serve.submit", lo, hi)))
        self.layers["serve.queue_wait_ms"] = 1e3 * float(np.median(
            [r.handle.dispatched_at - r.handle.enqueued_at for r in timed]))
        self.layers["serve.exec_ms"] = 1e3 * float(np.median(
            [r.handle.completed_at - r.handle.dispatched_at for r in timed]))
        self.layers["serve.completion_ms"] = 1e3 * float(np.median(
            [r.observed - r.handle.completed_at for r in timed]))

        batches = {}
        for r in stamps:
            batches.setdefault(r.handle.dispatched_at, []).append(r)
        for phase in ("open", "closed"):
            sizes = [len(b) for b in batches.values() if b[0].phase == phase]
            self.layers[f"serve.{phase}.batches"] = len(sizes)
            self.layers[f"serve.{phase}.batch_size_mean"] = float(np.mean(sizes))

        if not cluster:
            self.batch_layers(tracer.batch_rows(lo, hi), dispatches, misses)
            self.layers["backend.weight_bytes"] = \
                servable.backend.memory_info()["packed_weight_bytes"]
            return
        self.layers["backend.weight_bytes"] = \
            servable.backend.memory_info()["float_weight_bytes"]
        self.layers["admission.decide_us"] = 1e6 * float(np.median(
            tracer.durations("admission.decide", lo, hi)))
        # Every shard batch of the timed phases; the ring's share of a
        # batch is its mean exec time beyond the shard's own predict.
        rows = [row for row in log.rows() if lo <= row["start"] <= hi]
        self.batch_layers(rows, sum(r["dispatches"] for r in rows),
                          sum(r["cache_misses"] for r in rows))
        if not rows:
            return
        shard_ms = 1e3 * float(np.mean([r[SHARD_PREDICT] for r in rows]))
        exec_ms = 1e3 * float(np.mean([g[0].handle.completed_at - g[0].handle.dispatched_at
                                       for g in batches.values()]))
        self.layers["cluster.shard_predict_ms"] = shard_ms
        self.layers["cluster.ring_ms"] = exec_ms - shard_ms


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns ``(result line, notes)``."""
    run = Run(workload, seed, seconds, trace)
    result = run.execute()
    return result, run.notes + [f"check failed: {f}" for f in run.failures]
