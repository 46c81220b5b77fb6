"""In-memory span recorder for the traced run.

The traced run wraps the public entry points of each layer from the
benchmark's side (class attributes and the kernel registry's ``get``), so
the program itself carries no instrumentation.  A span is
``(id, name, start, end, parent, batch, request)``: ``parent`` is the span
open on the same thread when it started, ``batch`` the id of the enclosing
``backend.predict`` span, and ``request`` a served request's submission
number.  Spans stay in memory and are written out as JSON at the end.

Shard processes of the cluster are forked after the wrappers are
installed, so they trace into their own copy of the recorder;
:class:`ShardLog` and :class:`TracedServable` carry each shard batch's
totals back to the parent through shared memory.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing
import threading
import time

import numpy as np

#: Spans that make up one ``backend.predict`` (the per-batch breakdown).
PREDICT = "backend.predict"
PREDICT_PARTS = ("backend.route", "backend.weight_decode", "kernels.gemm",
                 "quant.fake_quant")
#: Kernel-registry ops timed through the registry's ``get``.
KERNEL_SPANS = {"gemm.int": "kernels.gemm", "quq.fake_quantize": "quant.fake_quant"}
#: Shard-table field: seconds of one shard's servable ``predict`` call.
SHARD_PREDICT = "cluster.shard_predict"


def kernel_counts(registry) -> tuple[int, int]:
    """``(dispatches, cache misses)`` so far in this process."""
    counters = dict(registry.counters)
    dispatches = sum(v for k, v in counters.items() if ":cache_" not in k)
    misses = sum(v for k, v in counters.items() if k.endswith(":cache_miss"))
    return dispatches, misses


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._batches = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, start, end, request) -> None:
        """Record a span of one request, timed from its timestamps."""
        self.spans.append((next(self._ids), name, start, end, None, None, request))

    def wrap(self, name: str, fn, new_batch: bool = False):
        """``fn`` recording one span named ``name`` per call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent, batch = stack[-1] if stack else (None, None)
            span_id = next(tracer._ids)
            if new_batch:
                batch = next(tracer._batches)
            stack.append((span_id, batch))
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, batch, None))

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installing wrappers -------------------------------------------
    def patch(self, owner, attr: str, name: str, new_batch: bool = False) -> None:
        saved = owner.__dict__.get(attr, _ABSENT) if isinstance(owner, type) else _ABSENT
        self._patches.append((owner, attr, saved))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), new_batch))

    def patch_kernels(self, registry) -> None:
        """Time the ops in :data:`KERNEL_SPANS` at every dispatch."""
        original = registry.get
        tracer = self

        def get(op, prefer=None):
            fn = original(op, prefer)
            name = KERNEL_SPANS.get(op)
            return fn if name is None else tracer.wrap(name, fn)

        self._patches.append((registry, "get", _ABSENT))
        registry.get = get

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # -- reading spans -------------------------------------------------
    def durations(self, name: str, start: float = float("-inf"),
                  end: float = float("inf")) -> list[float]:
        """Durations (s) of ``name`` spans lying inside ``[start, end]``."""
        return [s[3] - s[2] for s in self.spans
                if s[1] == name and s[2] >= start and s[3] <= end]

    def batch_rows(self, start: float, end: float) -> list[dict]:
        """Per-batch seconds of :data:`PREDICT` and its parts, for every
        predict span inside ``[start, end]``."""
        rows = {s[0]: {PREDICT: s[3] - s[2]} for s in self.spans
                if s[1] == PREDICT and s[2] >= start and s[3] <= end}
        for span in self.spans:
            row = rows.get(span[4])
            if row is not None and span[1] in PREDICT_PARTS:
                row[span[1]] = row.get(span[1], 0.0) + span[3] - span[2]
        return list(rows.values())

    def since(self, mark: int) -> dict:
        """Seconds per name over spans recorded after index ``mark``."""
        totals: dict[str, float] = {}
        for span in self.spans[mark:]:
            totals[span[1]] = totals.get(span[1], 0.0) + span[3] - span[2]
        return totals

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "batch", "request")
        with open(path, "w") as handle:
            json.dump([dict(zip(keys, s)) for s in self.spans], handle)


_ABSENT = object()


class ShardLog:
    """Fixed-size table in fork-inherited shared memory: one row per shard
    batch, appended by the shard, read by the parent."""

    FIELDS = ("start", SHARD_PREDICT, "dispatches", "cache_misses",
              PREDICT) + PREDICT_PARTS

    def __init__(self, capacity: int = 1 << 14):
        ctx = multiprocessing.get_context("fork")
        self.capacity = capacity
        self._table = ctx.RawArray("d", capacity * len(self.FIELDS))
        self._count = ctx.Value("q", 0)

    def append(self, values: dict) -> None:
        with self._count.get_lock():
            row = self._count.value
            if row >= self.capacity:
                return
            self._count.value = row + 1
        base = row * len(self.FIELDS)
        for offset, field in enumerate(self.FIELDS):
            self._table[base + offset] = float(values.get(field, 0.0))

    def rows(self) -> list[dict]:
        with self._count.get_lock():
            count = self._count.value
        table = np.frombuffer(self._table, dtype=np.float64)
        table = table[: count * len(self.FIELDS)].reshape(count, len(self.FIELDS))
        return [dict(zip(self.FIELDS, row.tolist())) for row in table]


class TracedServable:
    """The servable a cluster shard loads, timing each batch it predicts.

    Runs inside the shard: the shard's forked :class:`Tracer` times the
    layers, and this wrapper appends the batch's totals to the
    :class:`ShardLog`.
    """

    def __init__(self, servable, log: ShardLog, tracer: Tracer, registry):
        self._servable = servable
        self._log = log
        self._tracer = tracer
        self._registry = registry

    @property
    def quantized(self) -> bool:
        return self._servable.quantized

    def predict(self, images, recorder=None):
        mark = len(self._tracer.spans)
        dispatches, misses = kernel_counts(self._registry)
        start = time.monotonic()
        logits = self._servable.predict(images, recorder=recorder)
        end = time.monotonic()
        after = kernel_counts(self._registry)
        self._log.append({
            "start": start, SHARD_PREDICT: end - start,
            "dispatches": after[0] - dispatches, "cache_misses": after[1] - misses,
            **self._tracer.since(mark),
        })
        return logits

    def predict_float(self, images):
        return self._servable.predict_float(images)
