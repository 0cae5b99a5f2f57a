"""Outside-in tracer: spans and counts around the public functions of `part`.

The package is never edited. `install` rebinds names in `part.training`,
`part.analysis` and `part.experiment`, and the `ModuleGrid.get_param` and
`ModuleGrid.set_param` methods, to wrappers that time each call; `uninstall`
puts the original objects back. A name that the package no longer has is
skipped, so its metrics read 0 instead of raising.

Each span records its name, start, end and parent in memory. A span's self
time is its duration minus the durations of its direct child spans and the
tracer's bookkeeping around them, which is reported on its own
(`bench.tracer.self_s`). The call into a wrapper and the return from it are
not measured and stay in the caller's self time.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager

import numpy as np

# (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER = [
    ("net.forward_task.train.calls", "count", "lower"),
    ("net.forward_task.train.self_s", "s", "lower"),
    ("net.forward_task.train.flops", "flop", "lower"),
    ("net.forward_task.eval.calls", "count", "lower"),
    ("net.forward_task.eval.self_s", "s", "lower"),
    ("net.backward_task.calls", "count", "lower"),
    ("net.backward_task.self_s", "s", "lower"),
    ("net.backward_task.flops", "flop", "lower"),
    ("net.get_param.calls", "count", "lower"),
    ("net.get_param.self_s", "s", "lower"),
    ("net.get_param.bytes", "B", "lower"),
    ("net.set_param.calls", "count", "lower"),
    ("net.set_param.self_s", "s", "lower"),
    ("net.set_param.bytes", "B", "lower"),
    ("net.trainable_keys.calls", "count", "lower"),
    ("net.trainable_keys.self_s", "s", "lower"),
    ("net.trainable_keys.keys", "count", "lower"),
    ("numerics.adam_step.calls", "count", "lower"),
    ("numerics.adam_step.self_s", "s", "lower"),
    ("numerics.adam_step.elements", "count", "lower"),
    ("numerics.adam_step.zero_grad", "count", "lower"),
    ("numerics.softmax_xent_slice.calls", "count", "lower"),
    ("numerics.softmax_xent_slice.self_s", "s", "lower"),
    ("training.loop.calls", "count", "lower"),
    ("training.loop.self_s", "s", "lower"),
    ("training.validate.calls", "count", "lower"),
    ("training.validate.self_s", "s", "lower"),
    ("training.freeze_fingerprint.calls", "count", "lower"),
    ("training.freeze_fingerprint.self_s", "s", "lower"),
    ("training.schedule_round.calls", "count", "lower"),
    ("training.schedule_round.self_s", "s", "lower"),
    ("data.next_batches.calls", "count", "lower"),
    ("data.next_batches.self_s", "s", "lower"),
    ("data.next_batches.batches", "count", "higher"),
    ("data.gen_synthetic_task.self_s", "s", "lower"),
    ("data.oversample_to_equal.self_s", "s", "lower"),
    ("analysis.capture_activations.calls", "count", "lower"),
    ("analysis.capture_activations.self_s", "s", "lower"),
    ("analysis.layerwise_cka_report.calls", "count", "lower"),
    ("analysis.layerwise_cka_report.self_s", "s", "lower"),
    ("analysis.layerwise_cka_report.entries", "count", "higher"),
    ("analysis.cka.calls", "count", "lower"),
    ("analysis.cka.self_s", "s", "lower"),
    ("analysis.hsic.calls", "count", "lower"),
    ("analysis.hsic.self_s", "s", "lower"),
    ("analysis.gram.built", "count", "lower"),
    ("analysis.gram.distinct", "count", "higher"),
    ("analysis.gram.useful_ratio", "ratio", "higher"),
    ("checkpoint.save_checkpoint.self_s", "s", "lower"),
    ("checkpoint.save_checkpoint.bytes", "B", "lower"),
    ("checkpoint.load_checkpoint.self_s", "s", "lower"),
    ("checkpoint.load_checkpoint.bytes", "B", "lower"),
    ("experiment.build_experiment.self_s", "s", "lower"),
    ("experiment.write_report.self_s", "s", "lower"),
    ("experiment.analyze_checkpoint.self_s", "s", "lower"),
    ("bench.run.self_s", "s", "lower"),
    ("bench.tracer.self_s", "s", "lower"),
    ("bench.run.traced_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
]


def matmul_flops(grid, task, n: int) -> int:
    """Multiply-add flops (2 per product) of one forward pass of n samples
    along the task's path: each selected block's x @ W plus the head slice."""
    inner = sum(len(row) * (grid.d_in if l == 0 else grid.d_hid)
                for l, row in enumerate(task.path.rows))
    return 2 * n * grid.d_hid * (inner + task.c)


def _forward_mode(args, kwargs) -> str:
    return kwargs.get("mode", args[3] if len(args) > 3 else "eval")


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


# -- computed counts, one function per wrapped name: (counts, args, kwargs, result)

def _count_forward(counts, args, kwargs, result):
    if _forward_mode(args, kwargs) == "train":
        grid, task, x = args[:3]
        _add(counts, "net.forward_task.train.flops", matmul_flops(grid, task, len(x)))


def _count_backward(counts, args, kwargs, result):
    grid, task, tape = args[:3]
    # weight gradient plus input gradient: twice the forward products
    _add(counts, "net.backward_task.flops",
         2 * matmul_flops(grid, task, tape.h_final.shape[0]))


def _count_adam(counts, args, kwargs, result):
    grads = args[1]
    _add(counts, "numerics.adam_step.elements", grads.size)
    if not np.any(grads):
        _add(counts, "numerics.adam_step.zero_grad", 1)


def _count_get(counts, args, kwargs, result):
    _add(counts, "net.get_param.bytes", result.nbytes)


def _count_set(counts, args, kwargs, result):
    _add(counts, "net.set_param.bytes", np.asarray(args[2]).nbytes)


def _count_keys(counts, args, kwargs, result):
    _add(counts, "net.trainable_keys.keys", len(result))


def _count_batches(counts, args, kwargs, result):
    _add(counts, "data.next_batches.batches", len(result))


def _count_entries(counts, args, kwargs, result):
    entries = sum(1 + len(layer.matrix) ** 2 for layer in result.layers)
    _add(counts, "analysis.layerwise_cka_report.entries", entries)


def _count_save(counts, args, kwargs, result):
    _add(counts, "checkpoint.save_checkpoint.bytes", os.path.getsize(args[1]))


def _count_load(counts, args, kwargs, result):
    _add(counts, "checkpoint.load_checkpoint.bytes", os.path.getsize(args[0]))


# module attribute -> (span name, count function); the span name may be a
# function of the call's arguments
_TRAINING = {
    "forward_task": (lambda a, k: "net.forward_task." + _forward_mode(a, k), _count_forward),
    "backward_task": ("net.backward_task", _count_backward),
    "adam_step": ("numerics.adam_step", _count_adam),
    "softmax_xent_slice": ("numerics.softmax_xent_slice", None),
    "trainable_keys": ("net.trainable_keys", _count_keys),
    "next_batches": ("data.next_batches", _count_batches),
    "schedule_round": ("training.schedule_round", None),
    "validate": ("training.validate", None),
    "freeze_fingerprint": ("training.freeze_fingerprint", None),
}
_ANALYSIS = {
    "forward_task": _TRAINING["forward_task"],
    "cka": ("analysis.cka", None),
    "hsic": ("analysis.hsic", None),
}
_EXPERIMENT = {
    "build_experiment": ("experiment.build_experiment", None),
    "train_parallel": ("training.loop", None),
    "train_sequential": ("training.loop", None),
    "train_single": ("training.loop", None),
    "write_report": ("experiment.write_report", None),
    "save_checkpoint": ("checkpoint.save_checkpoint", _count_save),
    "load_checkpoint": ("checkpoint.load_checkpoint", _count_load),
    "analyze_checkpoint": ("experiment.analyze_checkpoint", None),
    "gen_synthetic_task": ("data.gen_synthetic_task", None),
    "oversample_to_equal": ("data.oversample_to_equal", None),
    "capture_activations": ("analysis.capture_activations", None),
    "layerwise_cka_report": ("analysis.layerwise_cka_report", _count_entries),
}
_GRID = {
    "get_param": ("net.get_param", _count_get),
    "set_param": ("net.set_param", _count_set),
}
# private Gram functions: counted (built and distinct inputs), not timed
_GRAM_FUNCTIONS = ("_gram_linear", "_gram_rbf")


class Tracer:
    """Spans and counts for one process; `reset` starts a fresh operation."""

    def __init__(self):
        self._saved: list = []
        self.paused = False
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []            # (name id, start, end, parent index)
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.gram_keys: set = set()
        self._stack: list = []           # open spans, innermost last
        self.bookkeeping_s = 0.0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        from part import analysis, experiment, training
        from part.net import ModuleGrid

        for owner, table in ((training, _TRAINING), (analysis, _ANALYSIS),
                             (experiment, _EXPERIMENT), (ModuleGrid, _GRID)):
            for attr, (name, count) in table.items():
                self._rebind(owner, attr, lambda fn, n=name, c=count: self._timed(fn, n, c))
        for attr in _GRAM_FUNCTIONS:
            self._rebind(analysis, attr, lambda fn, a=attr: self._gram_counter(fn, a))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr: str, make) -> None:
        original = vars(owner).get(attr)
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- spans -------------------------------------------------------------

    def _timed(self, fn, name, count):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            frame = tracer._open(time.perf_counter())
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                if ok and count is not None:
                    count(tracer.counts, args, kwargs, result)
                tracer._close(frame, name(args, kwargs) if callable(name) else name, end)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _gram_counter(self, fn, attr: str):
        tracer = self

        def wrapper(X, *args, **kwargs):
            if not tracer.paused:
                _add(tracer.counts, "analysis.gram.built", 1)
                digest = hashlib.blake2b(np.ascontiguousarray(X).tobytes(),
                                         digest_size=16).digest()
                tracer.gram_keys.add((attr, X.shape, args, digest))
            return fn(X, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self, enter: float) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        # span index, child seconds, parent index, wrapper entry, start
        frame = [len(self.spans), 0.0, parent, enter, 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        frame[4] = time.perf_counter()
        return frame

    def _close(self, frame: list, name: str, end: float) -> None:
        """Record a span that ended at `end`. The tracer's own time around the
        call (before start, after end) is charged to `bookkeeping_s`, not to
        the caller's self time."""
        self._stack.pop()
        idx, child_s, parent, enter, start = frame
        duration = end - start
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.spans[idx] = (name_id, start, end, parent)
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        self.calls[name] = self.calls.get(name, 0) + 1
        bookkeeping = (start - enter) + (time.perf_counter() - end)
        self.bookkeeping_s += bookkeeping
        if self._stack:
            self._stack[-1][1] += duration + bookkeeping

    @contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as one span."""
        frame = self._open(time.perf_counter())
        try:
            yield
        finally:
            self._close(frame, name, time.perf_counter())

    @contextmanager
    def pause(self):
        """Run a block untraced (e.g. set-up work that is not the workload's)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric this operation can give: calls and self
        time per span name, computed counts, and the Gram ratio. Metrics of
        spans that never ran are 0."""
        out = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        out["bench.tracer.self_s"] = self.bookkeeping_s
        distinct = len(self.gram_keys)
        out["analysis.gram.distinct"] = distinct
        built = self.counts.get("analysis.gram.built", 0)
        out["analysis.gram.useful_ratio"] = distinct / built if built else 0.0
        return {metric: out.get(metric, 0) for metric, _, _ in PER_LAYER}

    def save_spans(self, path) -> None:
        """Write this operation's spans as arrays plus the name table."""
        arr = np.array(self.spans, dtype=np.float64).reshape(-1, 4)
        np.savez_compressed(path, names=np.array(self.names), name_id=arr[:, 0].astype(np.int32),
                            start=arr[:, 1], end=arr[:, 2], parent=arr[:, 3].astype(np.int64))
