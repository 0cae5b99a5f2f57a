"""The three learning procedures: parallel, sequential-with-freezing, single.

All three run one training loop over phases. A phase is a list of tasks
that train together for cfg.epochs, with the LR schedule restarted; within
an epoch, batch-sets are interleaved by drawing the next task uniformly
from those with untrained batches left. Parallel training is one phase of
all tasks and never freezes anything. Sequential training is one phase
per task and freezes each task's path (plus its own norm instances and
head slice) when its phase ends. Single-task training, the per-task
achievable baseline, is one one-task phase reported on every task with
data.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .data import BatchPlan, next_batches
from .errors import ContractError, InputError, NumericError
from .net import (
    ModuleGrid,
    TaskSpec,
    backward_kernel,
    backward_task,  # noqa: F401
    forward_kernel,
    forward_task,
    freeze_path,
    freeze_task,
    path_index,
    trainable_keys,  # noqa: F401
)
from .numerics import FlatAdam, adam_step, softmax_xent_kernel, softmax_xent_slice  # noqa: F401

# backward_task, softmax_xent_slice, trainable_keys and adam_step are not
# called here; they stay importable because perfbench/tracer.py wraps them

# spawn-key streams so every consumer of a run seed gets an independent rng
# (grid construction uses the bare seed; stream 1 stays reserved for it)
STREAM_DATA = 0
STREAM_PATHS = 2
STREAM_TRAIN = 3
STREAM_OVERSAMPLE = 4
STREAM_ANALYSIS = 5
STREAM_SCHED = 6


def derive_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def batch_rng(seed: int, task_id: int) -> np.random.Generator:
    """Batch-order stream for one task. Keyed by (seed, task id) only, so a
    task sees the same shuffles whether it trains alone, sequentially, or
    in parallel; with disjoint paths those runs then coincide exactly."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(STREAM_TRAIN, task_id)))


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 16
    batch_set_size: int = 10
    lr0: float = 1e-3
    lr_halve_epochs: tuple[int, ...] = (20, 30, 40)
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise InputError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_set_size < 1:
            raise InputError(f"batch_set_size must be >= 1, got {self.batch_set_size}")
        if self.lr0 <= 0:
            raise InputError(f"lr0 must be positive, got {self.lr0}")
        halves = tuple(self.lr_halve_epochs)
        if list(halves) != sorted(set(halves)):
            raise InputError("lr_halve_epochs must be strictly increasing")
        self.lr_halve_epochs = halves

    def effective_lr(self, epoch: int) -> float:
        """Learning rate at a 1-indexed epoch: lr0 halved once per schedule
        entry that has been reached."""
        n_halved = sum(1 for h in self.lr_halve_epochs if h <= epoch)
        return self.lr0 * 0.5 ** n_halved


@dataclass
class EpochScheduler:
    """Tracks untrained batches per task within one epoch."""

    remaining: dict[int, int]
    batch_set_size: int
    rng: np.random.Generator


def schedule_round(sched: EpochScheduler):
    """Pick a task uniformly among those with batches left and grant it up
    to batch_set_size batches; None signals the epoch is exhausted."""
    eligible = sorted(tid for tid, left in sched.remaining.items() if left > 0)
    if not eligible:
        return None
    tid = eligible[int(sched.rng.integers(len(eligible)))]
    grant = min(sched.batch_set_size, sched.remaining[tid])
    sched.remaining[tid] -= grant
    return tid, grant


@dataclass
class RunReport:
    """Everything a run produced, JSON-serializable.

    epochs: [{epoch, lr, per_task: [{loss, val_acc}]}] where loss is None
    for tasks not trained that epoch (sequential/single baselines).
    """

    config_hash: str | None   # the ExperimentConfig's hash; None for a direct call
    seed: int
    mode: str
    tasks: list[dict]
    epochs: list[dict]
    final: list[dict]
    wallclock_s: float
    freeze_hashes: dict | None = None

    def to_json_dict(self) -> dict:
        """The fields by name (shallow: the lists are shared, not copied),
        without freeze_hashes when it is None."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.freeze_hashes is None:
            del out["freeze_hashes"]
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunReport":
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})

    def final_accuracy(self, task_id: int) -> float:
        for row in self.final:
            if row["task"] == task_id:
                return row["val_acc"]
        raise InputError(f"no final entry for task {task_id}")

    def mean_final_accuracy(self) -> float:
        return float(np.mean([row["val_acc"] for row in self.final]))


def validate(grid: ModuleGrid, task: TaskSpec) -> float:
    """Eval-mode accuracy on the task's validation set; argmax inside the
    task's slice, ties broken toward the lowest index."""
    ds = task.val_ds
    if ds is None or ds.n == 0:
        raise InputError(f"task {task.id} has no validation samples")
    logits, _ = forward_task(grid, task, ds.features, mode="eval")
    pred = np.argmax(logits, axis=1)
    return float(np.mean(pred == ds.labels))


class _ValidationMemo:
    """One training call's validation accuracies, by task. A task's eval
    forward runs again only when a parameter it reads (path rows, running
    statistics included, and head slice: `PathIndex.positions`) differs, bit
    for bit, from its value at that task's last validation, or when those
    positions or the `val_ds` object differ. Equal inputs give an equal
    accuracy, so a hit returns the same number `validate` would.

    The memo holds arrays and the validation set, never the grid or a task,
    and lives as long as the training call that made it."""

    def __init__(self):
        self._last: dict[int, tuple] = {}   # task id -> (positions, val_ds, bits, accuracy)

    def accuracy(self, grid: ModuleGrid, task: TaskSpec) -> float:
        positions = path_index(grid, task).positions
        bits = grid.arena[positions].view(np.uint64)
        last = self._last.get(task.id)
        if (last is not None and last[1] is task.val_ds
                and np.array_equal(last[0], positions) and np.array_equal(last[2], bits)):
            return last[3]
        acc = validate(grid, task)
        self._last[task.id] = (positions, task.val_ds, bits, acc)
        return acc


def _task_rows(tasks: list[TaskSpec]) -> list[dict]:
    return [{"id": t.id, "c": t.c, "slice": list(t.slice)} for t in tasks]


def _train_batch(grid, task, idx, adam, lr, epoch) -> float:
    """Forward, loss and backward kernels, then one fused Adam step over the
    task's trainable tensors in the backward's order. Checks no input:
    `_check_ready` did, once per call, and every planned batch has >= 2
    samples. A non-finite loss, or a non-finite value anywhere in the arena
    afterwards (parameters or running statistics), fails the run."""
    index = path_index(grid, task)
    ds = task.train_ds
    logits, inputs, layers, h = forward_kernel(grid, index, ds.features[idx], True)
    loss, dslice = softmax_xent_kernel(logits, ds.labels[idx])
    grads = backward_kernel(grid, index, inputs, layers, h, dslice, True)
    if index.trainable_keys:
        adam.step(grid.arena, grads, index.segments, lr)
        grid.version += 1
    if not (math.isfinite(loss) and np.isfinite(grid.arena).all()):
        raise NumericError(f"task {task.id} ({task.name}), epoch {epoch}: non-finite "
                           f"loss or parameters after the optimizer step (loss {loss})")
    return loss


def _check_ready(grid: ModuleGrid, tasks: list[TaskSpec]) -> None:
    """Once per training call, before any parameter moves, check each task
    for what `forward_task` and `softmax_xent_slice` check per batch: a path
    and datasets (else ContractError); registered here, a path that fits,
    datasets of d_in finite features with labels in [0, c) (else InputError).
    Datasets are immutable only by convention, so every call checks again."""
    for t in tasks:
        if t.path is None:
            raise ContractError(f"task {t.id} has no path")
        if t.train_ds is None or t.val_ds is None:
            raise ContractError(f"task {t.id} has no datasets attached")
        if t.id >= len(grid.tasks) or grid.tasks[t.id] is not t:
            raise InputError(f"task {t.id} is not registered on this grid")
        t.path.check(grid.n_modules, grid.n_layers)
        for ds in (t.train_ds, t.val_ds):
            if ds.d != grid.d_in:
                raise InputError(f"task {t.id}: dataset {ds.name!r} has {ds.d} features, "
                                 f"the grid takes {grid.d_in}")
            if ds.labels.min() < 0 or ds.labels.max() >= t.c:
                raise InputError(f"task {t.id}: dataset {ds.name!r} has labels outside [0,{t.c})")
            if not np.isfinite(ds.features).all():
                raise InputError(f"task {t.id}: dataset {ds.name!r} has non-finite features")


def _train_phases(grid, mode, phases, report_tasks, cfg, config_hash, log,
                  freeze=False) -> RunReport:
    """The one training loop. Each phase is a (log label, tasks) pair whose
    tasks train together for cfg.epochs, with the LR schedule restarted;
    with `freeze`, each task's path, norm instances and head slice are
    frozen and fingerprinted when its phase ends. Every epoch row reports
    on `report_tasks`; a task outside the phase has loss None. One
    scheduler stream, optimizer and validation memo serve the whole call."""
    t0 = time.perf_counter()
    sched_rng = derive_rng(cfg.seed, STREAM_SCHED)
    adam = FlatAdam(grid.arena.size)
    memo = _ValidationMemo()
    rows = []
    freeze_hashes = {} if freeze else None
    for label, tasks in phases:
        by_id = {t.id: t for t in tasks}
        rngs = {t.id: batch_rng(cfg.seed, t.id) for t in tasks}
        for phase_epoch in range(1, cfg.epochs + 1):
            epoch = len(rows) + 1
            lr = cfg.effective_lr(phase_epoch)
            plans = {t.id: BatchPlan.for_dataset(t.train_ds, cfg.batch_size, rngs[t.id])
                     for t in tasks}
            sched = EpochScheduler(remaining={tid: p.n_batches for tid, p in plans.items()},
                                   batch_set_size=cfg.batch_set_size, rng=sched_rng)
            # the scheduler grants each task of the phase all n_batches (>= 1)
            # of its plan, so the average below divides by that count
            loss_sum = dict.fromkeys(by_id, 0.0)
            while (grant := schedule_round(sched)) is not None:
                tid, count = grant
                for idx in next_batches(by_id[tid].train_ds, plans[tid], count):
                    loss_sum[tid] += _train_batch(grid, by_id[tid], idx, adam, lr, epoch)
            rows.append({"epoch": epoch, "lr": lr, "per_task": [
                {"loss": loss_sum[t.id] / plans[t.id].n_batches if t.id in by_id else None,
                 "val_acc": memo.accuracy(grid, t)} for t in report_tasks]})
            if log:
                log(_format_epoch(rows[-1], label))
        if freeze:
            for t in tasks:
                # fingerprint first, while the cached path index still
                # serves it: freezing moves no value and leaves its keys alone
                freeze_hashes[str(t.id)] = freeze_fingerprint(grid, t)
                freeze_path(grid, t.path)
                freeze_task(grid, t)
    return RunReport(
        config_hash=config_hash, seed=cfg.seed, mode=mode, tasks=_task_rows(report_tasks),
        epochs=rows, final=[{"task": t.id, "val_acc": memo.accuracy(grid, t)}
                            for t in report_tasks],
        wallclock_s=time.perf_counter() - t0, freeze_hashes=freeze_hashes,
    )


def train_parallel(grid: ModuleGrid, tasks: list[TaskSpec], cfg: TrainConfig,
                   config_hash: str | None = None, log=None) -> RunReport:
    """Interleaved multi-task training, one phase of all tasks; every epoch
    consumes each task's full (equal-size) training set in uniformly
    scheduled batch-sets."""
    _check_ready(grid, tasks)
    if grid.frozen:
        raise ContractError("parallel training never runs on a grid with frozen modules")
    sizes = {t.train_ds.n for t in tasks}
    if len(sizes) != 1:
        raise ContractError(f"training sets must be oversampled to equal size, got {sorted(sizes)}")
    return _train_phases(grid, "parallel", [("parallel", tasks)], tasks, cfg, config_hash, log)


def _norm_stats_hash(grid: ModuleGrid, l: int, m: int, nk: int) -> str:
    h = hashlib.sha256()
    for which in ("run_mean", "run_var"):
        h.update(grid._view(grid.arena, ("norm", l, m, nk, which)).tobytes())
    return h.hexdigest()


def freeze_fingerprint(grid: ModuleGrid, task: TaskSpec) -> dict[str, str]:
    """Hashes of the task's frozen surface (every tensor its path index
    keys: path blocks, the norm instances it used, its head slice),
    running stats included."""
    fp = {}
    for key in path_index(grid, task).keys:
        fp[repr(key)] = grid.param_hash(key)
    nk = grid.norm_key(task.id)
    for (l, m) in task.path.modules():
        fp[repr(("norm_stats", l, m, nk))] = _norm_stats_hash(grid, l, m, nk)
    return fp


def train_sequential(grid: ModuleGrid, tasks: list[TaskSpec], cfg: TrainConfig,
                     config_hash: str | None = None, log=None) -> RunReport:
    """Tasks one after another, one phase of cfg.epochs each (the LR
    schedule restarts per task, mirroring a fresh single-task run); each
    finished task's path is frozen before the next task starts."""
    _check_ready(grid, tasks)
    phases = [(f"sequential[task {t.id}]", [t]) for t in tasks]
    return _train_phases(grid, "sequential", phases, tasks, cfg, config_hash, log,
                         freeze=True)


def train_single(grid: ModuleGrid, task: TaskSpec, cfg: TrainConfig,
                 config_hash: str | None = None, log=None) -> RunReport:
    """Train only one task from scratch; every other registered task keeps
    its freshly initialized head slice (and norm instances). The report
    covers every registered task with data."""
    _check_ready(grid, [task])
    report_tasks = [t for t in grid.tasks if t.train_ds is not None and t.val_ds is not None]
    return _train_phases(grid, "single", [(f"single[task {task.id}]", [task])],
                         report_tasks, cfg, config_hash, log)


def _format_epoch(row: dict, label: str) -> str:
    accs = " ".join(f"{pt['val_acc']:.3f}" for pt in row["per_task"])
    losses = [pt["loss"] for pt in row["per_task"] if pt["loss"] is not None]
    loss_str = f"{np.mean(losses):.4f}" if losses else "-"
    return (f"[{label}] epoch {row['epoch']:>3} lr {row['lr']:.2e} "
            f"loss {loss_str} val_acc {accs}")
