"""The three learning procedures: parallel, sequential-with-freezing, single.

Parallel training interleaves batch-sets from all tasks within each epoch,
drawing the next task uniformly from those with untrained batches left,
and never freezes anything. Sequential training runs tasks one after
another and freezes each task's path (plus its own norm instances and
head slice) when it finishes. Single-task training is the per-task
achievable baseline.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .data import BatchPlan, next_batches
from .errors import ContractError, InputError, NumericError
from .net import (
    ModuleGrid,
    TaskSpec,
    backward_task,
    forward_task,
    freeze_path,
    freeze_task,
    trainable_keys,  # noqa: F401
    trainable_segments,
)
from .numerics import FlatAdam, adam_step, softmax_xent_slice  # noqa: F401

# trainable_keys and adam_step are no longer called here (the fused step
# replaced them); they stay importable from this module because the
# benchmark's tracer (perfbench/tracer.py) wraps them under these names

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
    norm_mode: str = "shared"

    def __post_init__(self):
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

    def canonical_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


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

    config_hash: str
    seed: int
    mode: str
    tasks: list[dict]
    epochs: list[dict]
    final: list[dict]
    wallclock_s: float
    freeze_hashes: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "mode": self.mode,
            "tasks": self.tasks,
            "epochs": self.epochs,
            "final": self.final,
            "wallclock_s": self.wallclock_s,
        }
        if self.freeze_hashes is not None:
            out["freeze_hashes"] = self.freeze_hashes
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunReport":
        return cls(config_hash=d["config_hash"], seed=d["seed"], mode=d["mode"],
                   tasks=d["tasks"], epochs=d["epochs"], final=d["final"],
                   wallclock_s=d["wallclock_s"], freeze_hashes=d.get("freeze_hashes"))

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


def _task_rows(tasks: list[TaskSpec]) -> list[dict]:
    return [{"id": t.id, "c": t.c, "slice": list(t.slice)} for t in tasks]


def _train_batch(grid, task, idx, adam, lr, epoch) -> float:
    """Forward, backward and one fused Adam step over the task's trainable
    tensors. A non-finite loss, or a non-finite value anywhere in the arena
    afterwards (updated parameters or running statistics), fails the run."""
    ds = task.train_ds
    X = ds.features[idx]
    y = ds.labels[idx]
    logits, tape = forward_task(grid, task, X, mode="train")
    start, end = task.slice
    full = np.zeros((len(idx), grid.c_total))
    full[:, start:end] = logits
    loss, dlogits = softmax_xent_slice(full, y, task.slice)
    grads = backward_task(grid, task, tape, dlogits)
    keys, segments = trainable_segments(grid, task)
    if keys:
        flat = np.concatenate([grads[key].ravel() for key in keys])
        adam.step(grid.arena, flat, segments, lr)
        grid.version += 1
    if not (math.isfinite(loss) and np.isfinite(grid.arena).all()):
        raise NumericError(f"task {task.id} ({task.name}), epoch {epoch}: non-finite "
                           f"loss or parameters after the optimizer step (loss {loss})")
    return loss


def _epoch_row(grid, tasks, epoch, lr, loss_by_task) -> dict:
    per_task = []
    for t in tasks:
        per_task.append({
            "loss": loss_by_task.get(t.id),
            "val_acc": validate(grid, t),
        })
    return {"epoch": epoch, "lr": lr, "per_task": per_task}


def _final_rows(grid, tasks) -> list[dict]:
    return [{"task": t.id, "val_acc": validate(grid, t)} for t in tasks]


def _check_ready(tasks: list[TaskSpec]) -> None:
    for t in tasks:
        if t.path is None:
            raise ContractError(f"task {t.id} has no path")
        if t.train_ds is None or t.val_ds is None:
            raise ContractError(f"task {t.id} has no datasets attached")


def train_parallel(grid: ModuleGrid, tasks: list[TaskSpec], cfg: TrainConfig,
                   config_hash: str | None = None, log=None) -> RunReport:
    """Interleaved multi-task training; every epoch consumes each task's
    full (equal-size) training set in uniformly scheduled batch-sets."""
    _check_ready(tasks)
    if grid.frozen:
        raise ContractError("parallel training never runs on a grid with frozen modules")
    sizes = {t.train_ds.n for t in tasks}
    if len(sizes) != 1:
        raise ContractError(f"training sets must be oversampled to equal size, got {sorted(sizes)}")
    t0 = time.perf_counter()
    rngs = {t.id: batch_rng(cfg.seed, t.id) for t in tasks}
    sched_rng = derive_rng(cfg.seed, STREAM_SCHED)
    adam = FlatAdam(grid.arena.size)
    epoch_rows = []
    for epoch in range(1, cfg.epochs + 1):
        lr = cfg.effective_lr(epoch)
        plans = {t.id: BatchPlan.for_dataset(t.train_ds, cfg.batch_size, rngs[t.id])
                 for t in tasks}
        sched = EpochScheduler(
            remaining={t.id: plans[t.id].n_batches for t in tasks},
            batch_set_size=cfg.batch_set_size,
            rng=sched_rng,
        )
        loss_sum: dict[int, float] = {}
        loss_n: dict[int, int] = {}
        by_id = {t.id: t for t in tasks}
        while (grant := schedule_round(sched)) is not None:
            tid, count = grant
            task = by_id[tid]
            for idx in next_batches(task.train_ds, plans[tid], count):
                loss = _train_batch(grid, task, idx, adam, lr, epoch)
                loss_sum[tid] = loss_sum.get(tid, 0.0) + loss
                loss_n[tid] = loss_n.get(tid, 0) + 1
        mean_loss = {tid: loss_sum[tid] / loss_n[tid] for tid in loss_sum}
        row = _epoch_row(grid, tasks, epoch, lr, mean_loss)
        epoch_rows.append(row)
        if log:
            log(_format_epoch(row, "parallel"))
    return RunReport(
        config_hash=config_hash or cfg.canonical_hash(),
        seed=cfg.seed, mode="parallel", tasks=_task_rows(tasks),
        epochs=epoch_rows, final=_final_rows(grid, tasks),
        wallclock_s=time.perf_counter() - t0,
    )


def _freeze_surface_keys(grid: ModuleGrid, task: TaskSpec) -> list:
    """Every tensor that becomes immutable when this task finishes:
    path block weights, the norm instances the task was using, and the
    task's head slice."""
    keys = []
    nk = grid.norm_key(task.id)
    for (l, m) in task.path.modules():
        keys.append(("block", l, m, "W"))
        keys.append(("block", l, m, "b"))
        keys.append(("norm", l, m, nk, "gamma"))
        keys.append(("norm", l, m, nk, "beta"))
    keys.append(("head", task.id, "W"))
    keys.append(("head", task.id, "b"))
    return keys


def _norm_stats_hash(grid: ModuleGrid, l: int, m: int, nk: int) -> str:
    inst = grid.layers[l][m].norms[nk]
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(inst.run_mean).tobytes())
    h.update(np.ascontiguousarray(inst.run_var).tobytes())
    return h.hexdigest()


def freeze_fingerprint(grid: ModuleGrid, task: TaskSpec) -> dict[str, str]:
    """Hashes of the task's frozen surface, running stats included."""
    fp = {}
    for key in _freeze_surface_keys(grid, task):
        fp[repr(key)] = grid.param_hash(key)
    nk = grid.norm_key(task.id)
    for (l, m) in task.path.modules():
        fp[repr(("norm_stats", l, m, nk))] = _norm_stats_hash(grid, l, m, nk)
    return fp


def train_sequential(grid: ModuleGrid, tasks: list[TaskSpec], cfg: TrainConfig,
                     config_hash: str | None = None, log=None) -> RunReport:
    """Tasks one after another, cfg.epochs each (the LR schedule restarts
    per task, mirroring a fresh single-task run); each finished task's
    path is frozen before the next task starts."""
    _check_ready(tasks)
    t0 = time.perf_counter()
    sched_rng = derive_rng(cfg.seed, STREAM_SCHED)
    adam = FlatAdam(grid.arena.size)
    epoch_rows = []
    freeze_hashes: dict[str, dict] = {}
    global_epoch = 0
    for task in tasks:
        rng = batch_rng(cfg.seed, task.id)
        for epoch in range(1, cfg.epochs + 1):
            global_epoch += 1
            lr = cfg.effective_lr(epoch)
            plan = BatchPlan.for_dataset(task.train_ds, cfg.batch_size, rng)
            sched = EpochScheduler(remaining={task.id: plan.n_batches},
                                   batch_set_size=cfg.batch_set_size, rng=sched_rng)
            loss_sum, loss_n = 0.0, 0
            while (grant := schedule_round(sched)) is not None:
                _, count = grant
                for idx in next_batches(task.train_ds, plan, count):
                    loss_sum += _train_batch(grid, task, idx, adam, lr, global_epoch)
                    loss_n += 1
            row = _epoch_row(grid, tasks, global_epoch, lr,
                             {task.id: loss_sum / max(loss_n, 1)})
            epoch_rows.append(row)
            if log:
                log(_format_epoch(row, f"sequential[task {task.id}]"))
        freeze_path(grid, task.path)
        freeze_task(grid, task)
        freeze_hashes[str(task.id)] = freeze_fingerprint(grid, task)
    return RunReport(
        config_hash=config_hash or cfg.canonical_hash(),
        seed=cfg.seed, mode="sequential", tasks=_task_rows(tasks),
        epochs=epoch_rows, final=_final_rows(grid, tasks),
        wallclock_s=time.perf_counter() - t0,
        freeze_hashes=freeze_hashes,
    )


def train_single(grid: ModuleGrid, task: TaskSpec, cfg: TrainConfig,
                 config_hash: str | None = None, log=None) -> RunReport:
    """Train only one task from scratch; every other registered task keeps
    its freshly initialized head slice (and norm instances)."""
    _check_ready([task])
    t0 = time.perf_counter()
    rng = batch_rng(cfg.seed, task.id)
    sched_rng = derive_rng(cfg.seed, STREAM_SCHED)
    adam = FlatAdam(grid.arena.size)
    epoch_rows = []
    report_tasks = [t for t in grid.tasks if t.train_ds is not None and t.val_ds is not None]
    for epoch in range(1, cfg.epochs + 1):
        lr = cfg.effective_lr(epoch)
        plan = BatchPlan.for_dataset(task.train_ds, cfg.batch_size, rng)
        sched = EpochScheduler(remaining={task.id: plan.n_batches},
                               batch_set_size=cfg.batch_set_size, rng=sched_rng)
        loss_sum, loss_n = 0.0, 0
        while (grant := schedule_round(sched)) is not None:
            _, count = grant
            for idx in next_batches(task.train_ds, plan, count):
                loss_sum += _train_batch(grid, task, idx, adam, lr, epoch)
                loss_n += 1
        row = _epoch_row(grid, report_tasks, epoch, lr,
                         {task.id: loss_sum / max(loss_n, 1)})
        epoch_rows.append(row)
        if log:
            log(_format_epoch(row, f"single[task {task.id}]"))
    return RunReport(
        config_hash=config_hash or cfg.canonical_hash(),
        seed=cfg.seed, mode="single", tasks=_task_rows(report_tasks),
        epochs=epoch_rows, final=_final_rows(grid, report_tasks),
        wallclock_s=time.perf_counter() - t0,
    )


def _format_epoch(row: dict, label: str) -> str:
    accs = " ".join(f"{pt['val_acc']:.3f}" for pt in row["per_task"])
    losses = [pt["loss"] for pt in row["per_task"] if pt["loss"] is not None]
    loss_str = f"{np.mean(losses):.4f}" if losses else "-"
    return (f"[{label}] epoch {row['epoch']:>3} lr {row['lr']:.2e} "
            f"loss {loss_str} val_acc {accs}")
