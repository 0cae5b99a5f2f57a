"""Training: `train`, one loop over `Phase` values, and `SCHEDULES`, each mode's
phases. A freezing phase's report keeps `net.freeze_fingerprint` of its tasks.
A phase's frozen prefix runs once per epoch per task (`net.forward_prefix`),
and each training step runs in the phase's `net.Workspace` of its shape."""

from __future__ import annotations

import bisect
import math
import time
from collections import deque
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .data import BatchPlan, next_batches
from .errors import ContractError, InputError, NumericError
from .net import (
    ModuleGrid,
    TaskSpec,
    Workspace,
    _check_integers,
    backward_kernel,
    backward_task,  # noqa: F401
    forward_kernel,
    forward_prefix,
    forward_task,
    freeze,
    freeze_fingerprint,
    pass_shape,
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
        self.epochs, self.batch_size, self.batch_set_size = _check_integers(
            epochs=self.epochs, batch_size=self.batch_size, batch_set_size=self.batch_set_size)
        if self.epochs < 0:
            raise InputError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_set_size < 1:
            raise InputError(f"batch_set_size must be >= 1, got {self.batch_set_size}")
        if not 0 < self.lr0 < math.inf:
            raise InputError(f"lr0 must be positive and finite, got {self.lr0}")
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
    for tasks outside that epoch's phase.
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


def validate(grid: ModuleGrid, task: TaskSpec, inputs: list | None = None) -> float:
    """Eval-mode accuracy on the task's validation set; argmax inside the
    task's slice, ties broken toward the lowest index.

    `inputs` serves `_ValidationMemo`. Given, it holds h_0 .. h_k: the
    inputs that layers 0 .. k (k = L: the head) took in an earlier eval pass
    on this `val_ds`, whose parameters below layer k are the current ones.
    The pass then resumes at layer k (k = 0 runs it whole, as does an empty
    list), and `inputs` is completed in place to h_0 .. h_L, the last being
    the input of the head."""
    ds = task.val_ds
    if ds is None:
        raise InputError(f"task {task.id} has no validation samples")
    start = len(inputs) - 1 if inputs else 0
    if start:
        logits, tape = forward_kernel(grid, path_index(grid, task), inputs[start], False, start)
    else:
        logits, tape = forward_task(grid, task, ds.features, mode="eval")
    if inputs is not None:
        inputs[start:] = [*tape.inputs, tape.h_final]
    pred = np.argmax(logits, axis=1)
    return float(np.mean(pred == ds.labels))


class _ValidationMemo:
    """One training call's validation accuracies, by task. A task's eval
    forward runs again only when a parameter it reads (path rows, running
    statistics included, and head slice: `PathIndex.positions`) differs, bit
    for bit, from its value at that task's last validation, or when those
    positions or the `val_ds` object differ. Equal inputs give an equal
    accuracy, so a hit returns the same number `validate` would. The memo
    also keeps the input each layer took in that last pass, so a pass that
    runs again resumes at the first layer (or the head) whose parameters
    changed: the layers below it would compute the same bits again. A task
    that trains before its next validation changes its layer
    `PathIndex.lowest` on every step, so it keeps only h_0 .. h_lowest (in
    parallel training that is h_0, the validation features themselves).

    The memo holds arrays and the validation set, never the grid, a task or
    a tape, and lives as long as the training call that made it."""

    def __init__(self):
        # task id -> (positions, val_ds, bits, accuracy, layer inputs h_0 ..
        # h_L, or h_0 .. h_lowest for a task that trains)
        self._last: dict[int, tuple] = {}

    def accuracy(self, grid: ModuleGrid, task: TaskSpec, trains: bool) -> float:
        """The task's validation accuracy; `trains` tells whether the task
        trains before its next validation."""
        index = path_index(grid, task)
        positions = index.positions
        bits = grid.arena[positions].view(np.uint64)
        last = self._last.get(task.id)
        inputs = []
        if (last is not None and last[1] is task.val_ds
                and (last[0] is positions or np.array_equal(last[0], positions))):
            changed = last[2] != bits
            first = int(changed.argmax())
            if not changed[first]:
                return last[3]
            # the layer that reads the first changed position, keeping the
            # inputs of that layer and those below it
            inputs = last[4][:bisect.bisect_right(index.starts, first)]
        acc = validate(grid, task, inputs)
        if trains:
            del inputs[index.lowest + 1:]
        self._last[task.id] = (positions, task.val_ds, bits, acc, inputs)
        return acc


def _frozen_prefix(grid: ModuleGrid, tasks) -> int:
    """The phase's frozen prefix: the lowest `PathIndex.lowest` over its
    tasks. No task of the phase trains a tensor below it, nor tracks a
    running statistic there (a statistic tracks only while its gamma
    trains), so each task's train pass over those layers depends on its
    batch alone for the whole phase. 0 when a task trains at layer 0: in
    parallel training, with per-task norms, and on a grid with nothing
    frozen."""
    return min(path_index(grid, t).lowest for t in tasks)


def _epoch_batches(grid: ModuleGrid, task: TaskSpec, plan: BatchPlan, stop: int) -> list:
    """The task's batches for one epoch, in plan order, from one
    `next_batches` call: each a pair (sample indices, the batch's input to
    layer `stop`). With stop 0 that input is the batch's features. Else the
    batches of one size, full ones and then the odd last one, each run
    layers [0, stop) as one stack (`forward_prefix`), the bits each batch's
    own pass would give."""
    ds = task.train_ds
    batches = next_batches(ds, plan, plan.n_batches)
    if not stop:
        return [(idx, ds.features[idx]) for idx in batches]
    index = path_index(grid, task)
    inputs = [None] * len(batches)
    for size in dict.fromkeys(map(len, batches)):
        same = [i for i, idx in enumerate(batches) if len(idx) == size]
        hs = forward_prefix(grid, index, ds.features[np.stack([batches[i] for i in same])], stop)
        for i, h in zip(same, hs):
            inputs[i] = h
    return list(zip(batches, inputs))


def _workspace(spaces: dict, grid: ModuleGrid, task: TaskSpec, n: int, start: int) -> Workspace:
    """The phase's Workspace for a train pass of `task` over n samples from
    layer `start`, found by (task id, n): one per `pass_shape`, shared by
    every task of that shape, and `spaces` holds both keys. The freeze does
    not shape it: the backward reads it from the PathIndex at each call."""
    ws = spaces.get((task.id, n))
    if ws is None:
        index = path_index(grid, task)
        shape = pass_shape(grid, index, n, start)
        if shape not in spaces:
            spaces[shape] = Workspace(grid, index, shape[0], True, start)
        ws = spaces[task.id, n] = spaces[shape]
    return ws


def _finite(a: np.ndarray, zeros: np.ndarray) -> bool:
    """Whether every value of `a` is finite, from its dot product with
    zeros (as long as a, or longer): each term is a zero for a finite value
    and NaN for an infinity or a NaN, and a NaN term makes the sum NaN."""
    return math.isfinite(a.dot(zeros[:a.size]))


def _train_batch(grid, task, idx, h, start, adam, lr, epoch, ws, zeros) -> float:
    """Forward from layer `start` (h: the batch's input there), loss and
    backward kernels in `ws`, the Workspace of the pass's shape, which the
    forward returns as the tape the backward reads; then one fused Adam
    step over the task's trainable tensors in the backward's order. Checks
    no input: `_check_ready` did, once per call, and every planned batch
    has >= 2 samples. A non-finite loss, or a non-finite value among those
    the step wrote (the running statistics and the updated parameters),
    fails the run: `train` checked the whole arena before the first step,
    and nothing else writes it. `zeros` is as long as the arena."""
    index = path_index(grid, task)
    logits, tape = forward_kernel(grid, index, h, True, start, ws=ws)
    loss, dslice = softmax_xent_kernel(logits, task.train_ds.labels[idx])
    grads = backward_kernel(grid, index, tape, dslice)
    finite = math.isfinite(loss) and _finite(ws.stats, zeros)
    if index.segments.index.size:
        finite = _finite(adam.step(grid.arena, grads, index.segments, lr), zeros) and finite
        grid.version += 1
    if not finite:
        raise NumericError(f"task {task.id} ({task.name}), epoch {epoch}: non-finite "
                           f"loss or parameters after the optimizer step (loss {loss})")
    return loss


class Phase(NamedTuple):
    """Tasks that train together for cfg.epochs, the LR schedule restarted.
    With `freeze`, their paths, norm instances and head slices are
    fingerprinted and frozen when the phase ends. `label` names it in logs."""

    label: str
    tasks: tuple
    freeze: bool = False


# each mode's phases, built from the tasks and the index of single's task
SCHEDULES = {
    "parallel": lambda tasks, i: [Phase("parallel", tuple(tasks))],
    "sequential": lambda tasks, i: [Phase(f"sequential[task {t.id}]", (t,), freeze=True)
                                    for t in tasks],
    "single": lambda tasks, i: [Phase(f"single[task {tasks[i].id}]", (tasks[i],))],
}


def _check_ready(grid: ModuleGrid, phases: list[Phase], report_tasks: list) -> None:
    """Once per training call, before any parameter moves, check the
    schedule: a phase, a task in each, no task twice in one phase or in
    `report_tasks`, and none that a `freeze` of an earlier call or phase froze
    (else InputError). Then check what `forward_task` and `softmax_xent_slice`
    check per batch and validation: a path and datasets (else
    ContractError); then `path_index`'s task check, and datasets of d_in
    finite features with labels in [0, c) (else InputError). A task that
    trains has both datasets checked, and a training set of at least 2
    samples, since a training batch needs 2; a task of `report_tasks` that
    does not train, only what validation reads, its val_ds. A phase's
    training sets need one size (else ContractError). Datasets are
    immutable only by convention, so every call checks again."""
    if not phases:
        raise InputError("a training call needs at least one phase")
    frozen = set(grid.frozen_tasks)
    for label, tasks, freezes in phases:
        ids = [t.id for t in tasks]
        if not ids:
            raise InputError(f"phase {label!r} has no task")
        if len(set(ids)) < len(ids):
            raise InputError(f"phase {label!r} lists a task twice: {ids}")
        if frozen.intersection(ids):
            raise InputError(f"phase {label!r} trains tasks {sorted(frozen.intersection(ids))}, "
                             f"frozen by an earlier phase or call")
        if freezes:
            frozen.update(ids)
    ids = [t.id for t in report_tasks]
    if len(set(ids)) < len(ids):
        raise InputError(f"report_tasks lists a task twice: {ids}")
    tasks = [t for phase in phases for t in phase.tasks]
    checks = [(t, (t.train_ds, t.val_ds)) for t in tasks]
    checks += [(t, (t.val_ds,)) for t in report_tasks if all(t is not u for u in tasks)]
    for t, datasets in checks:
        if t.path is None:
            raise ContractError(f"task {t.id} has no path")
        if t.train_ds is None or t.val_ds is None:
            raise ContractError(f"task {t.id} has no datasets attached")
        path_index(grid, t)
        for ds in datasets:
            if ds.d != grid.d_in:
                raise InputError(f"task {t.id}: dataset {ds.name!r} has {ds.d} features, "
                                 f"the grid takes {grid.d_in}")
            if ds.labels.min() < 0 or ds.labels.max() >= t.c:
                raise InputError(f"task {t.id}: dataset {ds.name!r} has labels outside [0,{t.c})")
            if not np.isfinite(ds.features).all():
                raise InputError(f"task {t.id}: dataset {ds.name!r} has non-finite features")
    for t in tasks:
        if t.train_ds.n < 2:
            raise InputError(f"task {t.id}: training set {t.train_ds.name!r} has "
                             f"{t.train_ds.n} sample(s); a training batch needs at least 2")
    for phase in phases:
        sizes = {t.train_ds.n for t in phase.tasks}
        if len(sizes) > 1:
            raise ContractError(f"training sets must be oversampled to equal size, "
                                f"got {sorted(sizes)}")


def train(grid: ModuleGrid, mode: str, phases: list[Phase], report_tasks: list[TaskSpec],
          cfg: TrainConfig, config_hash: str | None = None, log=None) -> RunReport:
    """Runs `phases` in order, every epoch row reporting on `report_tasks`,
    and names the report `mode`. One scheduler stream, optimizer and
    validation memo serve the whole call.

    At each epoch start every task of the phase takes all its batches
    (`_epoch_batches`). The layers below the phase's frozen prefix
    (`_frozen_prefix`) run then, once for all of a task's same-size batches,
    and each batch's train pass resumes above them; a phase in which some
    task trains at layer 0 runs every batch whole. Either way a batch gets
    the bits of its own whole pass.

    Each step's forward and backward write into a `Workspace` of its pass
    shape (`_workspace`), made on the phase's first step of that shape and
    released when the next phase starts; validation's eval passes get fresh
    arrays. The whole arena is checked for non-finite values once, before
    the first step (NumericError), and each step then checks the values it
    wrote."""
    _check_ready(grid, phases, report_tasks)
    if not np.isfinite(grid.arena).all():
        raise NumericError("non-finite parameters or running statistics before training")
    t0 = time.perf_counter()
    sched_rng = derive_rng(cfg.seed, STREAM_SCHED)
    adam = FlatAdam(grid.arena.size)
    zeros = np.zeros(grid.arena.size)
    memo = _ValidationMemo()
    rows = []
    freeze_hashes = {} if any(phase.freeze for phase in phases) else None
    for label, tasks, freezes in phases:
        by_id = {t.id: t for t in tasks}
        rngs = {t.id: batch_rng(cfg.seed, t.id) for t in tasks}
        stop = _frozen_prefix(grid, tasks)
        spaces = {}     # this phase's workspaces; the last phase's are released
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
            # each batch's arrays are released once it has trained
            batches = {t.id: deque(_epoch_batches(grid, t, plans[t.id], stop)) for t in tasks}
            while (grant := schedule_round(sched)) is not None:
                tid, count = grant
                for _ in range(count):
                    idx, h = batches[tid].popleft()
                    ws = _workspace(spaces, grid, by_id[tid], len(idx), stop)
                    loss_sum[tid] += _train_batch(grid, by_id[tid], idx, h, stop, adam, lr,
                                                  epoch, ws, zeros)
            rows.append({"epoch": epoch, "lr": lr, "per_task": [
                {"loss": loss_sum[t.id] / plans[t.id].n_batches if t.id in by_id else None,
                 "val_acc": memo.accuracy(grid, t, t.id in by_id)} for t in report_tasks]})
            if log:
                log(_format_epoch(rows[-1], label))
        if freezes:
            for t in tasks:
                freeze_hashes[str(t.id)] = freeze_fingerprint(grid, t)
                freeze(grid, t)
    return RunReport(
        config_hash=config_hash, seed=cfg.seed, mode=mode,
        tasks=[{"id": t.id, "c": t.c, "slice": list(t.slice)} for t in report_tasks],
        epochs=rows, final=[{"task": t.id, "val_acc": memo.accuracy(grid, t, False)}
                            for t in report_tasks],
        wallclock_s=time.perf_counter() - t0, freeze_hashes=freeze_hashes,
    )


def train_parallel(grid: ModuleGrid, tasks: list[TaskSpec], cfg: TrainConfig,
                   config_hash: str | None = None, log=None) -> RunReport:
    """`train` on the "parallel" schedule, reported on `tasks`. A grid with
    frozen modules is refused, even for one task."""
    if grid.frozen:
        raise ContractError("parallel training never runs on a grid with frozen modules")
    return train(grid, "parallel", SCHEDULES["parallel"](tasks, 0), tasks, cfg, config_hash, log)


def train_sequential(grid: ModuleGrid, tasks: list[TaskSpec], cfg: TrainConfig,
                     config_hash: str | None = None, log=None) -> RunReport:
    """`train` on the "sequential" schedule, reported on `tasks`."""
    return train(grid, "sequential", SCHEDULES["sequential"](tasks, 0), tasks, cfg,
                 config_hash, log)


def train_single(grid: ModuleGrid, task: TaskSpec, cfg: TrainConfig,
                 config_hash: str | None = None, log=None) -> RunReport:
    """`train` on the "single" schedule of `task`, reported on every
    registered task with data (the others keep their initial parameters)."""
    report_tasks = [t for t in grid.tasks if t.train_ds is not None and t.val_ds is not None]
    return train(grid, "single", SCHEDULES["single"]([task], 0), report_tasks, cfg,
                 config_hash, log)


def _format_epoch(row: dict, label: str) -> str:
    accs = " ".join(f"{pt['val_acc']:.3f}" for pt in row["per_task"])
    losses = [pt["loss"] for pt in row["per_task"] if pt["loss"] is not None]
    loss_str = f"{np.mean(losses):.4f}" if losses else "-"
    return (f"[{label}] epoch {row['epoch']:>3} lr {row['lr']:.2e} "
            f"loss {loss_str} val_acc {accs}")
