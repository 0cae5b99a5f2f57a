"""The module-grid base network.

A grid of L layers x M dense blocks (affine + normalization + ReLU) with a
shared, column-partitioned output head. Each task owns a path: N module
indices per layer, chosen independently per layer. A forward pass runs
only the selected blocks, sums their outputs per layer, and reads logits
from the task's head slice; the backward pass produces gradients for
exactly the path blocks, the norm instances the task used, and the head
slice. Blocks can be frozen (sequential baseline): their parameters stop
updating and their running stats stop tracking.

Every parameter lives in one float64 vector, the grid's *arena*, laid out
in checkpoint-v1 order: layer-major, module-minor; per module W (row-major)
then b then its norm instances in task-id order (gamma, beta, run_mean,
run_var each); then head_W (row-major) and head_b. Block, norm and head
arrays are views into it, and assigning to one (``blk.W = X``) copies into
the view. The arena is laid out lazily, on first use by the optimizer, a
checkpoint or parameter addressing; registering a task only marks it stale,
so building an experiment never repacks the grid once per task.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractError, InputError
from .numerics import Segments

# norm-instance key used in shared mode; real task ids are >= 0
SHARED = -1

NORM_EPS = 1e-5
NORM_MOMENTUM = 0.1


class _InPlaceParams:
    """Assigning to an array attribute named in PARAMS copies into the array
    already there instead of rebinding the name, so an attribute that is a
    view into the grid's arena stays one. The first assignment binds."""

    PARAMS: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        current = self.__dict__.get(name) if name in self.PARAMS else None
        if current is None:
            super().__setattr__(name, value)
            return
        value = np.asarray(value, dtype=np.float64)
        if value.shape != current.shape:
            raise InputError(f"{name} has shape {current.shape}, got {value.shape}")
        current[...] = value


def _rebind(owner, name: str, array: np.ndarray) -> None:
    """Point a parameter attribute at new storage (arena layout, head widening)."""
    owner.__dict__[name] = array


@dataclass
class NormInstance(_InPlaceParams):
    """Batch-norm parameters plus running statistics for one feature width."""

    PARAMS = ("gamma", "beta", "run_mean", "run_var")

    gamma: np.ndarray
    beta: np.ndarray
    run_mean: np.ndarray
    run_var: np.ndarray
    momentum: float = NORM_MOMENTUM
    eps: float = NORM_EPS

    @classmethod
    def identity(cls, width: int) -> "NormInstance":
        return cls(
            gamma=np.ones(width),
            beta=np.zeros(width),
            run_mean=np.zeros(width),
            run_var=np.ones(width),
        )


@dataclass
class ModuleBlock(_InPlaceParams):
    """One grid cell: affine map plus its norm instance(s).

    `norms` maps task id -> NormInstance in per-task mode; in shared mode
    it holds the single SHARED key.
    """

    PARAMS = ("W", "b")

    W: np.ndarray
    b: np.ndarray
    norms: dict[int, NormInstance] = field(default_factory=dict)


@dataclass(frozen=True)
class Path:
    """Per-task module selection: one strictly increasing index row per layer."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for l, row in enumerate(self.rows):
            if len(set(row)) != len(row) or list(row) != sorted(row):
                raise InputError(f"path row {l} must be strictly increasing, got {row}")
            if len(row) == 0:
                raise InputError(f"path row {l} is empty")
            if min(row) < 0:
                raise InputError(f"path row {l} has negative module index")

    @property
    def depth(self) -> int:
        return len(self.rows)

    def modules(self):
        """All (layer, module) cells on this path."""
        for l, row in enumerate(self.rows):
            for m in row:
                yield (l, m)


@dataclass
class TaskSpec:
    """One classification task registered on a grid."""

    id: int
    c: int
    slice: tuple[int, int]
    name: str = ""
    train_ds: object = None
    val_ds: object = None
    path: Optional[Path] = None


class ModuleGrid(_InPlaceParams):
    """L x M grid of dense blocks plus the shared partitioned head.

    The grid owns an init RNG so head widening at task registration is
    reproducible from the construction seed alone. `version` counts
    parameter mutations; tapes are stamped with it so a backward pass on a
    tape from a stale parameter state is rejected. `arena` is the flat
    parameter vector every block, norm and head array is a view into.
    """

    PARAMS = ("head_W", "head_b")

    def __init__(self, n_layers: int, n_modules: int, d_in: int, d_hid: int,
                 norm_mode: str = "shared", seed: int = 0):
        if norm_mode not in ("shared", "per-task"):
            raise InputError(f"norm_mode must be 'shared' or 'per-task', got {norm_mode!r}")
        if n_layers < 1 or n_modules < 1:
            raise InputError("grid needs at least one layer and one module")
        self.n_layers = n_layers
        self.n_modules = n_modules
        self.d_in = d_in
        self.d_hid = d_hid
        self.norm_mode = norm_mode
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.tasks: list[TaskSpec] = []
        self.frozen: set[tuple[int, int]] = set()
        self.frozen_tasks: set[int] = set()
        self.version = 0
        self._arena: Optional[np.ndarray] = None
        self._layout: dict = {}       # stored tensor key -> (arena offset, shape)
        self._trainable: dict = {}    # task id -> (path, keys, Segments)

        self.layers: list[list[ModuleBlock]] = []
        for l in range(n_layers):
            fan_in = d_in if l == 0 else d_hid
            row = []
            for _ in range(n_modules):
                block = ModuleBlock(W=self._he_uniform(fan_in, d_hid), b=np.zeros(d_hid))
                if norm_mode == "shared":
                    block.norms[SHARED] = NormInstance.identity(d_hid)
                row.append(block)
            self.layers.append(row)
        self.head_W = np.zeros((d_hid, 0))
        self.head_b = np.zeros(0)

    def _he_uniform(self, fan_in: int, fan_out: int) -> np.ndarray:
        bound = np.sqrt(6.0 / fan_in)
        return self.rng.uniform(-bound, bound, size=(fan_in, fan_out))

    @property
    def c_total(self) -> int:
        return self.head_W.shape[1]

    def block(self, layer: int, module: int) -> ModuleBlock:
        return self.layers[layer][module]

    def norm_key(self, task_id: int) -> int:
        return SHARED if self.norm_mode == "shared" else task_id

    # -- the arena -----------------------------------------------------------

    @property
    def arena(self) -> np.ndarray:
        """The flat parameter vector, laid out on first use after a change
        of shape (construction, task registration)."""
        if self._arena is None:
            self._lay_out()
        return self._arena

    def _stored(self):
        """(key, owner, attribute) of every stored tensor, in arena order."""
        for l, layer in enumerate(self.layers):
            for m, block in enumerate(layer):
                yield ("block", l, m, "W"), block, "W"
                yield ("block", l, m, "b"), block, "b"
                for nk in sorted(block.norms):
                    for which in NormInstance.PARAMS:
                        yield ("norm", l, m, nk, which), block.norms[nk], which
        yield ("head_W",), self, "head_W"
        yield ("head_b",), self, "head_b"

    def _lay_out(self) -> None:
        tensors = [(key, owner, attr, getattr(owner, attr))
                   for key, owner, attr in self._stored()]
        arena = np.empty(sum(a.size for *_, a in tensors))
        layout = {}
        start = 0
        for key, owner, attr, a in tensors:
            view = arena[start:start + a.size].reshape(a.shape)
            view[...] = a
            _rebind(owner, attr, view)
            layout[key] = (start, a.shape)
            start += a.size
        self._arena, self._layout = arena, layout
        self._trainable.clear()

    def _arena_stale(self) -> None:
        """Tensors were added: lay the arena out afresh on next use. Until
        then the old views keep every value."""
        self._arena = None
        self._trainable.clear()

    # -- parameter addressing ------------------------------------------------
    # keys: ("block", l, m, "W"|"b")
    #       ("norm", l, m, norm_key, "gamma"|"beta"|"run_mean"|"run_var")
    #       ("head", task_id, "W"|"b")   (the task's column slice)

    def _view(self, flat: np.ndarray, key) -> np.ndarray:
        """Tensor `key` inside `flat`, a vector laid out like the arena."""
        if key[0] == "head":
            _, tid, which = key
            start, end = self.tasks[tid].slice
            if which == "W":
                return self._view(flat, ("head_W",))[:, start:end]
            return self._view(flat, ("head_b",))[start:end]
        if key not in self._layout:
            raise InputError(f"unknown parameter key {key!r}")
        offset, shape = self._layout[key]
        return flat[offset:offset + math.prod(shape)].reshape(shape)

    def get_param(self, key) -> np.ndarray:
        return self._view(self.arena, key).copy()

    def set_param(self, key, value: np.ndarray) -> None:
        target = self._view(self.arena, key)
        value = np.asarray(value, dtype=np.float64)
        if value.shape != target.shape:
            raise InputError(f"parameter {key!r} has shape {target.shape}, got {value.shape}")
        target[...] = value
        self.version += 1

    def param_hash(self, key) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.get_param(key)).tobytes()).hexdigest()


def register_task(grid: ModuleGrid, c: int, name: str = "",
                  train_ds=None, val_ds=None) -> TaskSpec:
    """Add a task to the grid: widen the head by c freshly initialized
    columns and, in per-task norm mode, give every block a new instance.

    The returned TaskSpec has no path yet; assign one explicitly.
    """
    if c < 2:
        raise InputError(f"class count must be >= 2, got {c}")
    tid = len(grid.tasks)
    start = grid.c_total
    bound = 1.0 / np.sqrt(grid.d_hid)
    new_cols = grid.rng.uniform(-bound, bound, size=(grid.d_hid, c))
    _rebind(grid, "head_W", np.concatenate([grid.head_W, new_cols], axis=1))
    _rebind(grid, "head_b", np.concatenate([grid.head_b, np.zeros(c)]))
    if grid.norm_mode == "per-task":
        for layer in grid.layers:
            for block in layer:
                block.norms[tid] = NormInstance.identity(grid.d_hid)
    task = TaskSpec(id=tid, c=c, slice=(start, start + c), name=name or f"task{tid}",
                    train_ds=train_ds, val_ds=val_ds)
    grid.tasks.append(task)
    grid._arena_stale()
    grid.version += 1
    return task


def assign_random_path(M: int, N: int, L: int, rng: np.random.Generator) -> Path:
    """Uniform random N-subset of [0, M) per layer, layers independent."""
    if not (1 <= N <= M):
        raise InputError(f"need 1 <= N <= M, got N={N}, M={M}")
    if L < 1:
        raise InputError(f"need L >= 1, got {L}")
    rows = tuple(
        tuple(sorted(int(i) for i in rng.choice(M, size=N, replace=False)))
        for _ in range(L)
    )
    return Path(rows)


def build_controlled_paths(L: int, M: int = 4, N: int = 2,
                           shared_layers=()) -> tuple[Path, Path]:
    """Two-task paths for the controlled sharing setups.

    Layers in `shared_layers` give both tasks modules {0..N-1}; elsewhere
    task A gets {0..N-1} and task B the disjoint {N..2N-1}. Requires M=2N
    so full disjointness is possible.
    """
    if M != 2 * N:
        raise InputError(f"controlled setups need M = 2N, got M={M}, N={N}")
    shared = set(shared_layers)
    bad = [l for l in shared if not (0 <= l < L)]
    if bad:
        raise InputError(f"shared layer indices {bad} outside [0,{L})")
    low = tuple(range(N))
    high = tuple(range(N, 2 * N))
    rows_a = tuple(low for _ in range(L))
    rows_b = tuple(low if l in shared else high for l in range(L))
    return Path(rows_a), Path(rows_b)


def freeze_path(grid: ModuleGrid, path: Path) -> None:
    """Mark every block on the path frozen: excluded from future optimizer
    updates, and (shared-norm mode) its norm's running stats stop updating."""
    _check_path(grid, path)
    for cell in path.modules():
        grid.frozen.add(cell)
    grid._trainable.clear()


def freeze_task(grid: ModuleGrid, task: TaskSpec) -> None:
    """Freeze a finished task's own holdings: its per-task norm instances
    and its head slice (tracked via the task id)."""
    grid.frozen_tasks.add(task.id)
    grid._trainable.clear()


def is_frozen(grid: ModuleGrid, layer: int, module: int) -> bool:
    return (layer, module) in grid.frozen


def trainable_keys(grid: ModuleGrid, task: TaskSpec) -> list:
    """Parameter keys the optimizer may update for this task: unfrozen path
    blocks, the norm instances the task trains (own ones in per-task mode,
    unfrozen shared ones otherwise), and the task's head slice."""
    if task.path is None:
        raise InputError(f"task {task.id} has no path assigned")
    keys = []
    for (l, m) in task.path.modules():
        frozen_block = (l, m) in grid.frozen
        if not frozen_block:
            keys.append(("block", l, m, "W"))
            keys.append(("block", l, m, "b"))
        nk = grid.norm_key(task.id)
        norm_frozen = frozen_block if nk == SHARED else task.id in grid.frozen_tasks
        if not norm_frozen:
            keys.append(("norm", l, m, nk, "gamma"))
            keys.append(("norm", l, m, nk, "beta"))
    if task.id not in grid.frozen_tasks:
        keys.append(("head", task.id, "W"))
        keys.append(("head", task.id, "b"))
    return keys


def trainable_segments(grid: ModuleGrid, task: TaskSpec) -> tuple[list, Segments]:
    """`trainable_keys` plus the arena positions of those tensors, in key
    order. Cached per task; freezing, registration and a new path make
    the cache stale."""
    cached = grid._trainable.get(task.id)
    if cached is not None and cached[0] is task.path:
        return cached[1], cached[2]
    keys = trainable_keys(grid, task)
    positions = np.arange(grid.arena.size)
    segments = Segments.of([grid._view(positions, key).ravel() for key in keys])
    grid._trainable[task.id] = (task.path, keys, segments)
    return keys, segments


@dataclass
class BlockRecord:
    """Per-module forward intermediates needed by backward and analysis."""

    zhat: np.ndarray      # normalized pre-activation
    inv_std: np.ndarray   # 1/sqrt(var + eps) actually applied
    y: np.ndarray         # gamma*zhat + beta (pre-ReLU)
    out: np.ndarray       # relu(y), the pre-sum module output
    norm_key: int
    batch_stats: bool     # True if normalized with batch stats (train mode)


@dataclass
class Tape:
    """Activation record of one forward_task call."""

    task_id: int
    mode: str
    grid_version: int
    inputs: list            # h_0 .. h_{L-1}: the input each layer consumed
    records: list           # per layer: dict module -> BlockRecord
    h_final: np.ndarray = None

    def layer_sum(self, layer: int) -> np.ndarray:
        recs = self.records[layer]
        return sum(r.out for r in recs.values())


def _check_path(grid: ModuleGrid, path: Path) -> None:
    if path.depth != grid.n_layers:
        raise InputError(f"path depth {path.depth} != grid layers {grid.n_layers}")
    for l, row in enumerate(path.rows):
        if max(row) >= grid.n_modules:
            raise InputError(f"path row {l} selects module {max(row)} >= M={grid.n_modules}")


def _check_registered(grid: ModuleGrid, task: TaskSpec) -> None:
    if task.id >= len(grid.tasks) or grid.tasks[task.id] is not task:
        raise InputError(f"task {task.id} is not registered on this grid")
    if task.path is None:
        raise InputError(f"task {task.id} has no path assigned")
    _check_path(grid, task.path)


def forward_task(grid: ModuleGrid, task: TaskSpec, x: np.ndarray, mode: str = "eval"):
    """Run x through the task's path; returns (logits slice, tape).

    Per layer, each selected block computes relu(norm(x W + b)) and the
    results are summed to feed the next layer. Train mode normalizes with
    batch statistics and updates the running stats of the instances it
    used (unless frozen); eval mode reads running stats and mutates
    nothing.
    """
    if mode not in ("train", "eval"):
        raise InputError(f"mode must be 'train' or 'eval', got {mode!r}")
    _check_registered(grid, task)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != grid.d_in:
        raise InputError(f"input must be (n, {grid.d_in}), got {x.shape}")
    if x.shape[0] == 0:
        raise InputError("empty batch")
    if not np.all(np.isfinite(x)):
        raise InputError("input contains non-finite values")

    nk = grid.norm_key(task.id)
    stats_frozen_task = task.id in grid.frozen_tasks
    tape = Tape(task_id=task.id, mode=mode, grid_version=grid.version,
                inputs=[], records=[])
    h = x
    for l, row in enumerate(task.path.rows):
        tape.inputs.append(h)
        recs = {}
        h_next = np.zeros((h.shape[0], grid.d_hid))
        for m in row:
            block = grid.layers[l][m]
            norm = block.norms[nk]
            z = h @ block.W + block.b
            if mode == "train":
                mu = z.mean(axis=0)
                var = z.var(axis=0)
                inv_std = 1.0 / np.sqrt(var + norm.eps)
                zhat = (z - mu) * inv_std
                frozen_stats = ((l, m) in grid.frozen if nk == SHARED
                                else stats_frozen_task)
                if not frozen_stats:
                    norm.run_mean[:] = (1 - norm.momentum) * norm.run_mean + norm.momentum * mu
                    norm.run_var[:] = (1 - norm.momentum) * norm.run_var + norm.momentum * var
                batch_stats = True
            else:
                inv_std = 1.0 / np.sqrt(norm.run_var + norm.eps)
                zhat = (z - norm.run_mean) * inv_std
                batch_stats = False
            y = norm.gamma * zhat + norm.beta
            out = np.maximum(y, 0.0)
            recs[m] = BlockRecord(zhat=zhat, inv_std=inv_std, y=y, out=out,
                                  norm_key=nk, batch_stats=batch_stats)
            h_next += out
        tape.records.append(recs)
        h = h_next
    tape.h_final = h
    start, end = task.slice
    logits = h @ grid.head_W[:, start:end] + grid.head_b[start:end]
    return logits, tape


def backward_task(grid: ModuleGrid, task: TaskSpec, tape: Tape, dlogits: np.ndarray):
    """Gradients for exactly the task's trainable surface.

    `dlogits` is full-width (n x C_total) as produced by the sliced loss;
    only the task's slice columns are consumed, so everything off the
    slice contributes nothing by construction. Returns a dict of
    parameter-key -> gradient covering path blocks (frozen ones included;
    the trainer filters), the norm instances the forward used, and the
    head slice.
    """
    _check_registered(grid, task)
    if tape.task_id != task.id:
        raise ContractError(f"tape belongs to task {tape.task_id}, not {task.id}")
    if tape.grid_version != grid.version:
        raise ContractError("stale tape: grid parameters changed since forward")
    start, end = task.slice
    n = tape.h_final.shape[0]
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != (n, grid.c_total):
        raise InputError(f"dlogits must be ({n}, {grid.c_total}), got {dlogits.shape}")
    dslice = dlogits[:, start:end]

    grads = {
        ("head", task.id, "W"): tape.h_final.T @ dslice,
        ("head", task.id, "b"): dslice.sum(axis=0),
    }
    dh = dslice @ grid.head_W[:, start:end].T
    for l in range(grid.n_layers - 1, -1, -1):
        h_prev = tape.inputs[l]
        dh_prev = np.zeros_like(h_prev)
        for m, rec in tape.records[l].items():
            block = grid.layers[l][m]
            norm = block.norms[rec.norm_key]
            dy = dh * (rec.y > 0)
            grads[("norm", l, m, rec.norm_key, "gamma")] = (dy * rec.zhat).sum(axis=0)
            grads[("norm", l, m, rec.norm_key, "beta")] = dy.sum(axis=0)
            dzhat = dy * norm.gamma
            if rec.batch_stats:
                # backward through batch mean/var
                dz = rec.inv_std * (
                    dzhat
                    - dzhat.mean(axis=0)
                    - rec.zhat * (dzhat * rec.zhat).mean(axis=0)
                )
            else:
                dz = dzhat * rec.inv_std
            grads[("block", l, m, "W")] = h_prev.T @ dz
            grads[("block", l, m, "b")] = dz.sum(axis=0)
            dh_prev += dz @ block.W.T
        dh = dh_prev
    return grads
