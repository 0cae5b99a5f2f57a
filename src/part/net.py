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
run_var each); then head_W (row-major) and head_b. A parameter is named by
a key (see `get_param`): `get_param` copies it out and `set_param` copies
into the arena and bumps `version`, so a tape taken before the write is
rejected. `head_W` and `head_b` are read-only views of the head. Newly
made tensors (the construction draws, a registered task's head columns
and norm instances) wait in a pending dict; the arena is laid out lazily,
on first use by a forward pass, a checkpoint or parameter addressing, so
building an experiment never repacks the grid once per task.

Each task has a cached *path index* (`path_index`): per layer an (N, chunk)
array of arena positions, one row per path module holding its W, b and the
gamma, beta, run_mean and run_var of the norm instance the task uses. A
layer's forward reads its parameters with one gather, runs its N blocks as
one stacked computation over (N, n, d_hid) (a batched matmul, then batch
norm and ReLU), sums them over the module axis and writes the running
stats back with one scatter. The tape keeps one stacked `LayerRecord` per
layer. The backward mirrors it and returns one flat gradient vector over
the task's trainable surface only (the tensors `trainable_keys` names, in
the same order: per layer and module W, b, gamma, beta, then the head
slice's W and b); `Gradients` reads it by parameter key and the trainer
hands it to the optimizer as it is. The backward stops at the lowest layer
that holds a trainable tensor, and a layer with none above it only carries
the gradient through. The stacked code gives the same bits as running the
blocks one by one.

Each pass is an unchecked kernel over a task's PathIndex and plain arrays
(`forward_kernel`, `backward_kernel`) behind a checked entry point
(`forward_task`, `backward_task`) that checks the task, mode, input or
tape, calls the kernel and wraps its arrays in a `Tape` or `Gradients`.
The trainer checks its inputs once per call, then runs the kernels.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, InputError
from .numerics import Segments

# norm-instance key used in shared mode; real task ids are >= 0
SHARED = -1

NORM_EPS = 1e-5
NORM_MOMENTUM = 0.1
NORM_PARAMS = ("gamma", "beta", "run_mean", "run_var")


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

    def check(self, M: int, L: int) -> None:
        """InputError unless the path fits a grid of L layers of M modules."""
        if self.depth != L:
            raise InputError(f"path depth {self.depth} != L={L}")
        for row in self.rows:
            if row[-1] >= M:                 # rows are strictly increasing
                m = next(m for m in row if m >= M)
                raise InputError(f"path selects module {m} >= M={M}")

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


class ModuleGrid:
    """L x M grid of dense blocks plus the shared partitioned head.

    The grid owns an init RNG so head widening at task registration is
    reproducible from the construction seed alone. `version` counts
    parameter mutations; tapes are stamped with it so a backward pass on a
    tape from a stale parameter state is rejected. `arena` is the flat
    vector that holds every parameter.
    """

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
        self.c_total = 0
        self.frozen: set[tuple[int, int]] = set()
        self.frozen_tasks: set[int] = set()
        self.version = 0
        self._arena: Optional[np.ndarray] = None
        self._layout: dict = {}       # stored tensor key -> (arena offset, shape)
        self._pending: dict = {}      # stored tensor key -> value not yet in the arena
        self._paths: dict = {}        # task id -> PathIndex

        for l in range(n_layers):
            fan_in = d_in if l == 0 else d_hid
            for m in range(n_modules):
                self._pending[("block", l, m, "W")] = self._he_uniform(fan_in, d_hid)
                self._pending[("block", l, m, "b")] = np.zeros(d_hid)
                if norm_mode == "shared":
                    self._add_identity_norm(l, m, SHARED)
        self._pending[("head_W",)] = np.zeros((d_hid, 0))
        self._pending[("head_b",)] = np.zeros(0)

    def _he_uniform(self, fan_in: int, fan_out: int) -> np.ndarray:
        bound = np.sqrt(6.0 / fan_in)
        return self.rng.uniform(-bound, bound, size=(fan_in, fan_out))

    def _add_identity_norm(self, l: int, m: int, nk: int) -> None:
        ones, zeros = np.ones(self.d_hid), np.zeros(self.d_hid)
        for which, value in zip(NORM_PARAMS, (ones, zeros, zeros, ones)):
            self._pending[("norm", l, m, nk, which)] = value

    def norm_key(self, task_id: int) -> int:
        return SHARED if self.norm_mode == "shared" else task_id

    # -- the arena -----------------------------------------------------------

    @property
    def arena(self) -> np.ndarray:
        """The flat parameter vector, laid out on first use after a change
        of shape (construction, task registration)."""
        if self._pending:
            self._lay_out()
        return self._arena

    @property
    def head_W(self) -> np.ndarray:
        """The head weights, (d_hid, c_total): a read-only view of the arena."""
        if self._pending:
            self._lay_out()
        return self._head_W

    @property
    def head_b(self) -> np.ndarray:
        """The head biases, (c_total,): a read-only view of the arena."""
        if self._pending:
            self._lay_out()
        return self._head_b

    def _stored(self):
        """Key of every stored tensor, in arena order."""
        norm_keys = [SHARED] if self.norm_mode == "shared" else range(len(self.tasks))
        for l in range(self.n_layers):
            for m in range(self.n_modules):
                yield ("block", l, m, "W")
                yield ("block", l, m, "b")
                for nk in norm_keys:
                    for which in NORM_PARAMS:
                        yield ("norm", l, m, nk, which)
        yield ("head_W",)
        yield ("head_b",)

    def _stored_value(self, key) -> np.ndarray:
        """A stored tensor as it stands: pending, or in the arena last laid out."""
        value = self._pending.get(key)
        return self._view(self._arena, key) if value is None else value

    def _lay_out(self) -> None:
        tensors = [(key, self._stored_value(key)) for key in self._stored()]
        arena = np.empty(sum(a.size for _, a in tensors))
        layout = {}
        start = 0
        for key, a in tensors:
            arena[start:start + a.size].reshape(a.shape)[...] = a
            layout[key] = (start, a.shape)
            start += a.size
        self._arena, self._layout = arena, layout
        self._pending.clear()
        self._paths.clear()
        self._head_W = self._view(arena, ("head_W",))
        self._head_b = self._view(arena, ("head_b",))
        self._head_W.flags.writeable = self._head_b.flags.writeable = False

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
    for key, new in ((("head_W",), new_cols), (("head_b",), np.zeros(c))):
        grid._pending[key] = np.concatenate([grid._stored_value(key), new], axis=-1)
    if grid.norm_mode == "per-task":
        for l in range(grid.n_layers):
            for m in range(grid.n_modules):
                grid._add_identity_norm(l, m, tid)
    task = TaskSpec(id=tid, c=c, slice=(start, start + c), name=name or f"task{tid}",
                    train_ds=train_ds, val_ds=val_ds)
    grid.tasks.append(task)
    grid.c_total += c
    grid._paths.clear()
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
    path.check(grid.n_modules, grid.n_layers)
    for cell in path.modules():
        grid.frozen.add(cell)
    grid._paths.clear()


def freeze_task(grid: ModuleGrid, task: TaskSpec) -> None:
    """Freeze a finished task's own holdings: its per-task norm instances
    and its head slice (tracked via the task id)."""
    grid.frozen_tasks.add(task.id)
    grid._paths.clear()


def trainable_keys(grid: ModuleGrid, task: TaskSpec) -> list:
    """Parameter keys the optimizer may update for this task: unfrozen path
    blocks, the norm instances the task trains (own ones in per-task mode,
    unfrozen shared ones otherwise), and the task's head slice."""
    return list(path_index(grid, task).trainable_keys)


@dataclass(frozen=True)
class PathIndex:
    """Where one task's path lives in the arena and in its flat gradient.

    `head` is the task's head slice, its columns [start, end) of the head.
    `rows[l]` is an (N, chunk) array of arena positions, one row per module
    of path row l: W (row-major), b, then the gamma, beta, run_mean and
    run_var of the norm instance the task uses there, so one gather reads a
    layer's parameters. `stats[l]` holds the run_mean/run_var positions of
    the rows whose running statistics still track, and `live[l]` those rows
    (None: all of them). `positions` lists every arena position an eval
    forward reads: the rows of every layer, then the head slice's W and b.

    The backward works in a vector of `size` holding, per layer and module,
    W, b, gamma and beta, then the head slice's W and b; their keys, in
    that order, are `keys`, every tensor a finished task freezes.
    `learns[l]` tells whether layer l holds a trainable tensor and `lowest`
    is the lowest such layer (`len(rows)` when none does): the backward
    computes no gradient below it and none inside a layer that does not
    learn.
    `trainable` masks the work vector down to the tensors the optimizer may
    update (None when none is frozen); their keys, in the same order, are
    `trainable_keys`, their (offset, shape) in the masked vector `layout`,
    and their arena positions `segments`.
    """

    path: Path
    head: tuple
    rows: tuple
    stats: tuple
    live: tuple
    positions: np.ndarray
    size: int
    keys: list
    learns: tuple
    lowest: int
    trainable: Optional[np.ndarray]
    layout: dict
    trainable_keys: list
    segments: Segments


def path_index(grid: ModuleGrid, task: TaskSpec) -> PathIndex:
    """The task's PathIndex. Cached per task; freezing, registration,
    re-layout and a new `task.path` make the cache stale. Building it
    checks the path against the grid."""
    cached = grid._paths.get(task.id)
    if cached is not None and cached.path is task.path:
        return cached
    if task.path is None:
        raise InputError(f"task {task.id} has no path assigned")
    task.path.check(grid.n_modules, grid.n_layers)
    positions = np.arange(grid.arena.size)
    nk = grid.norm_key(task.id)
    task_frozen = task.id in grid.frozen_tasks
    rows, stats, live, learns = [], [], [], []
    keys, views, train = [], [], []
    for l, row in enumerate(task.path.rows):
        cells, tracking = [], []
        for m in row:
            frozen_block = (l, m) in grid.frozen
            norm_frozen = frozen_block if nk == SHARED else task_frozen
            cell = [("block", l, m, "W"), ("block", l, m, "b")]
            cell += [("norm", l, m, nk, which) for which in NORM_PARAMS]
            where = [grid._view(positions, key) for key in cell]
            cells.append(np.concatenate([w.ravel() for w in where]))
            tracking.append(not norm_frozen)
            keys += cell[:4]
            views += where[:4]
            train += [not frozen_block] * 2 + [not norm_frozen] * 2
        layer = np.stack(cells)
        rows.append(layer)
        tracked = np.flatnonzero(tracking)
        stats.append(layer[tracked, -2 * grid.d_hid:])
        live.append(None if all(tracking) else tracked)
        learns.append(any(train[-4 * len(row):]))
    head = [("head", task.id, "W"), ("head", task.id, "b")]
    head_views = [grid._view(positions, key) for key in head]
    keys += head
    views += head_views
    train += [not task_frozen] * 2

    sizes = [v.size for v in views]
    kept = [(k, v) for k, v, t in zip(keys, views, train) if t]
    kept_sizes = [v.size for _, v in kept]
    offsets = np.cumsum(kept_sizes) - kept_sizes
    index = PathIndex(
        path=task.path, head=task.slice, rows=tuple(rows), stats=tuple(stats), live=tuple(live),
        positions=np.concatenate([r.ravel() for r in rows] + [v.ravel() for v in head_views]),
        size=int(sum(sizes)),
        keys=keys,
        learns=tuple(learns),
        lowest=learns.index(True) if any(learns) else len(learns),
        trainable=None if all(train) else np.repeat(train, sizes),
        layout={k: (int(o), v.shape) for (k, v), o in zip(kept, offsets)},
        trainable_keys=[k for k, _ in kept],
        segments=Segments.of([v.ravel() for _, v in kept]),
    )
    grid._paths[task.id] = index
    return index


class Gradients(Mapping):
    """A task's gradients: one read-only flat vector over its trainable
    tensors in `trainable_keys` order (see PathIndex), read by key as views
    into it."""

    def __init__(self, flat: np.ndarray, index: PathIndex):
        flat.flags.writeable = False
        self.flat = flat
        self._index = index

    def __getitem__(self, key) -> np.ndarray:
        offset, shape = self._index.layout[key]
        return self.flat[offset:offset + math.prod(shape)].reshape(shape)

    def __iter__(self):
        return iter(self._index.layout)

    def __len__(self) -> int:
        return len(self._index.layout)


@dataclass
class LayerRecord:
    """One layer's forward intermediates, stacked over its N path modules
    (axis 0, in path-row order). Per-feature arrays keep a length-1 sample
    axis so they broadcast against the (N, n, d_hid) ones."""

    row: tuple            # module indices
    Ws: np.ndarray        # (N, d_in, d_hid) weights as read by the forward
    gamma: np.ndarray     # (N, 1, d_hid) norm scale as read by the forward
    zhat: np.ndarray      # normalized pre-activation
    inv_std: np.ndarray   # (N, 1, d_hid) 1/sqrt(var + eps) actually applied
    y: np.ndarray         # gamma*zhat + beta (pre-ReLU)
    out: np.ndarray       # relu(y), the pre-sum module outputs
    batch_stats: bool     # True if normalized with batch stats (train mode)


@dataclass
class Tape:
    """Activation record of one forward_task call."""

    task_id: int
    grid_version: int
    inputs: list            # h_0 .. h_{L-1}: the input each layer consumed
    layers: list            # one LayerRecord per layer
    h_final: np.ndarray = None

    def layer_sum(self, layer: int) -> np.ndarray:
        """The summed output of a layer: the next layer's input."""
        return self.inputs[layer + 1] if layer + 1 < len(self.inputs) else self.h_final

    def module_outputs(self, layer: int) -> dict[int, np.ndarray]:
        """Each path module's pre-sum output at a layer, by module index."""
        rec = self.layers[layer]
        return {m: rec.out[i] for i, m in enumerate(rec.row)}


def _check_registered(grid: ModuleGrid, task: TaskSpec) -> PathIndex:
    """The task's PathIndex, once the task is known to be this grid's and
    its path to fit the grid."""
    if task.id >= len(grid.tasks) or grid.tasks[task.id] is not task:
        raise InputError(f"task {task.id} is not registered on this grid")
    return path_index(grid, task)


def forward_task(grid: ModuleGrid, task: TaskSpec, x: np.ndarray, mode: str = "eval"):
    """Run x through the task's path; returns (logits slice, tape).

    Per layer, each selected block computes relu(norm(x W + b)) and the
    results are summed to feed the next layer; the N blocks of a layer run
    as one stacked computation over (N, n, d_hid). Train mode normalizes
    with batch statistics and updates the running stats of the instances
    it used (unless frozen); it needs at least two samples, since one
    sample has zero batch variance. Eval mode reads running stats and
    mutates nothing. Checks its inputs, then runs `forward_kernel`.
    """
    if mode not in ("train", "eval"):
        raise InputError(f"mode must be 'train' or 'eval', got {mode!r}")
    index = _check_registered(grid, task)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != grid.d_in:
        raise InputError(f"input must be (n, {grid.d_in}), got {x.shape}")
    if x.shape[0] == 0:
        raise InputError("empty batch")
    train = mode == "train"
    if train and x.shape[0] == 1:
        raise InputError("a training batch needs at least 2 samples")
    if not np.isfinite(x).all():
        raise InputError("input contains non-finite values")
    logits, inputs, layers, h = forward_kernel(grid, index, x, train)
    records = [LayerRecord(row, *arrays, batch_stats=train)
               for row, arrays in zip(task.path.rows, layers)]
    return logits, Tape(task.id, grid.version, inputs, records, h)


def forward_kernel(grid: ModuleGrid, index: PathIndex, x: np.ndarray, train: bool):
    """The forward pass of `forward_task`, unchecked: x is a finite float64
    (n, d_in) array, n >= 2 in train mode, and `index` the PathIndex of a
    task of this grid. Returns (logits, inputs, layers, h): the task-width
    logits, the input each layer consumed, per layer the arrays (Ws, gamma,
    zhat, inv_std, y, out) of its LayerRecord, and the last layer's sum."""
    # every temporary below is fresh, so the in-place forms and out= only
    # save allocations: each value goes through the same operations
    reduce = np.add.reduce
    arena = grid.arena
    d = grid.d_hid
    n = x.shape[0]
    inputs, layers = [], []
    h = x
    for rows, stats, live in zip(index.rows, index.stats, index.live):
        inputs.append(h)
        params = arena[rows]
        N, fan_in = rows.shape[0], h.shape[1]
        Ws = params[:, :fan_in * d].reshape(N, fan_in, d)
        vectors = params[:, fan_in * d:].reshape(N, 5, 1, d)
        b, gamma, beta, run_mean, run_var = vectors.swapaxes(0, 1)
        z = h @ Ws
        z += b
        if train:
            # z.mean and z.var over the batch (sum / n), sharing the centred
            # z; both land side by side for the running-stat update
            moments = np.empty((N, 2, d))
            mu, var = moments[:, :1], moments[:, 1:]
            reduce(z, axis=1, out=mu, keepdims=True)
            mu /= n
            z -= mu
            reduce(z * z, axis=1, out=var, keepdims=True)
            var /= n
            inv_std = var + NORM_EPS
        else:
            z -= run_mean
            inv_std = run_var + NORM_EPS
        np.sqrt(inv_std, out=inv_std)
        np.divide(1.0, inv_std, out=inv_std)
        if train and stats.size:
            new = (1 - NORM_MOMENTUM) * params[:, -2 * d:]
            moments *= NORM_MOMENTUM
            new += moments.reshape(N, 2 * d)
            arena[stats] = new if live is None else new[live]
        z *= inv_std
        zhat = z
        y = gamma * zhat
        y += beta
        out = np.maximum(y, 0.0)
        layers.append((Ws, gamma, zhat, inv_std, y, out))
        h = reduce(out, axis=0)
    start, end = index.head
    logits = h @ grid.head_W[:, start:end]
    logits += grid.head_b[start:end]
    return logits, inputs, layers, h


def backward_task(grid: ModuleGrid, task: TaskSpec, tape: Tape,
                  dlogits: np.ndarray) -> Gradients:
    """Gradients for exactly the task's trainable surface.

    `dlogits` is full-width (n x C_total) as produced by the sliced loss;
    only the task's slice columns are consumed, so everything off the
    slice contributes nothing by construction. Returns one flat vector
    over the tensors `trainable_keys` names, in that order (see
    PathIndex): unfrozen path blocks, the norm instances the task trains
    and its head slice, readable by parameter key. Checks the tape and
    dlogits, then runs `backward_kernel` on the task's slice.
    """
    index = _check_registered(grid, task)
    if tape.task_id != task.id:
        raise ContractError(f"tape belongs to task {tape.task_id}, not {task.id}")
    if tape.grid_version != grid.version:
        raise ContractError("stale tape: grid parameters changed since forward")
    start, end = task.slice
    n = tape.h_final.shape[0]
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != (n, grid.c_total):
        raise InputError(f"dlogits must be ({n}, {grid.c_total}), got {dlogits.shape}")
    layers = [(r.Ws, r.gamma, r.zhat, r.inv_std, r.y, r.out) for r in tape.layers]
    return Gradients(backward_kernel(grid, index, tape.inputs, layers, tape.h_final,
                                     dlogits[:, start:end], tape.layers[0].batch_stats), index)


def backward_kernel(grid: ModuleGrid, index: PathIndex, inputs: list, layers: list,
                    h: np.ndarray, dslice: np.ndarray, train: bool) -> np.ndarray:
    """The backward pass of `backward_task`, unchecked: `inputs`, `layers`
    and `h` are what `forward_kernel` returned for this grid state and
    `index`, `train` the mode it ran in, and dslice the task-width (n, c)
    loss gradient. Returns the flat gradient over the task's trainable
    tensors. Nothing is computed below the lowest layer that holds a
    trainable tensor, and a layer without one above it only passes the
    gradient down."""
    # fresh temporaries are updated in place and reductions written into
    # the work vector: the same operations, in the same order, as the
    # expressions in the comments
    reduce = np.add.reduce
    d = grid.d_hid
    n, c = dslice.shape
    start, end = index.head
    work = np.empty(index.size)
    offset = index.size - (d + 1) * c
    if index.trainable is None or index.trainable[-1]:     # the head slice trains
        np.matmul(h.T, dslice, out=work[offset:offset + d * c].reshape(d, c))
        reduce(dslice, axis=0, out=work[offset + d * c:])
    if index.lowest < grid.n_layers:
        dh = dslice @ grid.head_W[:, start:end].T
    for l in range(grid.n_layers - 1, index.lowest - 1, -1):
        h_prev, (Ws, gamma, zhat, inv_std, y, _) = inputs[l], layers[l]
        N, dd = Ws.shape[0], h_prev.shape[1] * d
        offset -= N * (dd + 3 * d)
        grads = work[offset:offset + N * (dd + 3 * d)].reshape(N, dd + 3 * d)
        dy = dh * (y > 0)
        if index.learns[l]:
            reduce(dy * zhat, axis=1, out=grads[:, dd + d:dd + 2 * d])    # d gamma
            reduce(dy, axis=1, out=grads[:, dd + 2 * d:])                 # d beta
        dy *= gamma
        dzhat = dy
        if train:
            # dz = inv_std * (dzhat - mean(dzhat) - zhat * mean(dzhat * zhat)),
            # the means as sum / n, as .mean computes them
            mean_dzhat = reduce(dzhat, axis=1, keepdims=True)
            mean_dzhat /= n
            scaled = dzhat * zhat
            mean_scaled = reduce(scaled, axis=1, keepdims=True)
            mean_scaled /= n
            np.multiply(zhat, mean_scaled, out=scaled)
            dzhat -= mean_dzhat
            dzhat -= scaled
        dzhat *= inv_std
        dz = dzhat
        if index.learns[l]:
            np.matmul(h_prev.T, dz, out=grads[:, :dd].reshape(N, h_prev.shape[1], d))   # d W
            reduce(dz, axis=1, out=grads[:, dd:dd + d])                                # d b
        if l > index.lowest:   # nothing consumes the gradient below the cut
            dh = reduce(dz @ Ws.transpose(0, 2, 1), axis=0)
    return work if index.trainable is None else work[index.trainable]
