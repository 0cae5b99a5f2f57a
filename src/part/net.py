"""The module-grid base network.

A grid of L layers x M dense blocks (a linear map, batch normalization and
a ReLU) with a shared, column-partitioned output head. A block has no bias
before its normalization: in train mode the batch mean removes any
per-feature constant, in eval mode `run_mean` would absorb it, and the
norm's beta is the block's shift. Each task owns a path: N module
indices per layer, chosen independently per layer. A forward pass runs
only the selected blocks, sums their outputs per layer, and reads logits
from the task's head slice; the backward pass produces gradients for
exactly the path blocks, the norm instances the task used, and the head
slice. `freeze` freezes a finished task (sequential baseline): its path
blocks, norms and head slice stop updating and its norm stats stop tracking,
and `freeze_fingerprint` hashes them, key by key.

Every parameter lives in one float64 vector, the grid's *arena*, laid out
in checkpoint format-2 order: layer-major, module-minor; per module W
(row-major) then its norm instances in task-id order (gamma, beta,
run_mean, run_var each); then head_W (row-major) and head_b. A parameter is
named by a key (see `get_param`): `get_param` copies it out and `set_param`
copies into the arena and bumps `version`, so a tape taken before the write
is rejected. No other handle on a parameter is kept: `head_W` and `head_b`
are read-only views of the head made on each read, so a copied or unpickled
grid reads and trains its own arena. A key's place in it comes from
`ModuleGrid._view` alone, which reads the grid's layer table. Construction
fills the arena directly; each registration call (`register_tasks`, for
any number of tasks) adopts one wider arena, copying each layer's cells
once (adding a norm instance per new task to each in per-task mode) and
the head.

Each task has a cached *path index* (`path_index`), built only for a task
registered on the grid whose path fits it: the arena positions its eval
forward reads, in gather order, each tensor's where `_view` places it.
Freezing cannot move those positions, so a freeze keeps them and refreshes
only the index's freeze-dependent fields. A forward pass reads its
parameters, every layer's and then the head slice's, with one gather and in
no other way. A layer runs its N blocks on one C-contiguous sample-major
(n, N, d_hid) array, that is (n, N*d_hid) with column block k for path
module k: a batched matmul writes each module's block, batch norm reduces
over the samples and broadcasts (1, N, d_hid) vectors, and the ReLU output
is made module-major, (N, n, d_hid), which the module sum reduces. One
function, `_layer`, holds this math for any leading axes: a pass runs it
on one batch, and `forward_prefix` on a stack of B batches, (B, n, N,
d_hid), each reduced over its own samples, with the same bits per batch. It
writes into arrays it is handed, as `backward_kernel` does. A train pass
stacks every layer's batch moments and writes the running statistics with
one update and one scatter after the last layer.

A pass's record, its tape, is the `Workspace` it ran in, built for its
shape: every array the pass writes and every view it reads them through,
the head slice's W once and one `LayerRecord` (the layer's six arrays) per
layer, stamped by the forward with the task, `grid.version` and the path
rows. The backward reads that record and the task-width loss gradient,
nothing of the arena, writes into the record's backward arrays, and
returns one flat gradient vector over the task's trainable surface only
(the tensors `trainable_keys` names, in the same order: per layer and
module W, gamma, beta, then the head slice's W and b); the trainer hands
it to the optimizer as it is. The backward stops at the lowest layer that
holds a trainable tensor, and a layer with none above it only carries the
gradient through. This layout gives the same bits as running the blocks
one by one (`_column_sums` covers the one shape that needs care). The
trainer's workspaces, one per `pass_shape` in a phase, own their input:
each step copies its batch in and overwrites the last step's record and
gradient. Every other caller (`forward_task`, `backward_task`, validation,
analysis, `forward_prefix`) gets a workspace bound to its input, and fresh
backward arrays, per call, so no array it keeps is written again.

Each pass is an unchecked kernel over a task's PathIndex (`forward_kernel`
makes the tape, `backward_kernel` reads it) behind a checked entry point
(`forward_task`, `backward_task`) that checks the task (through
`path_index`), the mode, the input or the tape and gradient, then calls the
kernel. Both take and give the task's own arrays: the (n, c) logits, and
the (n, c) gradient `softmax_xent_slice` returns for them; `backward_task`
reads the flat vector by parameter key, as a dict of views. The trainer
checks its inputs once per call, then runs the kernels. A forward may
resume at a later layer from that layer's input, taken over the same
parameters below it; its tape records the layers from there on, and
`backward_task` refuses it. Validation resumes eval passes when only later
layers changed. Training resumes train passes at a phase's frozen prefix:
below the lowest layer where any of the phase's tasks trains, nothing
changes for the whole phase and no running statistic tracks, so the
trainer runs those layers once per epoch for all of a task's batches
(`forward_prefix`), and each batch's pass starts above them; the backward
reads nothing below `PathIndex.lowest`, so it needs no more of the tape.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import ContractError, InputError
from .numerics import Segments

# norm-instance key used in shared mode; real task ids are >= 0
SHARED = -1

NORM_EPS = 1e-5
NORM_MOMENTUM = 0.1
NORM_PARAMS = ("gamma", "beta", "run_mean", "run_var")
_NEW_NORM = [1.0, 0.0, 0.0, 1.0]     # a new norm instance's NORM_PARAMS, per feature


@dataclass(frozen=True)
class Path:
    """Per-task module selection: one strictly increasing row of module
    indices per layer, Python or numpy integers, stored as tuples of int.
    Construction checks every row; `_of_valid` skips the checks for rows
    that are valid by construction."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for l, row in enumerate(self.rows):
            if not all(map(_is_integer, row)):
                raise InputError(f"path row {l} must hold integers, got {row}")
            if len(set(row)) != len(row) or list(row) != sorted(row):
                raise InputError(f"path row {l} must be strictly increasing, got {row}")
            if len(row) == 0:
                raise InputError(f"path row {l} is empty")
            if min(row) < 0:
                raise InputError(f"path row {l} has negative module index")
        object.__setattr__(self, "rows", tuple(tuple(map(int, row)) for row in self.rows))

    @classmethod
    def _of_valid(cls, rows: tuple) -> Path:
        """The Path of `rows`, without `__post_init__`'s checks: rows must
        already be what it stores, non-empty tuples of strictly increasing
        non-negative Python ints, as `_floyd_rows` builds them."""
        path = object.__new__(cls)
        object.__setattr__(path, "rows", rows)
        return path

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
    vector that holds every parameter. The layer table, set whenever the
    grid adopts an arena, locates each tensor in it: per layer (offset,
    cell size, fan_in) of its M cells back to back, a cell being one
    module's W and norm instances (in `_norm_slots` order); then the
    head's offset.
    """

    def __init__(self, n_layers: int, n_modules: int, d_in: int, d_hid: int,
                 norm_mode: str = "shared", seed: int = 0):
        if norm_mode not in ("shared", "per-task"):
            raise InputError(f"norm_mode must be 'shared' or 'per-task', got {norm_mode!r}")
        n_layers, n_modules, d_in, d_hid, seed = _check_integers(
            n_layers=(n_layers, 1), n_modules=(n_modules, 1), d_in=(d_in, 1),
            d_hid=(d_hid, 1), seed=(seed, 0))
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
        self._paths: dict = {}        # task id -> (frozen set sizes, PathIndex)

        arena = self._adopt_new_arena()
        for offset, cell, fan_in in self._layers:
            cells = arena[offset:offset + n_modules * cell].reshape(n_modules, cell)
            bound = np.sqrt(6.0 / fan_in)       # He uniform
            # one draw per layer: module m's W is row m, in stream order
            cells[:, :fan_in * d_hid] = self.rng.uniform(-bound, bound, (n_modules, fan_in * d_hid))
            # in shared mode, the one norm instance
            cells[:, fan_in * d_hid:] = np.repeat(_NEW_NORM * (norm_mode == "shared"), d_hid)

    def norm_key(self, task_id: int) -> int:
        return SHARED if self.norm_mode == "shared" else task_id

    # -- the arena -----------------------------------------------------------

    @property
    def arena(self) -> np.ndarray:
        """The flat parameter vector; registration replaces it by a wider one."""
        return self._arena

    @property
    def head_W(self) -> np.ndarray:
        """The head weights, (d_hid, c_total): a read-only view of the arena."""
        return self._head_views(self._arena, writeable=False)[0]

    @property
    def head_b(self) -> np.ndarray:
        """The head biases, (c_total,): a read-only view of the arena."""
        return self._head_views(self._arena, writeable=False)[1]

    def _adopt_new_arena(self) -> np.ndarray:
        """Adopt a new, unfilled arena for the grid's current shape and set
        the layer table for it; the caller fills it."""
        d = self.d_hid
        self._norm_slots = ({SHARED: 0} if self.norm_mode == "shared"
                            else {t.id: t.id for t in self.tasks})
        layers, offset = [], 0
        for l in range(self.n_layers):
            fan_in = self.d_in if l == 0 else d
            cell = (fan_in + 4 * len(self._norm_slots)) * d
            layers.append((offset, cell, fan_in))
            offset += self.n_modules * cell
        self._layers, self._head = tuple(layers), offset
        self._arena = np.empty(offset + (d + 1) * self.c_total)
        self._paths.clear()
        return self._arena

    def _head_views(self, flat: np.ndarray, writeable=True) -> tuple[np.ndarray, np.ndarray]:
        """head_W (d_hid, c_total) and head_b (c_total,) inside `flat`."""
        at, d, c = self._head, self.d_hid, self.c_total
        W, b = flat[at:at + d * c].reshape(d, c), flat[at + d * c:at + (d + 1) * c]
        W.flags.writeable = b.flags.writeable = writeable
        return W, b

    # -- parameter addressing ------------------------------------------------
    # keys: ("block", l, m, "W")
    #       ("norm", l, m, norm_key, "gamma"|"beta"|"run_mean"|"run_var")
    #       ("head", task_id, "W"|"b")   (the task's column slice)

    def _view(self, flat: np.ndarray, key) -> np.ndarray:
        """Tensor `key` inside `flat`, a vector laid out like the arena, at
        the place the layer table gives; InputError for a key that names no
        tensor of this grid."""
        L, M, d = self.n_layers, self.n_modules, self.d_hid
        match key:
            case ("head", tid, "W" | "b" as which) if _is_index(tid, len(self.tasks)):
                start, end = self.tasks[tid].slice
                head_W, head_b = self._head_views(flat)
                return head_W[:, start:end] if which == "W" else head_b[start:end]
            case ("block", l, m, "W") if _is_index(l, L) and _is_index(m, M):
                vector = None
            case ("norm", l, m, nk, which) if (_is_index(l, L) and _is_index(m, M)
                                               and _is_integer(nk) and nk in self._norm_slots
                                               and which in NORM_PARAMS):
                vector = 4 * self._norm_slots[nk] + NORM_PARAMS.index(which)
            case _:
                raise InputError(f"unknown parameter key {key!r}")
        # W opens the cell; the norm instances' vectors follow it
        offset, cell, fan_in = self._layers[l]
        at = offset + int(m) * cell
        if vector is None:
            return flat[at:at + fan_in * d].reshape(fan_in, d)
        at += (fan_in + vector) * d
        return flat[at:at + d]

    def get_param(self, key) -> np.ndarray:
        return self._view(self.arena, key).copy()

    def set_param(self, key, value: np.ndarray) -> None:
        target = self._view(self.arena, key)
        value = np.asarray(value, dtype=np.float64)
        if value.shape != target.shape:
            raise InputError(f"parameter {key!r} has shape {target.shape}, got {value.shape}")
        target[...] = value
        self.version += 1


def _is_integer(v) -> bool:
    """Whether v is a Python or numpy integer; a bool is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_index(i, n: int) -> bool:
    """Whether i is an integer in [0, n)."""
    return _is_integer(i) and 0 <= i < n


def _check_integers(**sizes) -> list[int]:
    """The values of `sizes`, each given as `name=(value, least)`, as Python
    ints, in order. The one size rule: InputError naming the first value
    that is not an integer by `_is_integer` ("<name> must be an integer,
    got <value!r>"); then, in argument order, the first below its least
    ("<name> must be >= <least>, got <value>")."""
    for name, (v, _) in sizes.items():
        if not _is_integer(v):
            raise InputError(f"{name} must be an integer, got {v!r}")
    for name, (v, least) in sizes.items():
        if v < least:
            raise InputError(f"{name} must be >= {least}, got {v}")
    return [int(v) for v, _ in sizes.values()]


def register_tasks(grid: ModuleGrid, cs, names=None) -> list[TaskSpec]:
    """Add one task per class count in `cs`, task i named `names[i]` (by
    default, and when empty, "task<id>"): widen the head by each task's c
    freshly initialized columns and, in per-task norm mode, give every block
    a new instance per task. Every class count is checked before the grid
    changes. The head columns are drawn from `grid.rng` in task order, so
    the grid ends as k `register_task` calls leave it, bit for bit, but it
    adopts one new arena holding every value of the old one, not k.

    The returned TaskSpecs have no path yet; assign one explicitly.
    """
    cs = [_check_integers(c=(c, 2))[0] for c in cs]
    names = [""] * len(cs) if names is None else list(names)
    if len(names) != len(cs):
        raise InputError(f"got {len(names)} names for {len(cs)} class counts")
    if not cs:
        return []
    d, start = grid.d_hid, grid.c_total
    old, old_layers = grid.arena, grid._layers
    old_head_W, old_head_b = grid._head_views(old)
    tasks = []
    for c, name in zip(cs, names):
        tid, at = len(grid.tasks), grid.c_total
        tasks.append(TaskSpec(id=tid, c=c, slice=(at, at + c), name=name or f"task{tid}"))
        grid.tasks.append(tasks[-1])
        grid.c_total += c
    arena = grid._adopt_new_arena()
    M = grid.n_modules
    # in per-task mode each cell gains one norm instance per task, in task-id order
    new_norms = np.repeat(_NEW_NORM * (len(cs) * (grid.norm_mode == "per-task")), d)
    for (was, old_cell, _), (at, cell, _) in zip(old_layers, grid._layers):
        cells = arena[at:at + M * cell].reshape(M, cell)
        cells[:, :old_cell] = old[was:was + M * old_cell].reshape(M, old_cell)
        cells[:, old_cell:] = new_norms
    head_W, head_b = grid._head_views(arena)
    head_W[:, :start], head_b[:start], head_b[start:] = old_head_W, old_head_b, 0.0
    bound = 1.0 / np.sqrt(d)
    for task in tasks:
        head_W[:, task.slice[0]:task.slice[1]] = grid.rng.uniform(-bound, bound, (d, task.c))
    grid.version += 1
    return tasks


def register_task(grid: ModuleGrid, c: int, name: str = "") -> TaskSpec:
    """Add one task to the grid: `register_tasks(grid, [c], [name])[0]`.
    The returned TaskSpec has no path or datasets yet; assign them
    explicitly.
    """
    return register_tasks(grid, [c], [name])[0]


def assign_random_path(M: int, N: int, L: int, rng: np.random.Generator) -> Path:
    """Uniform random N-subset of [0, M) per layer, layers independent.

    Row l is the sorted `rng.choice(M, size=N, replace=False)` of the l-th
    such call on `rng`, and the generator ends where those L calls leave
    it; this is `assign_random_paths(M, N, L, 1, rng)[0]`, which says how
    the draws are made."""
    return assign_random_paths(M, N, L, 1, rng)[0]


def assign_random_paths(M: int, N: int, L: int, k: int,
                        rng: np.random.Generator) -> list[Path]:
    """k random paths: row r of the k*L rows (path r // L, layer r % L)
    is the sorted r-th `rng.choice(M, size=N, replace=False)`, and `rng`
    ends in the state those k*L calls leave, bit for bit. So one call
    gives the paths k consecutive `assign_random_path` calls give.

    On a PCG64 generator the rows come from one read of its stream.
    numpy's choice runs Floyd's algorithm for M <= 10,000: a draw on
    [0, j] for j = M-N .. M-1 (none for j = 0), a taken value replaced by
    j, then N-1 shuffle draws on [0, i] for i = N-1 .. 1. Each draw is
    Lemire's: one uint32 u of the stream gives (u * (j+1)) >> 32, unless
    (u * (j+1)) mod 2^32 < (2^32-1-j) mod (j+1) rejects it. The uint32
    stream is each 64-bit output's low then high half, after the buffered
    half-word when the state has one. This reads the words every row
    needs with one `random_raw` call, runs the Floyd draws over all rows
    at once, checks the shuffle draws without applying them (the rows are
    sorted), and writes the buffered half-word back into the state. It
    falls back to calling `rng.choice` per row, from the state it was
    given, when the bit generator is not PCG64, when M > 10,000, or when
    any draw would be rejected (a chance of 4.4e-9 per row at M = 12,
    N = 4). The one-read rows are strictly increasing Python ints by
    construction, so their Paths are built without `Path`'s checks
    (`Path._of_valid`); the fallback's rows go through them.
    """
    M, N, L, k = _check_integers(M=(M, 1), N=(N, 1), L=(L, 1), k=(k, 0))
    if N > M:
        raise InputError(f"need N <= M, got N={N}, M={M}")
    rows = _floyd_rows(M, N, k * L, rng.bit_generator)
    if rows is not None:
        return [Path._of_valid(tuple(rows[t * L:(t + 1) * L])) for t in range(k)]
    rows = [sorted(rng.choice(M, size=N, replace=False)) for _ in range(k * L)]
    return [Path(tuple(map(tuple, rows[t * L:(t + 1) * L]))) for t in range(k)]


def _floyd_rows(M: int, N: int, R: int, bitgen) -> Optional[list]:
    """The R sorted rows R `Generator.choice(M, N, replace=False)`
    calls on a PCG64 `bitgen` give, drawn from one read of its stream with
    its state advanced to match; None, with the state untouched, where
    `assign_random_paths` falls back. Each row is a tuple of N Python ints
    in [0, M), strictly increasing: the members of a set, in order."""
    if type(bitgen) is not np.random.PCG64 or M > 10_000:
        return None
    first, lo = M - N, max(M - N, 1)    # Floyd's first j, and the first j that draws
    # exclusive bounds j+1 of each row's draws, in stream order
    bounds = np.concatenate([np.arange(lo, M), np.arange(N - 1, 0, -1)])
    bounds = bounds.astype(np.uint64) + 1
    need = R * bounds.size
    state = bitgen.state
    buffered = state["has_uint32"]
    words = bitgen.random_raw((need - buffered + 1) // 2)   # the halves not buffered
    halves = np.empty(2 * words.size + buffered, dtype=np.uint64)
    halves[:buffered] = state["uinteger"]
    halves[buffered::2] = words & 0xFFFFFFFF
    halves[buffered + 1::2] = words >> 32
    scaled = halves[:need].reshape(R, bounds.size) * bounds
    if ((scaled & 0xFFFFFFFF) < (2**32 - bounds) % bounds).any():
        bitgen.state = state
        return None
    drawn = (scaled >> 32).astype(np.intp)
    member = np.zeros(R * M, dtype=bool)
    base = np.arange(0, R * M, M)
    if first == 0:                      # j = 0 draws nothing and takes 0
        member[base] = True
    for col, j in enumerate(range(lo, M)):
        val = drawn[:, col]             # a value already taken gives j
        member[base + np.where(member[base + val], j, val)] = True
    after = bitgen.state
    after["has_uint32"] = halves.size - need   # 1 when a half is left over
    after["uinteger"] = int(words[-1] >> 32) if words.size else state["uinteger"]
    bitgen.state = after
    return list(map(tuple, np.nonzero(member.reshape(R, M))[1].reshape(R, N).tolist()))


def build_controlled_paths(L: int, M: int = 4, N: int = 2,
                           shared_layers=()) -> tuple[Path, Path]:
    """Two-task paths for the controlled sharing setups.

    Layers in `shared_layers` give both tasks modules {0..N-1}; elsewhere
    task A gets {0..N-1} and task B the disjoint {N..2N-1}. Requires
    integers L, N >= 1 and M = 2N, so full disjointness is possible, and
    each shared layer an integer in [0, L).
    """
    L, M, N = _check_integers(L=(L, 1), M=(M, 2), N=(N, 1))
    if M != 2 * N:
        raise InputError(f"controlled setups need M = 2N, got M={M}, N={N}")
    shared = set(shared_layers)
    bad = [l for l in shared if not _is_index(l, L)]
    if bad:
        raise InputError(f"shared layers must be integers in [0,{L}), got {bad}")
    low = tuple(range(N))
    high = tuple(range(N, 2 * N))
    rows_a = tuple(low for _ in range(L))
    rows_b = tuple(low if l in shared else high for l in range(L))
    return Path(rows_a), Path(rows_b)


def freeze(grid: ModuleGrid, task: TaskSpec) -> None:
    """Freeze a finished task, which `path_index` must accept: the blocks on
    its path stop updating (and, in shared-norm mode, their norm's running
    stats stop tracking), and so do its per-task norm instances and head slice."""
    path_index(grid, task)
    grid.frozen.update(task.path.modules())
    grid.frozen_tasks.add(task.id)


def freeze_fingerprint(grid: ModuleGrid, task: TaskSpec) -> dict[str, str]:
    """Hashes of the task's frozen surface, which `path_index` must accept:
    every tensor its path index keys (path blocks, the norm instances it
    used, its head slice), and per path module its running statistics,
    run_mean then run_var, each read by key."""
    index = path_index(grid, task)
    arena, nk = grid.arena, grid.norm_key(task.id)
    fp = {repr(key): hashlib.sha256(arena[t].tobytes()).hexdigest()
          for key, t in zip(index.keys, index.tensors)}
    for l, m in task.path.modules():
        mean, var = (grid._view(arena, ("norm", l, m, nk, which))
                     for which in ("run_mean", "run_var"))
        fp[repr(("norm_stats", l, m, nk))] = hashlib.sha256(
            mean.tobytes() + var.tobytes()).hexdigest()
    return fp


def trainable_keys(grid: ModuleGrid, task: TaskSpec) -> list:
    """Parameter keys the optimizer may update for this task: unfrozen path
    blocks, the norm instances the task trains (own ones in per-task mode,
    unfrozen shared ones otherwise), and the task's head slice."""
    index = path_index(grid, task)
    return [key for key, train in zip(index.keys, index.trains) if train]


@dataclass(frozen=True)
class PathIndex:
    """Where one task's path lives in the arena and in its flat gradient.

    `task_id` is the task's id, which its tapes carry. `positions` lists,
    in gather order, every arena position an eval forward reads, each
    tensor's positions as `ModuleGrid._view` places it: per layer of the
    path, each module's W (row-major), then gamma, beta, run_mean and
    run_var, each module-major over the layer's N modules as one (N*d_hid,)
    vector; then the head slice's W (row-major) and b. Layer l's entries
    start at `starts[l]`, and the head's at `starts[L]`: a forward from
    layer l gathers every entry from `starts[l]` on, the head included, in
    one go, and reads no parameter any other way. `norm_stats` holds the
    arena positions of every running statistic the path reads, in the order
    the train forward stacks its batch moments (per layer the mean, then the
    variance, each module-major).

    The backward works in a vector of `size` holding, per layer and module,
    W, gamma and beta, then the head slice's W and b; their keys, in
    that order, are `keys`, every tensor a finished task freezes, and their
    arena positions, shaped like each tensor, `tensors` (views into
    `positions`).

    The fields above do not depend on what is frozen; the rest do, and
    `path_index` refreshes only those when freezing changed them.
    `trains[i]` tells whether tensor `keys[i]` trains. `stats` holds the
    entries of `norm_stats` that still track, and `live` picks them out of
    the stack of batch moments (None: all of them). `learns[l]` tells
    whether layer l holds a trainable tensor and `lowest` is the lowest such
    layer (the path's depth when none does): the backward computes no
    gradient below it and none inside a layer that does not learn.
    `trainable` masks the work vector down to the tensors that train (None
    when all do) and `segments` holds their arena positions. `trains` is
    the one record of the freeze; `trainable_keys` filters `keys` by it.
    """

    task_id: int
    path: Path
    positions: np.ndarray
    starts: tuple
    norm_stats: np.ndarray
    size: int
    keys: list
    tensors: list
    trains: tuple
    stats: np.ndarray
    live: Optional[np.ndarray]
    learns: tuple
    lowest: int
    trainable: Optional[np.ndarray]
    segments: Segments


def path_index(grid: ModuleGrid, task: TaskSpec) -> PathIndex:
    """The task's PathIndex, and the one task check: InputError unless the
    task is registered on this grid and has a path that fits it. Cached
    per task; registration and a new `task.path` make the cache stale.
    Freezing keeps the cached index's positions and keys and refreshes only
    what depends on the freeze, keeping the same object when the task's
    tensors train as before. The frozen sets only grow (nothing
    unfreezes), so their sizes tell whether they changed."""
    if task.id >= len(grid.tasks) or grid.tasks[task.id] is not task:
        raise InputError(f"task {task.id} is not registered on this grid")
    stamp = (len(grid.frozen), len(grid.frozen_tasks))
    cached = grid._paths.get(task.id)
    if cached is not None and cached[1].path is task.path:
        seen, index = cached
        if seen == stamp:
            return index
        trains = _freeze_flags(grid, task)
        if trains != index.trains:
            index = replace(index, **_frozen_fields(grid, index.path, index.norm_stats,
                                                    index.tensors, trains))
    else:
        if task.path is None:
            raise InputError(f"task {task.id} has no path assigned")
        task.path.check(grid.n_modules, grid.n_layers)
        index = _build_path_index(grid, task)
    grid._paths[task.id] = (stamp, index)
    return index


def _build_path_index(grid: ModuleGrid, task: TaskSpec) -> PathIndex:
    """A task's PathIndex from scratch: the fields freezing leaves alone,
    each tensor's arena positions read off `ModuleGrid._view` over the
    arena's position numbers, then those it changes (`_frozen_fields`)."""
    nk = grid.norm_key(task.id)
    gather, keys, layer_ends = [], [], []
    for l, row in enumerate(task.path.rows):
        # each module's W, then gamma, beta, run_mean and run_var, each module-major
        Ws = [("block", l, m, "W") for m in row]
        gamma, beta, mean, var = ([("norm", l, m, nk, which) for m in row]
                                  for which in NORM_PARAMS)
        gather += Ws + gamma + beta + mean + var
        keys += [key for trio in zip(Ws, gamma, beta) for key in trio]
        layer_ends.append(len(gather))
    keys += [("head", task.id, "W"), ("head", task.id, "b")]
    gather += keys[-2:]
    places = np.arange(grid.arena.size)
    views = [grid._view(places, key) for key in gather]
    positions = np.concatenate([view.ravel() for view in views])
    ends = np.cumsum([view.size for view in views]).tolist()
    tensor = {key: positions[end - view.size:end].reshape(view.shape)
              for key, view, end in zip(gather, views, ends)}
    tensors = [tensor[key] for key in keys]
    starts = [0] + [ends[k - 1] for k in layer_ends]
    norm_stats = np.concatenate([tensor[key] for key in gather if key[-1].startswith("run_")])
    return PathIndex(
        task_id=task.id, path=task.path, positions=positions,
        starts=tuple(starts), norm_stats=norm_stats,
        size=int(sum(t.size for t in tensors)), keys=keys, tensors=tensors,
        **_frozen_fields(grid, task.path, norm_stats, tensors, _freeze_flags(grid, task)))


def _freeze_flags(grid: ModuleGrid, task: TaskSpec) -> tuple:
    """`trains`: whether each tensor of the task's `keys` trains. A module's
    gamma flag is also whether its norm instance tracks: both freeze together."""
    nk = grid.norm_key(task.id)
    task_frozen = task.id in grid.frozen_tasks
    trains = []
    for l, row in enumerate(task.path.rows):
        for m in row:
            frozen_block = (l, m) in grid.frozen
            norm_frozen = frozen_block if nk == SHARED else task_frozen
            trains += [not frozen_block] + [not norm_frozen] * 2
    trains += [not task_frozen] * 2
    return tuple(trains)


def _frozen_fields(grid: ModuleGrid, path: Path, norm_stats: np.ndarray, tensors: list,
                   trains: tuple) -> dict:
    """The freeze-dependent fields of a PathIndex, by name, from `trains`
    and the fields freezing leaves alone (`path`, `norm_stats`, `tensors`)."""
    learns, tracks, at = [], [], 0
    for row in path.rows:
        learns.append(any(trains[3 * at:3 * (at + len(row))]))
        # each running statistic, mean then variance, of the layer's modules,
        # tracked while the module's gamma trains
        tracks += [np.repeat(trains[3 * at + 1:3 * (at + len(row)):3], grid.d_hid)] * 2
        at += len(row)
    tracks = np.concatenate(tracks)
    return dict(
        trains=trains,
        stats=norm_stats[tracks],
        live=None if tracks.all() else np.flatnonzero(tracks),
        learns=tuple(learns),
        lowest=learns.index(True) if any(learns) else len(learns),
        trainable=None if all(trains) else np.repeat(trains, [t.size for t in tensors]),
        segments=Segments.of([t.ravel() for t, train in zip(tensors, trains) if train]),
    )


class LayerRecord(NamedTuple):
    """One layer's forward intermediates over its N path modules, in
    path-row order. Sample-major arrays are C-contiguous (n, N, d_hid), the
    layout of (n, N*d_hid) with module k in column block k; per-feature
    ones are (1, N, d_hid), broadcast over the samples."""

    Ws: np.ndarray        # (N, d_in, d_hid) weights as read by the forward
    gamma: np.ndarray     # (1, N, d_hid) norm scale as read by the forward
    zhat: np.ndarray      # (n, N, d_hid) normalized pre-activation
    inv_std: np.ndarray   # (1, N, d_hid) 1/sqrt(var + eps) actually applied
    y: np.ndarray         # (n, N, d_hid) gamma*zhat + beta (pre-ReLU)
    out: np.ndarray       # (N, n, d_hid) relu(y), the pre-sum module outputs


def forward_task(grid: ModuleGrid, task: TaskSpec, x: np.ndarray, mode: str = "eval"):
    """Run x through the task's path; returns (logits slice, tape).

    Per layer, each selected block computes relu(norm(x W)) and the
    results are summed to feed the next layer; the N blocks of a layer run
    as one computation over a sample-major (n, N, d_hid) array. Train mode
    normalizes with batch statistics and updates the running stats of the
    instances it used (unless frozen); it needs at least two samples, since
    one sample has zero batch variance. Eval mode reads running stats and
    mutates nothing. Checks its inputs, then runs `forward_kernel`.
    """
    if mode not in ("train", "eval"):
        raise InputError(f"mode must be 'train' or 'eval', got {mode!r}")
    index = path_index(grid, task)
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
    return forward_kernel(grid, index, x, train)


def _column_sums(a: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """np.add.reduce(a, axis, out=out) for an array whose last axis has
    length 1, (..., n, N, 1) reduced over its sample axis, rounded as each
    module's own (n, 1) column sum. numpy adds the rows of an (n, N) array
    one by one but sums a lone contiguous column pairwise (from 9 rows up
    the two differ), so the columns are summed from a module-major copy."""
    return np.add.reduce(np.moveaxis(a, axis, -1).copy(), axis=-1, out=out)


def _array(pool: Optional[dict], role: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """A new array; or, given a pool, the pool's array for this role, shape
    and dtype, made on the first request, so that one array serves every
    layer that writes and reads it before the next layer runs."""
    if pool is None:
        return np.empty(shape, dtype)
    key = (role, shape, dtype)
    if key not in pool:
        pool[key] = np.empty(shape, dtype)
    return pool[key]


class Workspace:
    """One pass's record: every array a pass of one shape writes, and every
    view it reads them through: the parameter gather and its per-layer
    views, each layer's LayerRecord arrays, batch moments and summed
    output, the logits, and the backward's work vector and per-layer arrays
    (`_backward_buffers`). Who owns one: see the module docstring.

    A shape is the input's shape (..., n, fan_in), the path's row widths
    and head width, the layers run (from `start`; to `stop`, or through the
    head when it is None) and the mode. Nothing else of a task is kept:
    positions, running statistics and the freeze come from the PathIndex
    at each call, so tasks whose passes have one shape share a workspace.
    Given `x`, the workspace is built for that one input (a kernel's fresh
    workspace) and binds it; else it owns `x`, and each pass copies its
    input there.

    As a tape it holds every parameter the backward reads, as the forward
    read it (`layers`, `head_W`), and its last pass's stamps: `task_id`,
    `grid_version` and `rows`. `rows[i]` (a path row), `inputs[i]` and
    `layers[i]` are layer start + i's; `h_final` is the last summed output.

    A train pass through the head stacks its batch moments in `moments`,
    in `PathIndex.norm_stats` order (only the entries from `start` on are
    written), and leaves the running statistics it wrote in `stats`. A
    stacked pass (`forward_prefix`) keeps no tape, so its layers share
    every array but their summed outputs."""

    def __init__(self, grid: ModuleGrid, index: PathIndex, shape: tuple, train: bool,
                 start: int = 0, stop: Optional[int] = None, x: Optional[np.ndarray] = None):
        d = grid.d_hid
        lead, n = shape[:-2], shape[-2]
        sample_sum = np.add.reduce if d > 1 else _column_sums
        self.train, self.start, self.size = train, start, index.size
        self.owns_input, self._backward = x is None, None
        self.x = np.empty(shape) if x is None else x
        end = index.positions.size if stop is None else index.starts[stop]
        self.params = np.empty(end - index.starts[start])
        tracks = train and stop is None     # this pass writes running statistics
        if tracks:
            self.moments = np.empty(index.norm_stats.size)
            self.new, self.tracked = np.empty((2, index.norm_stats.size))
            self.stats = self.new[:0]
            m_at = 2 * d * sum(map(len, index.path.rows[:start]))
        self.steps, self.layers, self.inputs = [], [], []
        pool = {}
        kept = None if stop is None else pool   # a stacked prefix pass keeps no tape
        h, at, fan_in = self.x, 0, shape[-1]
        for row in index.path.rows[start:stop]:
            N = len(row)
            Ws = self.params[at:at + N * fan_in * d].reshape(N, fan_in, d)
            at += Ws.size
            # the per-feature vectors broadcast over the samples: (1, N, d_hid)
            gamma, beta, mean, var = self.params[at:at + 4 * N * d].reshape(4, 1, N, d)
            at += 4 * N * d
            if tracks:
                mean, var = self.moments[m_at:m_at + 2 * N * d].reshape(2, 1, N, d)
                m_at += 2 * N * d
            elif train:
                mean, var = _array(pool, "moments", (2,) + lead + (1, N, d))
            sample_major = shape[:-1] + (N, d)
            z = _array(kept, "z", sample_major)     # z, then zhat in place
            out = _array(kept, "out", lead + (N, n, d))
            summed = np.empty(shape[:-1] + (d,))
            record = LayerRecord(Ws, gamma, z, _array(kept, "inv_std", mean.shape),
                                 _array(kept, "y", sample_major), out)
            self.inputs.append(h)
            self.layers.append(record)
            self.steps.append((
                h[..., None, :, :], Ws, z.swapaxes(-3, -2), z, mean, var,
                # train mode: the moments without their sample axis
                *((mean[..., 0, :, :], var[..., 0, :, :]) if train else (None, None)),
                record.inv_std, gamma, beta, record.y, out.swapaxes(-3, -2), out, summed,
                n, sample_sum))
            h, fan_in = summed, d
        self.h_final = h      # the head's input in a pass through the head
        if stop is None:
            head = self.params[at:].reshape(d + 1, -1)      # the head slice's W rows, then b
            self.head_W, self.head_b = head[:d], head[d]
            self.logits = np.empty((n, head.shape[1]))

    def layer_sum(self, layer: int) -> np.ndarray:
        """The summed output of a layer: the next layer's input."""
        return self.inputs[layer + 1] if layer + 1 < len(self.inputs) else self.h_final

    def module_outputs(self, layer: int) -> dict[int, np.ndarray]:
        """Each path module's pre-sum output at a layer, by module index."""
        out = self.layers[layer].out
        return {m: out[i] for i, m in enumerate(self.rows[layer])}


def pass_shape(grid: ModuleGrid, index: PathIndex, n: int, start: int) -> tuple:
    """The key of a pass of `index`'s task over n samples from layer `start`
    through the head: its input's shape (n, fan_in), which a `Workspace`
    for it takes, then the path's row widths, head width and `start`."""
    fan_in = grid.d_hid if start else grid.d_in
    return (n, fan_in), tuple(map(len, index.path.rows)), grid.tasks[index.task_id].c, start


def _layer(step: tuple, train: bool) -> None:
    """One layer's N blocks over a stack of batches, written into the
    arrays of `step` (a `Workspace` layer): the input h is (..., n, fan_in),
    any leading axes, each batch normalized on its own, and the per-feature
    arrays keep a length-1 sample axis, (..., 1, N, d_hid), so they
    broadcast over it. Writes the LayerRecord's arrays (sample-major (...,
    n, N, d_hid)) and the summed output (..., n, d_hid), the next layer's
    input. In train mode the batch moments are written into mean and var;
    in eval mode they are the running statistics, only read. A pass runs
    this on one batch and `forward_prefix` on a stack, so a batch gets the
    same bits either way."""
    (h, Ws, z_mm, z, mean, var, mean_sum, var_sum, inv_std, gamma, beta, y, out_mm,
     out, summed, n, sample_sum) = step
    # each value goes through the operations of the expression in the comment
    np.matmul(h, Ws, out=z_mm)                  # z = h @ W per module
    if train:
        # z.mean and z.var over the batch (sum / n), sharing the centred z
        sample_sum(z, -3, out=mean_sum)
        mean_sum /= n
    z -= mean
    if train:
        np.multiply(z, z, out=y)                # y holds z * z until y is computed
        sample_sum(y, -3, out=var_sum)
        var_sum /= n
    np.add(var, NORM_EPS, out=inv_std)          # inv_std = 1 / sqrt(var + eps)
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    z *= inv_std                                # zhat
    np.multiply(gamma, z, out=y)                # y = gamma * zhat + beta
    y += beta
    np.maximum(y, 0.0, out=out_mm)              # out = relu(y), module-major
    np.add.reduce(out, axis=-3, out=summed)


def forward_kernel(grid: ModuleGrid, index: PathIndex, x: np.ndarray, train: bool,
                   start: int = 0, ws: Optional[Workspace] = None):
    """The forward pass of `forward_task`, unchecked: x is a finite float64
    (n, d_in) array, n >= 2 in train mode, and `index` the PathIndex of a
    task of this grid. Returns (logits, tape): the task-width logits and the
    Workspace the pass ran in, stamped, which is the tape the backward reads.

    One gather reads every parameter the pass uses, the head slice's last, a
    layer runs on one sample-major (n, N, d_hid) array (`_layer`, see the
    module docstring), and a train pass writes every layer's running
    statistics with one scatter after the last.

    Given `ws` (a Workspace that owns its input, of this pass's mode and
    `pass_shape`), the pass copies x there, runs in it and returns it as the
    tape; without one, it runs in a fresh Workspace bound to x.

    A pass may resume at layer `start` (grid.n_layers: the head alone): x is
    then the (n, d_hid) input that layer took, or would take, in a pass of
    the same mode over the current parameters below it, and the logits are
    those of the whole pass. An eval pass resumes from an earlier pass's
    input (validation). A train pass resumes from `forward_prefix`'s output
    and needs start <= `index.lowest`: no running statistic below it
    tracks, so the stack of batch moments keeps its whole-path offsets,
    `index.live` still picks from it, and only the entries from `start` on
    are filled. The tape records the layers from `start` on; the backward
    reads nothing below `index.lowest`."""
    if ws is None:
        ws = Workspace(grid, index, x.shape, train, start, x=x)
    else:
        np.copyto(ws.x, x)
    arena = grid.arena
    arena.take(index.positions[index.starts[start]:], out=ws.params, mode="clip")
    for step in ws.steps:
        _layer(step, train)
    if train:
        new = ws.stats = ws.new[:index.stats.size]
        if new.size:
            # new = (1 - momentum) * old + momentum * tracked moments
            arena.take(index.stats, out=new, mode="clip")
            new *= 1 - NORM_MOMENTUM
            tracked = (ws.moments if index.live is None
                       else ws.moments.take(index.live, out=ws.tracked[:new.size], mode="clip"))
            tracked *= NORM_MOMENTUM
            new += tracked
            arena[index.stats] = new
    np.matmul(ws.h_final, ws.head_W, out=ws.logits)
    ws.logits += ws.head_b
    ws.task_id, ws.grid_version, ws.rows = index.task_id, grid.version, index.path.rows[start:]
    return ws.logits, ws


def forward_prefix(grid: ModuleGrid, index: PathIndex, xs: np.ndarray, stop: int) -> np.ndarray:
    """The train-mode pass of layers [0, stop) over a stack of batches,
    unchecked: xs is a finite float64 (B, n, d_in) array, n >= 2, and stop
    <= `index.lowest`. Returns the (B, n, d_hid) stack of each batch's input
    to layer `stop`, the bits `forward_kernel`'s train pass of that batch
    alone records there, in a fresh Workspace's array. Batch moments are
    taken per batch; nothing is written, since no running statistic below
    `index.lowest` tracks."""
    ws = Workspace(grid, index, xs.shape, True, 0, stop, x=xs)
    grid.arena.take(index.positions[:index.starts[stop]], out=ws.params, mode="clip")
    for step in ws.steps:
        _layer(step, True)
    return ws.h_final


def backward_task(grid: ModuleGrid, task: TaskSpec, tape: Workspace,
                  dslice: np.ndarray) -> dict:
    """Gradients for exactly the task's trainable surface.

    `tape` is a whole pass's (`forward_task`'s), and `dslice` the loss
    gradient over the task's own (n, c) logits, as `softmax_xent_slice`
    returns it. Returns a dict from each key `trainable_keys` names, in
    that order (unfrozen path blocks, the norm instances the task trains,
    its head slice), to that tensor's view of the one flat vector
    `backward_kernel` returns. Checks the tape and dslice (its shape, and
    that it is finite), then runs the kernel on dslice as a contiguous
    array, as the trainer does, so both give the same bits. On a
    `forward_task` tape each call's gradient is in fresh arrays.
    """
    index = path_index(grid, task)
    if tape.task_id != task.id:
        raise ContractError(f"tape belongs to task {tape.task_id}, not {task.id}")
    if tape.grid_version != grid.version:
        raise ContractError("stale tape: grid parameters changed since forward")
    if tape.start:
        raise ContractError(f"tape starts at layer {tape.start} of {grid.n_layers}: "
                            "a resumed pass has no backward here")
    n = tape.h_final.shape[0]
    dslice = np.ascontiguousarray(dslice, dtype=np.float64)
    if dslice.shape != (n, task.c):
        raise InputError(f"dslice must be ({n}, {task.c}), got {dslice.shape}")
    if not np.isfinite(dslice).all():
        raise InputError("dslice contains non-finite values")
    flat = backward_kernel(grid, index, tape, dslice)
    grads, at = {}, 0
    for key, tensor, train in zip(index.keys, index.tensors, index.trains):
        if train:
            grads[key] = flat[at:at + tensor.size].reshape(tensor.shape)
            at += tensor.size
    return grads


def _backward_buffers(tape: Workspace) -> tuple:
    """The arrays `backward_kernel` writes for a pass through `tape`, and
    its views of it: the work vector of `tape.size` (PathIndex.size) and
    its head slice's W and b views, the transposed h_final and head W, the
    top layer's input gradient, and per layer the `backward_kernel` loop's
    arrays, in the tape's layer order: kept by a workspace that owns its
    input, fresh on every call for one bound to its caller's."""
    if tape._backward is not None:
        return tape._backward
    n, d = tape.h_final.shape
    c = tape.head_W.shape[1]
    work = np.empty(tape.size)
    offset = tape.size - (d + 1) * c
    head = work[offset:offset + d * c].reshape(d, c), work[offset + d * c:]
    # dh[i]: the gradient of layer start + i's summed output; the layers
    # share the rest, which each writes and reads before the next layer runs
    dh = [np.empty((n, d)) for _ in tape.layers]
    pool = {}
    layers = [None] * len(tape.layers)
    for i in range(len(tape.layers) - 1, -1, -1):
        Ws, gamma, zhat, inv_std, y, _ = tape.layers[i]
        N, fan_in = Ws.shape[:2]
        dd = fan_in * d
        offset -= N * (dd + 2 * d)
        grads = work[offset:offset + N * (dd + 2 * d)].reshape(N, dd + 2 * d)
        dy = _array(pool, "dy", (n, N, d))
        layers[i] = (
            tape.inputs[i].T, Ws.transpose(0, 2, 1), gamma, zhat, inv_std, y, dh[i][:, None],
            _array(pool, "positive", (n, N, d), bool), dy, dy.transpose(1, 0, 2),
            _array(pool, "scaled", (n, N, d)), _array(pool, "mean_dzhat", (N, d)),
            _array(pool, "mean_scaled", (N, d)), _array(pool, "dz", (N, n, d)),
            grads[:, dd:dd + d], grads[:, dd + d:], grads[:, :dd].reshape(N, fan_in, d),
            _array(pool, "dz_W", (N, n, fan_in)), dh[i - 1] if i else None)
    buffers = work, head, tape.h_final.T, tape.head_W.T, dh[-1] if dh else None, layers
    if tape.owns_input:
        tape._backward = buffers
    return buffers


def backward_kernel(grid: ModuleGrid, index: PathIndex, tape: Workspace,
                    dslice: np.ndarray) -> np.ndarray:
    """The backward pass of `backward_task`, unchecked: `tape` is what
    `forward_kernel` returned for this grid state and `index`, and dslice
    the task-width (n, c) loss gradient. Returns the flat gradient over
    the task's trainable tensors; every parameter it reads is the tape's, as
    the forward read it, and nothing is read from the arena. Nothing is
    computed below the lowest layer that holds a trainable tensor, and a
    layer without one above it only passes the gradient down; so a train
    tape resumed at a layer no higher than `index.lowest` serves as well as
    a whole one. Batch norm's gradient runs on the forward's sample-major
    layout; dz is then made module-contiguous for the weight and input
    gradients, whose products round differently on a strided dz.

    It writes into the tape's backward arrays (`_backward_buffers`): when
    every tensor trains, a trainer workspace's work vector is returned, and
    its next backward overwrites it."""
    reduce = np.add.reduce
    n = dslice.shape[0]
    sample_sum = reduce if grid.d_hid > 1 else _column_sums
    work, (head_dW, head_db), h_final_T, head_W_T, dh_top, layers = _backward_buffers(tape)
    if index.trainable is None or index.trainable[-1]:     # the head slice trains
        np.matmul(h_final_T, dslice, out=head_dW)
        reduce(dslice, axis=0, out=head_db)
    if index.lowest < grid.n_layers:
        np.matmul(dslice, head_W_T, out=dh_top)
    # each value goes through the operations of the expression in the comment
    for l in range(grid.n_layers - 1, index.lowest - 1, -1):
        (h_prev_T, Ws_T, gamma, zhat, inv_std, y, dh, positive, dy, dy_mm, scaled, mean_dzhat,
         mean_scaled, dz, d_gamma, d_beta, d_W, dz_W, dh_below) = layers[l - tape.start]
        np.greater(y, 0, out=positive)
        np.multiply(dh, positive, out=dy)           # dy = dh * (y > 0)
        if index.learns[l]:
            np.multiply(dy, zhat, out=scaled)
            sample_sum(scaled, 0, out=d_gamma)      # (dy * zhat).sum(0)
            sample_sum(dy, 0, out=d_beta)
        dy *= gamma
        dzhat = dy
        if tape.train:
            # dz = inv_std * (dzhat - mean(dzhat) - zhat * mean(dzhat * zhat)),
            # the means as sum / n, as .mean computes them
            sample_sum(dzhat, 0, out=mean_dzhat)
            mean_dzhat /= n
            np.multiply(dzhat, zhat, out=scaled)
            sample_sum(scaled, 0, out=mean_scaled)
            mean_scaled /= n
            np.multiply(zhat, mean_scaled, out=scaled)
            dzhat -= mean_dzhat
            dzhat -= scaled
        dzhat *= inv_std
        np.copyto(dz, dy_mm)                        # module-major
        if index.learns[l]:
            np.matmul(h_prev_T, dz, out=d_W)
        if l > index.lowest:   # nothing consumes the gradient below the cut
            np.matmul(dz, Ws_T, out=dz_W)           # dh_below = (dz @ W.T).sum(0)
            reduce(dz_W, axis=0, out=dh_below)
    return work if index.trainable is None else work[index.trainable]
