"""Binary grid checkpoints.

Layout: magic ``PART``, u32 format version, u64 length-prefixed canonical
JSON metadata (grid shape, task registry with paths, norm mode, frozen
set, construction seed), then the grid's parameter arena as one flat
little-endian float64 blob. The arena's order is the format's: layer-major,
module-minor, per module W (row-major) then b then its norm instances in
task-id order (gamma, beta, run_mean, run_var each), and finally head_W
(row-major) and head_b. Metadata JSON is canonical (sorted keys, compact
separators) so save -> load -> save is byte-identical.

Saving goes through `write_atomic` (a temporary file next to the target,
renamed into place), so a checkpoint is never seen half-written; the
report and analysis files are written the same way. Loading rejects a
missing or unreadable file with InputError, and a corrupt one (bad magic,
unknown version, undecodable or inconsistent metadata, wrong blob size, a
NaN or infinite parameter) with ContractError, before any of it reaches a
grid.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path as FsPath

import numpy as np

from .errors import ContractError, InputError
from .net import ModuleGrid, Path, register_task

MAGIC = b"PART"
FORMAT_VERSION = 1


def _metadata(grid: ModuleGrid) -> dict:
    return {
        "n_layers": grid.n_layers,
        "n_modules": grid.n_modules,
        "d_in": grid.d_in,
        "d_hid": grid.d_hid,
        "norm_mode": grid.norm_mode,
        "seed": grid.seed,
        "tasks": [
            {
                "id": t.id,
                "c": t.c,
                "slice": list(t.slice),
                "name": t.name,
                "path": [list(row) for row in t.path.rows] if t.path else None,
            }
            for t in grid.tasks
        ],
        "frozen": sorted([list(cell) for cell in grid.frozen]),
        "frozen_tasks": sorted(grid.frozen_tasks),
    }


def write_atomic(path, *chunks: bytes) -> None:
    """Write `chunks` to a temporary file next to `path`, then rename it into
    place: readers see the old file or the whole new one, never a partial
    one. A failed write removes the temporary file and leaves `path` as it was;
    an OSError about the temporary file is raised again naming `path`."""
    path = FsPath(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        if isinstance(e, OSError) and e.filename == str(tmp):
            # name the file the caller asked for, not the temporary one
            raise OSError(e.errno, e.strerror, str(path)) from None
        raise


def write_json(path, obj) -> None:
    """`obj` as sorted, 2-space-indented JSON plus a newline, written with
    `write_atomic`: the form of every JSON artifact but the checkpoint's
    metadata."""
    write_atomic(path, (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def save_checkpoint(grid: ModuleGrid, path) -> None:
    meta = json.dumps(_metadata(grid), sort_keys=True, separators=(",", ":")).encode()
    write_atomic(path, MAGIC, struct.pack("<I", FORMAT_VERSION),
                 struct.pack("<Q", len(meta)), meta,
                 grid.arena.astype("<f8", copy=False).tobytes())


def _grid_from_metadata(meta: dict) -> ModuleGrid:
    grid = ModuleGrid(meta["n_layers"], meta["n_modules"], meta["d_in"],
                      meta["d_hid"], norm_mode=meta["norm_mode"], seed=meta["seed"])
    for row in meta["tasks"]:
        task = register_task(grid, row["c"], name=row["name"])
        if task.id != row["id"] or list(task.slice) != row["slice"]:
            raise ContractError("task registry in checkpoint is inconsistent")
        if row["path"] is not None:
            task.path = Path(tuple(tuple(r) for r in row["path"]))
            task.path.check(grid.n_modules, grid.n_layers)
    L, M = grid.n_layers, grid.n_modules
    for cell in meta["frozen"]:
        if not (len(cell) == 2 and all(type(i) is int for i in cell)
                and 0 <= cell[0] < L and 0 <= cell[1] < M):
            raise InputError(f"frozen cell {cell} is not a cell of the {L} x {M} grid")
    for tid in meta["frozen_tasks"]:
        if type(tid) is not int or not 0 <= tid < len(grid.tasks):
            raise InputError(f"frozen task {tid!r} is not a registered task")
    grid.frozen = {tuple(cell) for cell in meta["frozen"]}
    grid.frozen_tasks = set(meta["frozen_tasks"])
    return grid


def load_checkpoint(path) -> ModuleGrid:
    try:
        raw = FsPath(path).read_bytes()
    except OSError as e:
        raise InputError(f"cannot read checkpoint {path}: {e.strerror or e}") from None
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise ContractError(f"not a checkpoint file (bad magic): {path}")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != FORMAT_VERSION:
        raise ContractError(
            f"checkpoint format version {version} not supported (expected {FORMAT_VERSION})")
    (meta_len,) = struct.unpack("<Q", raw[8:16])
    if len(raw) < 16 + meta_len:
        raise ContractError(f"truncated checkpoint metadata: {path}")
    try:
        meta = json.loads(raw[16:16 + meta_len].decode())
        grid = _grid_from_metadata(meta)
    except (ValueError, KeyError, TypeError) as e:
        # UnicodeDecodeError, JSONDecodeError and InputError are ValueErrors
        raise ContractError(f"invalid checkpoint metadata in {path}: {e}") from None

    blob = raw[16 + meta_len:]
    arena = grid.arena
    if len(blob) < arena.nbytes:
        raise ContractError("checkpoint parameter blob is too short")
    if len(blob) > arena.nbytes:
        raise ContractError(
            f"checkpoint parameter blob has {len(blob) - arena.nbytes} unread bytes")
    values = np.frombuffer(blob, dtype="<f8")
    if not np.isfinite(values).all():
        raise ContractError(f"checkpoint parameter blob holds non-finite values: {path}")
    arena[...] = values
    return grid
