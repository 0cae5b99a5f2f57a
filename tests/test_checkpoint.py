import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from part import (
    ContractError,
    ModuleGrid,
    assign_random_paths,
    forward_task,
    freeze,
    load_checkpoint,
    register_task,
    save_checkpoint,
)
from part.net import Path as TaskPath
from part.checkpoint import FORMAT_VERSION, MAGIC, write_atomic
from part.cli import main

from conftest import make_grid


def test_roundtrip_is_byte_identical(tmp_path):
    grid = make_grid(L=3, M=4, N=2, seed=70, norm_mode="per-task",
                     randomize_norms=True)
    freeze(grid, grid.tasks[0])
    p1 = tmp_path / "a.part"
    p2 = tmp_path / "b.part"
    save_checkpoint(grid, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()



def test_numpy_integer_sizes_save_the_python_int_checkpoint(tmp_path):
    # sizes and a seed given as numpy integers are stored as Python ints,
    # so the metadata serialises as it does for Python ints
    paths = []
    for i, size in enumerate((int, np.int64)):
        rng = np.random.default_rng(72)
        grid = ModuleGrid(size(2), size(4), size(6), size(10), norm_mode="per-task",
                          seed=size(72))
        for c, path in zip((3, 2), assign_random_paths(size(4), size(2), size(2), size(2), rng)):
            register_task(grid, size(c)).path = path
        assert all(type(v) is int for v in (grid.n_layers, grid.n_modules, grid.d_in, grid.d_hid,
                                             grid.seed, grid.c_total, *(t.c for t in grid.tasks)))
        paths.append(tmp_path / f"{i}.part")
        save_checkpoint(grid, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_numpy_integer_path_round_trips(tmp_path):
    grid = make_grid(L=2, M=4, N=2, seed=71)
    task = grid.tasks[0]
    rows = task.path.rows
    task.path = TaskPath(tuple(tuple(np.int64(m) for m in row) for row in rows))
    save_checkpoint(grid, tmp_path / "g.part")
    loaded = load_checkpoint(tmp_path / "g.part")
    assert loaded.tasks[0].path.rows == rows
    np.testing.assert_array_equal(loaded.arena, grid.arena)


@st.composite
def saved_grid(draw):
    """A small grid of any shape and norm mode, some tasks finished, and
    arena values that include signed zeros, subnormals and extremes."""
    L, M = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    classes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    grid = make_grid(L=L, M=M, N=draw(st.integers(1, M)), d_in=draw(st.integers(1, 4)),
                     d_hid=draw(st.integers(1, 4)),
                     norm_mode=draw(st.sampled_from(["shared", "per-task"])),
                     seed=draw(st.integers(0, 2**16)), class_counts=classes)
    for task in grid.tasks:
        if draw(st.booleans()):
            freeze(grid, task)
    special = st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1.7e308, 1.0, -1.0])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arena = grid.arena
    arena[...] = rng.normal(size=arena.size) * 10.0 ** rng.uniform(-300, 300, arena.size)
    for i in draw(st.lists(st.integers(0, arena.size - 1), max_size=5)):
        arena[i] = draw(special)
    return grid


@settings(max_examples=25, deadline=None)
@given(saved_grid())
def test_checkpoint_roundtrip_keeps_the_arena_bytes(grid):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.part"
        save_checkpoint(grid, path)
        loaded = load_checkpoint(path)
    assert loaded.arena.tobytes() == grid.arena.tobytes()
    assert [t.path for t in loaded.tasks] == [t.path for t in grid.tasks]
    assert (loaded.frozen, loaded.frozen_tasks) == (grid.frozen, grid.frozen_tasks)

def test_loaded_grid_forwards_identically(tmp_path):
    grid = make_grid(L=2, M=4, N=2, seed=71, randomize_norms=True)
    p = tmp_path / "g.part"
    save_checkpoint(grid, p)
    loaded = load_checkpoint(p)
    x = np.random.default_rng(0).normal(size=(5, grid.d_in))
    a, _ = forward_task(grid, grid.tasks[0], x, mode="eval")
    b, _ = forward_task(loaded, loaded.tasks[0], x, mode="eval")
    np.testing.assert_array_equal(a, b)
    assert loaded.norm_mode == grid.norm_mode
    assert loaded.tasks[0].slice == grid.tasks[0].slice
    assert loaded.tasks[0].path == grid.tasks[0].path
    assert loaded.frozen == grid.frozen


def test_corrupted_magic_rejected(tmp_path):
    grid = make_grid(seed=72)
    p = tmp_path / "bad.part"
    save_checkpoint(grid, p)
    raw = bytearray(p.read_bytes())
    raw[0:4] = b"NOPE"
    p.write_bytes(bytes(raw))
    with pytest.raises(ContractError, match="magic"):
        load_checkpoint(p)


def test_version_mismatch_refused(tmp_path, capsys):
    # format 1, which held a bias per block, and a format from the future;
    # the CLI reports either as a contract violation, exit 1
    grid = make_grid(seed=73)
    p = tmp_path / "vers.part"
    save_checkpoint(grid, p)
    raw = bytearray(p.read_bytes())
    assert raw[:4] == MAGIC and raw[4:8] == FORMAT_VERSION.to_bytes(4, "little") == b"\2\0\0\0"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 73, "mode": "parallel", "norm_mode": "shared", "out_dir": str(tmp_path),
        "grid": {"n_layers": 2, "n_modules": 4, "path_width": 2, "d_in": 6, "d_hid": 10},
        "tasks": [{"type": "synthetic", "c": c, "n_per_class": 10, "margin": 4.0,
                   "name": f"t{i}"} for i, c in enumerate((3, 2))],
    }), encoding="utf-8")
    for version in (1, FORMAT_VERSION + 1):
        raw[4:8] = version.to_bytes(4, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(ContractError, match=f"checkpoint format version {version} "):
            load_checkpoint(p)
        assert main(["eval", "--ckpt", str(p), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"checkpoint format version {version} " in err and "Traceback" not in err
        assert ("re-run `part train` on its config" in err) == (version == 1)


def rewrite_metadata(path, edit):
    """Apply `edit` to the checkpoint's decoded metadata and write it back."""
    raw = path.read_bytes()
    meta_len = int.from_bytes(raw[8:16], "little")
    meta = json.loads(raw[16:16 + meta_len])
    edit(meta)
    blob = json.dumps(meta).encode()
    path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + meta_len:])


@pytest.mark.parametrize("path, message", [
    ([[0, 9], [1, 3]], "path selects module 9 >= M=4"),
    ([[0, 1]], "path depth 1 != L=2"),
], ids=["module-beyond-M", "wrong-depth"])
def test_path_that_does_not_fit_the_grid_is_rejected_at_load(tmp_path, path, message):
    p = tmp_path / "path.part"
    save_checkpoint(make_grid(L=2, M=4, seed=75), p)
    rewrite_metadata(p, lambda meta: meta["tasks"][0].update(path=path))
    with pytest.raises(ContractError, match=f"invalid checkpoint metadata .*: {message}$"):
        load_checkpoint(p)


@pytest.mark.parametrize("update, message", [
    ({"id": 0}, "task registry in checkpoint is inconsistent"),
    ({"slice": [3, 6]}, "task registry in checkpoint is inconsistent"),
    ({"c": 3}, "task registry in checkpoint is inconsistent"),
    ({"c": 1}, "invalid checkpoint metadata .*: c must be >= 2, got 1"),
    ({"c": 2.0}, "invalid checkpoint metadata .*: c must be an integer, got 2.0"),
], ids=["repeated-id", "shifted-slice", "wider-c", "c-below-two", "float-c"])
def test_a_later_task_row_that_does_not_fit_is_rejected_at_load(tmp_path, update, message):
    # every row is registered in one call, then checked against its task
    p = tmp_path / "rows.part"
    save_checkpoint(make_grid(L=2, M=4, seed=77), p)
    rewrite_metadata(p, lambda meta: meta["tasks"][1].update(update))
    with pytest.raises(ContractError, match=f"^{message}$"):
        load_checkpoint(p)


CELLS = r"frozen cells {} are not the paths of the frozen tasks"


@pytest.mark.parametrize("update, message", [
    ({"frozen": [[5, 9]]}, CELLS.format(r"\[\[5, 9\]\]")),
    ({"frozen": [[1, 2], [1, 4]]}, CELLS.format(r"\[\[1, 2\], \[1, 4\]\]")),
    ({"frozen": [[1, 2, 3]]}, CELLS.format(r"\[\[1, 2, 3\]\]")),
    ({"frozen": [[-1, 0]]}, CELLS.format(r"\[\[-1, 0\]\]")),
    ({"frozen": [[0, 0]], "frozen_tasks": []}, CELLS.format(r"\[\[0, 0\]\]")),
    ({"frozen_tasks": [7]}, "frozen task 7 is not a registered task"),
    ({"frozen_tasks": [0, -1]}, "frozen task -1 is not a registered task"),
], ids=["cell-beyond-grid", "module-beyond-M", "not-a-pair", "negative-layer",
        "cells-without-task", "unregistered-task", "negative-task"])
def test_frozen_entries_that_do_not_fit_the_grid_are_rejected_at_load(tmp_path, update, message):
    p = tmp_path / "frozen.part"
    grid = make_grid(L=2, M=4, seed=76)
    freeze(grid, grid.tasks[0])
    save_checkpoint(grid, p)
    assert load_checkpoint(p).frozen == grid.frozen
    rewrite_metadata(p, lambda meta: meta.update(update))
    with pytest.raises(ContractError, match=f"invalid checkpoint metadata .*: {message}$"):
        load_checkpoint(p)


def test_truncated_blob_rejected(tmp_path):
    grid = make_grid(seed=74)
    p = tmp_path / "trunc.part"
    save_checkpoint(grid, p)
    raw = p.read_bytes()
    p.write_bytes(raw[:-16])
    with pytest.raises(ContractError):
        load_checkpoint(p)


def test_nonfinite_blob_rejected(tmp_path):
    grid = make_grid(seed=74)
    p = tmp_path / "nan.part"
    save_checkpoint(grid, p)
    raw = bytearray(p.read_bytes())
    raw[-8:] = np.array([np.nan], dtype="<f8").tobytes()     # the last head bias
    p.write_bytes(bytes(raw))
    with pytest.raises(ContractError, match="non-finite"):
        load_checkpoint(p)


def test_failed_atomic_write_keeps_the_old_file(tmp_path):
    target = tmp_path / "cka_report.json"
    target.write_bytes(b"old")
    with pytest.raises(TypeError):
        write_atomic(target, b"new", None)        # fails after the first chunk
    assert target.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["cka_report.json"]
    write_atomic(target, b"new ", b"file")
    assert target.read_bytes() == b"new file"
    assert [p.name for p in tmp_path.iterdir()] == ["cka_report.json"]


def test_failed_report_write_keeps_the_old_report(tmp_path, monkeypatch):
    from part import checkpoint
    from part.experiment import write_report
    from part.training import RunReport

    target = tmp_path / "report.json"
    target.write_text("old\n", encoding="utf-8")

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.os, "replace", boom)
    with pytest.raises(OSError):
        write_report(RunReport(config_hash="x", seed=0, mode="parallel", tasks=[], epochs=[],
                               final=[], wallclock_s=0.0), target)
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
