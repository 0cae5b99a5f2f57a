import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from part import ContractError, forward_task, freeze_path, freeze_task, load_checkpoint, save_checkpoint
from part.checkpoint import FORMAT_VERSION, MAGIC, write_atomic

from conftest import make_grid


def test_roundtrip_is_byte_identical(tmp_path):
    grid = make_grid(L=3, M=4, N=2, seed=70, norm_mode="per-task",
                     randomize_norms=True)
    freeze_path(grid, grid.tasks[0].path)
    freeze_task(grid, grid.tasks[0])
    p1 = tmp_path / "a.part"
    p2 = tmp_path / "b.part"
    save_checkpoint(grid, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()



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
            freeze_path(grid, task.path)
            freeze_task(grid, task)
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


def test_version_mismatch_refused(tmp_path):
    grid = make_grid(seed=73)
    p = tmp_path / "vers.part"
    save_checkpoint(grid, p)
    raw = bytearray(p.read_bytes())
    assert raw[:4] == MAGIC
    raw[4] = FORMAT_VERSION + 1
    p.write_bytes(bytes(raw))
    with pytest.raises(ContractError, match="version"):
        load_checkpoint(p)


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


@pytest.mark.parametrize("field, value, message", [
    ("frozen", [[5, 9]], r"frozen cell \[5, 9\] is not a cell of the 2 x 4 grid"),
    ("frozen", [[1, 2], [1, 4]], r"frozen cell \[1, 4\] is not a cell of the 2 x 4 grid"),
    ("frozen", [[1, 2, 3]], r"frozen cell \[1, 2, 3\] is not a cell of the 2 x 4 grid"),
    ("frozen", [[-1, 0]], r"frozen cell \[-1, 0\] is not a cell of the 2 x 4 grid"),
    ("frozen_tasks", [7], "frozen task 7 is not a registered task"),
    ("frozen_tasks", [0, -1], "frozen task -1 is not a registered task"),
], ids=["cell-beyond-grid", "module-beyond-M", "not-a-pair", "negative-layer",
        "unregistered-task", "negative-task"])
def test_frozen_entries_that_do_not_fit_the_grid_are_rejected_at_load(tmp_path, field, value,
                                                                         message):
    p = tmp_path / "frozen.part"
    grid = make_grid(L=2, M=4, seed=76)
    freeze_path(grid, grid.tasks[0].path)
    freeze_task(grid, grid.tasks[0])
    save_checkpoint(grid, p)
    assert load_checkpoint(p).frozen == grid.frozen
    rewrite_metadata(p, lambda meta: meta.update({field: value}))
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
