import numpy as np
import pytest

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
