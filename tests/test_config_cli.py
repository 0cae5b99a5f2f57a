import json

import pytest

from part import ConfigError
from part.cli import main
from part.config import parse_config
from part.experiment import run_experiment


def minimal_config(out_dir, **overrides):
    doc = {
        "seed": 5,
        "mode": "single",
        "norm_mode": "shared",
        "out_dir": str(out_dir),
        "grid": {"n_layers": 2, "n_modules": 4, "path_width": 2,
                 "d_in": 6, "d_hid": 10},
        "tasks": [
            {"type": "synthetic", "c": 3, "n_per_class": 30, "margin": 6.0,
             "name": "solo"},
        ],
        "train": {"epochs": 4, "batch_size": 8, "batch_set_size": 3,
                  "lr0": 0.003, "lr_halve_epochs": [3]},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# config parsing and hashing

def test_minimal_config_parses(tmp_path):
    cfg = parse_config(minimal_config(tmp_path))
    assert cfg.mode == "single"
    assert cfg.grid.path_width == 2
    assert cfg.tasks[0].name == "solo"


def test_config_field_errors_are_specific(tmp_path):
    doc = minimal_config(tmp_path)
    del doc["grid"]["n_layers"]
    with pytest.raises(ConfigError, match="grid.n_layers"):
        parse_config(doc)

    doc = minimal_config(tmp_path)
    doc["grid"]["path_width"] = 9
    with pytest.raises(ConfigError, match="path_width"):
        parse_config(doc)

    doc = minimal_config(tmp_path)
    doc["tasks"][0]["c"] = 1
    with pytest.raises(ConfigError, match=r"tasks\[0\]"):
        parse_config(doc)

    doc = minimal_config(tmp_path)
    doc["mode"] = "swarm"
    with pytest.raises(ConfigError, match="mode"):
        parse_config(doc)


def test_config_hash_tracks_semantic_fields_only(tmp_path):
    base = parse_config(minimal_config(tmp_path))
    relocated = parse_config(minimal_config(tmp_path / "elsewhere"))
    assert base.config_hash() == relocated.config_hash()
    retuned = parse_config(minimal_config(tmp_path, train={
        "epochs": 4, "batch_size": 8, "batch_set_size": 3,
        "lr0": 0.004, "lr_halve_epochs": [3]}))
    assert base.config_hash() != retuned.config_hash()
    reseeded = parse_config(minimal_config(tmp_path, seed=6))
    assert base.config_hash() != reseeded.config_hash()


def test_controlled_sharing_needs_two_tasks(tmp_path):
    doc = minimal_config(tmp_path, controlled_sharing="layer 1")
    with pytest.raises(ConfigError, match="controlled_sharing"):
        parse_config(doc)


# ---------------------------------------------------------------------------
# CLI end-to-end

def test_train_writes_report_and_checkpoint(tmp_path, capsys):
    cfgp = write_config(tmp_path, minimal_config(tmp_path / "run"))
    assert main(["train", "--config", str(cfgp)]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert set(report) >= {"config_hash", "seed", "mode", "tasks", "epochs",
                           "final", "wallclock_s"}
    assert len(report["tasks"]) == 1
    assert report["tasks"][0] == {"id": 0, "c": 3, "slice": [0, 3]}
    assert (tmp_path / "run" / "checkpoint.part").exists()
    out = capsys.readouterr().out
    assert out.count("epoch") >= 4


def test_same_config_and_seed_reproduce_report(tmp_path):
    doc = minimal_config(tmp_path / "r1", mode="parallel")
    cfg = parse_config(doc)
    rep1 = run_experiment(cfg, out_dir=tmp_path / "r1")
    rep2 = run_experiment(cfg, out_dir=tmp_path / "r2")
    d1 = json.loads((tmp_path / "r1" / "report.json").read_text())
    d2 = json.loads((tmp_path / "r2" / "report.json").read_text())
    d1.pop("wallclock_s")
    d2.pop("wallclock_s")
    assert d1 == d2


def test_gen_data_writes_csvs(tmp_path, capsys):
    cfgp = write_config(tmp_path, minimal_config(tmp_path / "gen"))
    assert main(["gen-data", "--config", str(cfgp)]) == 0
    assert (tmp_path / "gen" / "data" / "solo_train.csv").exists()
    assert (tmp_path / "gen" / "data" / "solo_val.csv").exists()


def test_eval_subcommand(tmp_path, capsys):
    out = tmp_path / "run"
    cfgp = write_config(tmp_path, minimal_config(out))
    main(["train", "--config", str(cfgp)])
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(out / "checkpoint.part"),
                 "--config", str(cfgp)]) == 0
    text = capsys.readouterr().out
    assert "task 0" in text and "mean val_acc" in text


def test_invalid_config_exits_2(tmp_path, capsys):
    doc = minimal_config(tmp_path)
    doc["grid"]["path_width"] = 99
    cfgp = write_config(tmp_path, doc)
    assert main(["train", "--config", str(cfgp)]) == 2
    err = capsys.readouterr().err
    assert "path_width" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "absent.json")]) == 2


def test_compare_report_with_itself(tmp_path, capsys):
    out = tmp_path / "run"
    cfgp = write_config(tmp_path, minimal_config(out))
    main(["train", "--config", str(cfgp)])
    capsys.readouterr()
    rp = str(out / "report.json")
    cmp_out = tmp_path / "cmp.json"
    assert main(["compare", rp, rp, "--out", str(cmp_out)]) == 0
    result = json.loads(cmp_out.read_text())
    assert all(row["delta"] == 0 for row in result["tasks"])
    assert result["mean_delta"] == 0


def test_compare_mismatched_tasks_fails(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg_a = write_config(tmp_path, minimal_config(out_a), "a.json")
    doc_b = minimal_config(out_b)
    doc_b["tasks"][0]["c"] = 4
    cfg_b = write_config(tmp_path, doc_b, "b.json")
    main(["train", "--config", str(cfg_a)])
    main(["train", "--config", str(cfg_b)])
    capsys.readouterr()
    assert main(["compare", str(out_a / "report.json"),
                 str(out_b / "report.json"),
                 "--out", str(tmp_path / "c.json")]) == 2


def test_analyze_emits_artifacts(tmp_path, capsys):
    out = tmp_path / "pair"
    doc = {
        "seed": 9,
        "mode": "parallel",
        "norm_mode": "shared",
        "out_dir": str(out),
        "grid": {"n_layers": 3, "n_modules": 4, "path_width": 2,
                 "d_in": 6, "d_hid": 10},
        "tasks": [
            {"type": "synthetic", "c": 3, "n_per_class": 30, "margin": 6.0,
             "name": "t0"},
            {"type": "synthetic", "c": 3, "n_per_class": 30, "margin": 6.0,
             "name": "t1"},
        ],
        "train": {"epochs": 3, "batch_size": 8, "batch_set_size": 3,
                  "lr0": 0.003, "lr_halve_epochs": []},
        "controlled_sharing": "layer 2",
        "analysis": {"capture_n": 12, "kernel": "rbf", "rbf_frac": 0.5},
    }
    cfgp = write_config(tmp_path, doc)
    assert main(["train", "--config", str(cfgp)]) == 0
    assert main(["analyze", "--ckpt", str(out / "checkpoint.part"),
                 "--config", str(cfgp)]) == 0
    cka_doc = json.loads((out / "analysis" / "cka_report.json").read_text())
    assert cka_doc["setup"] == "layer 2"
    assert [l["shared_modules"] for l in cka_doc["layers"]] == [[], [0, 1], []]
    assert (out / "analysis" / "sharing_profile.json").exists()
    assert (out / "analysis" / "cka_heatmap_layer1.csv").exists()
    heat = (out / "analysis" / "cka_heatmap_layer1.csv").read_text()
    assert heat.startswith("# shared_modules: 0,1")


def test_profile_sharing_subcommand(tmp_path, capsys):
    doc = minimal_config(tmp_path / "ps")
    doc["tasks"] = doc["tasks"] * 3
    for i, t in enumerate(doc["tasks"]):
        doc["tasks"][i] = dict(t, name=f"t{i}")
    cfgp = write_config(tmp_path, doc)
    assert main(["profile-sharing", "--config", str(cfgp), "--trials", "50"]) == 0
    text = capsys.readouterr().out
    payload = json.loads(text[text.index("{"):])
    assert payload["trials"] == 50
    assert "mean_histogram" in payload and "expected_histogram" in payload


def test_sequential_report_shows_late_task_drop(tmp_path):
    doc = {
        "seed": 13, "mode": "sequential", "norm_mode": "shared",
        "out_dir": str(tmp_path / "seq"),
        "grid": {"n_layers": 3, "n_modules": 4, "path_width": 2,
                 "d_in": 8, "d_hid": 12},
        "tasks": [{"type": "synthetic", "c": 4, "n_per_class": 60,
                   "margin": 5.0, "name": f"t{i}"} for i in range(6)],
        "train": {"epochs": 12, "batch_size": 16, "batch_set_size": 4,
                  "lr0": 2e-3, "lr_halve_epochs": [8, 11]},
    }
    cfgp = write_config(tmp_path, doc)
    assert main(["train", "--config", str(cfgp)]) == 0
    rep = json.loads((tmp_path / "seq" / "report.json").read_text())
    finals = [row["val_acc"] for row in rep["final"]]
    assert sum(finals[:2]) / 2 > sum(finals[-2:]) / 2  # ran out of unfrozen modules
    assert "freeze_hashes" in rep
    assert len(rep["epochs"]) == 6 * 12


def test_checkpoint_roundtrip_via_files(tmp_path):
    out = tmp_path / "run"
    cfgp = write_config(tmp_path, minimal_config(out, mode="sequential"))
    main(["train", "--config", str(cfgp)])
    from part import load_checkpoint, save_checkpoint

    ck = out / "checkpoint.part"
    grid = load_checkpoint(ck)
    resaved = out / "resaved.part"
    save_checkpoint(grid, resaved)
    assert ck.read_bytes() == resaved.read_bytes()


# ---------------------------------------------------------------------------
# failures surface as exit codes, never as tracebacks

def _trained(tmp_path, capsys):
    out = tmp_path / "run"
    cfgp = write_config(tmp_path, minimal_config(out))
    assert main(["train", "--config", str(cfgp)]) == 0
    capsys.readouterr()
    return cfgp, out / "checkpoint.part"


def _exit_and_stderr(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def test_missing_checkpoint_exits_2(tmp_path, capsys):
    cfgp, ckpt = _trained(tmp_path, capsys)
    code, err = _exit_and_stderr(["eval", "--ckpt", str(tmp_path / "nope.part"),
                                  "--config", str(cfgp)], capsys)
    assert code == 2 and "cannot read checkpoint" in err
    code, _ = _exit_and_stderr(["analyze", "--ckpt", str(tmp_path),
                                "--config", str(cfgp)], capsys)
    assert code == 2


@pytest.mark.parametrize("corrupt", ["undecodable", "not json", "missing field"])
def test_corrupt_checkpoint_metadata_exits_1(tmp_path, capsys, corrupt):
    cfgp, ckpt = _trained(tmp_path, capsys)
    raw = bytearray(ckpt.read_bytes())
    meta_len = int.from_bytes(raw[8:16], "little")
    meta = bytes(raw[16:16 + meta_len])
    if corrupt == "undecodable":
        meta = b"\xff" + meta[1:]
    elif corrupt == "not json":
        meta = b"[" + meta[1:]
    else:
        meta = meta.replace(b'"frozen":', b'"frozzen":')
    ckpt.write_bytes(bytes(raw[:8]) + len(meta).to_bytes(8, "little") + meta
                     + bytes(raw[16 + meta_len:]))
    code, err = _exit_and_stderr(["eval", "--ckpt", str(ckpt), "--config", str(cfgp)],
                                 capsys)
    assert code == 1 and "invalid checkpoint metadata" in err


def test_failed_save_leaves_the_old_checkpoint(tmp_path, capsys, monkeypatch):
    from part import checkpoint, load_checkpoint, save_checkpoint

    _, ckpt = _trained(tmp_path, capsys)
    before = ckpt.read_bytes()
    grid = load_checkpoint(ckpt)
    grid.head_b[:] += 1.0

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.os, "replace", boom)
    with pytest.raises(OSError):
        save_checkpoint(grid, ckpt)
    assert ckpt.read_bytes() == before
    assert sorted(p.name for p in ckpt.parent.iterdir()) == ["checkpoint.part", "report.json"]


def test_nonfinite_training_exits_3(tmp_path, capsys, monkeypatch):
    import numpy as np

    from part import experiment

    real = experiment.build_experiment

    def scaled(cfg):
        grid = real(cfg)
        for t in grid.tasks:
            t.train_ds.features *= 1e150
            t.val_ds.features *= 1e150
        return grid

    monkeypatch.setattr(experiment, "build_experiment", scaled)
    doc = minimal_config(tmp_path / "run", mode="parallel")
    doc["tasks"] = [dict(doc["tasks"][0], name=f"t{i}") for i in range(2)]
    doc["train"]["lr0"] = 1e3
    with np.errstate(all="ignore"):
        code, err = _exit_and_stderr(["train", "--config", str(write_config(tmp_path, doc))],
                                     capsys)
    assert code == 3 and "numeric failure" in err and "epoch" in err
