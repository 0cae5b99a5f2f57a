import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from part import ConfigError
from part.cli import main
from part.config import MODES, NORM_MODES, parse_config
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


def _field_by_field_canonical_dict(cfg):
    """The canonical dict as it was once written out field by field; the
    dict now derived from the dataclasses must hash the same."""
    return {
        "seed": cfg.seed,
        "mode": cfg.mode,
        "norm_mode": cfg.norm_mode,
        "grid": vars(cfg.grid),
        "tasks": [vars(t) for t in cfg.tasks],
        "train": {
            "epochs": cfg.train.epochs,
            "batch_size": cfg.train.batch_size,
            "batch_set_size": cfg.train.batch_set_size,
            "lr0": cfg.train.lr0,
            "lr_halve_epochs": list(cfg.train.lr_halve_epochs),
        },
        "single_task_index": cfg.single_task_index,
        "controlled_sharing": cfg.controlled_sharing,
        "analysis": {**vars(cfg.analysis), "pair": list(cfg.analysis.pair)},
    }


@st.composite
def config_docs(draw):
    """Valid config documents: synthetic and CSV tasks, every optional
    field present or absent, integers where floats are allowed."""
    tasks = []
    for i in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            task = {"type": "synthetic", "c": draw(st.integers(2, 5)),
                    "n_per_class": draw(st.integers(5, 40)),
                    "margin": draw(st.sampled_from([1, 2.5, 6.0]))}
        else:
            task = {"type": "csv", "train": f"d/t{i}_train.csv", "val": f"d/t{i}_val.csv"}
        if draw(st.booleans()):
            task["name"] = f"task {i}"
        tasks.append(task)
    k = len(tasks)
    N = draw(st.integers(1, 3))
    controlled = k == 2 and draw(st.booleans())
    M = 2 * N if controlled else draw(st.integers(N, 6))
    number = st.one_of(st.integers(1, 3), st.floats(1e-4, 2.0))
    train = st.fixed_dictionaries({}, optional={
        "epochs": st.integers(0, 40), "batch_size": st.integers(2, 64),
        "batch_set_size": st.integers(1, 20), "lr0": number,
        "lr_halve_epochs": st.lists(st.integers(1, 60), max_size=3, unique=True).map(sorted)})
    analysis = st.fixed_dictionaries({}, optional={
        "cka": st.booleans(), "sharing": st.booleans(),
        "pair": st.lists(st.integers(0, k - 1), min_size=2, max_size=2),
        "capture_n": st.integers(3, 500), "kernel": st.sampled_from(["linear", "rbf"]),
        "rbf_frac": number, "rbf_sigma": st.one_of(st.none(), number)})
    optional = {"mode": st.sampled_from(MODES), "norm_mode": st.sampled_from(NORM_MODES),
                "out_dir": st.just("runs/x"), "single_task_index": st.integers(0, k - 1),
                "train": train, "analysis": analysis,
                "controlled_sharing": st.sampled_from([None, "layer 1"] if controlled else [None])}
    doc = {"seed": draw(st.integers(0, 2**31)),
           "grid": {"n_layers": draw(st.integers(1, 4)), "n_modules": M, "path_width": N,
                    "d_in": draw(st.integers(2, 9)), "d_hid": draw(st.integers(1, 9))},
           "tasks": tasks}
    return {**doc, **draw(st.fixed_dictionaries({}, optional=optional))}


@settings(max_examples=40, deadline=None)
@given(config_docs())
def test_config_hash_equals_the_field_by_field_hash(doc):
    cfg = parse_config(doc)
    blob = json.dumps(_field_by_field_canonical_dict(cfg), sort_keys=True,
                      separators=(",", ":"))
    assert cfg.config_hash() == hashlib.sha256(blob.encode()).hexdigest()


def test_absent_optional_fields_take_the_documented_defaults(tmp_path):
    doc = minimal_config(tmp_path)
    del doc["train"], doc["mode"], doc["norm_mode"]
    cfg = parse_config(doc)
    t, a = cfg.train, cfg.analysis
    assert (cfg.mode, cfg.norm_mode, cfg.single_task_index, cfg.controlled_sharing) \
        == ("parallel", "shared", 0, None)
    assert (t.epochs, t.batch_size, t.batch_set_size, t.lr0, t.lr_halve_epochs) \
        == (30, 16, 10, 1e-3, (20, 30, 40))
    assert (a.cka, a.sharing, a.pair, a.capture_n, a.kernel, a.rbf_frac, a.rbf_sigma) \
        == (True, True, (0, 0), 200, "rbf", 0.5, None)


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


@pytest.mark.parametrize("corrupt", ["undecodable", "not json", "missing field",
                                     "path beyond M", "path too short",
                                     "frozen cell beyond grid", "unregistered frozen task"])
def test_corrupt_checkpoint_metadata_exits_1(tmp_path, capsys, corrupt):
    cfgp, ckpt = _trained(tmp_path, capsys)
    raw = bytearray(ckpt.read_bytes())
    meta_len = int.from_bytes(raw[8:16], "little")
    meta = bytes(raw[16:16 + meta_len])
    if corrupt == "undecodable":
        meta = b"\xff" + meta[1:]
    elif corrupt == "not json":
        meta = b"[" + meta[1:]
    elif corrupt == "missing field":
        meta = meta.replace(b'"frozen":', b'"frozzen":')
    else:
        doc = json.loads(meta)
        if corrupt == "frozen cell beyond grid":
            doc["frozen"] = [[5, 9]]
        elif corrupt == "unregistered frozen task":
            doc["frozen_tasks"] = [7]
        else:
            doc["tasks"][0]["path"] = [[0, 9], [1, 2]] if corrupt == "path beyond M" else [[0, 1]]
        meta = json.dumps(doc).encode()
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
    for t in grid.tasks:
        grid.set_param(("head", t.id, "b"), grid.get_param(("head", t.id, "b")) + 1.0)

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


def test_nonfinite_features_exit_2_before_training(tmp_path, capsys, monkeypatch):
    import hashlib

    import numpy as np

    from part import experiment

    real = experiment.build_experiment
    built = []

    def poisoned(cfg):
        grid = real(cfg)
        grid.tasks[-1].train_ds.features[-1, 0] = np.nan   # in place, after the Dataset check
        built.append((grid, grid.version, hashlib.sha256(grid.arena.tobytes()).hexdigest()))
        return grid

    monkeypatch.setattr(experiment, "build_experiment", poisoned)
    doc = minimal_config(tmp_path / "run", mode="parallel")
    doc["tasks"] = [dict(doc["tasks"][0], name=f"t{i}") for i in range(2)]
    code, err = _exit_and_stderr(["train", "--config", str(write_config(tmp_path, doc))],
                                 capsys)
    assert code == 2 and "error:" in err and "non-finite features" in err
    grid, version, digest = built[0]
    assert grid.version == version
    assert hashlib.sha256(grid.arena.tobytes()).hexdigest() == digest
    assert not (tmp_path / "run" / "checkpoint.part").exists()


def test_batch_size_below_two_exits_2(tmp_path, capsys):
    doc = minimal_config(tmp_path / "run")
    doc["train"]["batch_size"] = 1
    with pytest.raises(ConfigError, match="train.batch_size"):
        parse_config(doc)
    code, err = _exit_and_stderr(["train", "--config", str(write_config(tmp_path, doc))],
                                 capsys)
    assert code == 2 and "batch_size" in err


def test_failed_compare_and_profile_writes_keep_the_old_files(tmp_path, capsys, monkeypatch):
    from part import checkpoint

    cfgp, _ = _trained(tmp_path, capsys)
    report = str(tmp_path / "run" / "report.json")
    outs = {name: tmp_path / name for name in ("cmp.json", "profile.json")}
    for path in outs.values():
        path.write_text("old\n", encoding="utf-8")

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.os, "replace", boom)
    code, err = _exit_and_stderr(["compare", report, report, "--out", str(outs["cmp.json"])],
                                 capsys)
    assert code == 2 and "disk full" in err
    code, err = _exit_and_stderr(["profile-sharing", "--config", str(cfgp),
                                  "--out", str(outs["profile.json"])], capsys)
    assert code == 2 and "disk full" in err
    for path in outs.values():
        assert path.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "cmp.json",
                                                         "profile.json", "run"]


@pytest.mark.parametrize("content", [None, "dir", "{not json", "[1, 2]", '{"seed": 5}',
                                     b"\xff\xfe"])
def test_compare_unreadable_or_malformed_report_exits_2(tmp_path, capsys, content):
    _trained(tmp_path, capsys)
    good = str(tmp_path / "run" / "report.json")
    bad = tmp_path / "bad.json"
    if content == "dir":
        bad.mkdir()
    elif isinstance(content, bytes):
        bad.write_bytes(content)
    elif content is not None:
        bad.write_text(content, encoding="utf-8")
    for pair in ([good, str(bad)], [str(bad), good]):
        code, err = _exit_and_stderr(["compare", *pair, "--out", str(tmp_path / "c.json")],
                                     capsys)
        assert code == 2 and str(bad) in err
    assert not (tmp_path / "c.json").exists()


def _set_final(field, value):
    def mutate(doc):
        doc["final"][0][field] = value
    return mutate


@pytest.mark.parametrize("mutate", [
    lambda doc: doc.update(final=5),
    lambda doc: doc.update(final=[5]),
    lambda doc: doc.update(final={"task": 0, "val_acc": 0.5}),
    lambda doc: doc.update(tasks="solo"),
    lambda doc: doc.update(tasks=[None]),
    lambda doc: doc["final"][0].pop("val_acc"),
    _set_final("task", "0"),
    _set_final("task", True),
    _set_final("task", 0.0),
    _set_final("val_acc", "0.9"),
    _set_final("val_acc", None),
    _set_final("val_acc", False),
    _set_final("val_acc", float("nan")),
    _set_final("val_acc", float("inf")),
], ids=["final-int", "final-of-ints", "final-object", "tasks-str", "tasks-of-null",
        "no-val_acc", "task-str", "task-bool", "task-float", "acc-str", "acc-null",
        "acc-bool", "acc-nan", "acc-inf"])
def test_compare_report_with_wrong_field_types_exits_2(tmp_path, capsys, mutate):
    _trained(tmp_path, capsys)
    good = tmp_path / "run" / "report.json"
    doc = json.loads(good.read_text(encoding="utf-8"))
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    for pair in ([str(good), str(bad)], [str(bad), str(good)]):
        code, err = _exit_and_stderr(["compare", *pair, "--out", str(tmp_path / "c.json")],
                                     capsys)
        assert code == 2 and f"malformed report {bad}" in err
    assert not (tmp_path / "c.json").exists()


def test_out_under_a_missing_directory_exits_2(tmp_path, capsys):
    _trained(tmp_path, capsys)
    report = str(tmp_path / "run" / "report.json")
    missing = tmp_path / "missing"
    code, err = _exit_and_stderr(["compare", report, report,
                                  "--out", str(missing / "c.json")], capsys)
    assert code == 2 and str(missing / "c.json") in err
    assert ".tmp" not in err
    assert not missing.exists()


def test_train_out_naming_an_existing_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    cfgp = write_config(tmp_path, minimal_config(tmp_path / "run"))
    code, err = _exit_and_stderr(["train", "--config", str(cfgp), "--out", str(taken)], capsys)
    assert code == 2 and str(taken) in err
    assert taken.read_text(encoding="utf-8") == "keep\n"


# ---------------------------------------------------------------------------
# typed optional fields

def _with(doc, field, value):
    """`doc` with the dotted `field` set to `value` (a missing parent object
    is made)."""
    *parents, key = field.split(".")
    node = doc
    for name in parents:
        node = node.setdefault(name, {})
    node[key] = value
    return doc


@pytest.mark.parametrize("field, value", [
    ("train.epochs", "3"),
    ("train.batch_size", 4.5),
    ("train.lr0", "x"),
    ("train.lr_halve_epochs", 5),
    ("train", [1]),
    ("analysis.capture_n", "9"),
    ("analysis.pair", 5),
    ("single_task_index", "0"),
])
def test_wrongly_typed_optional_field_exits_2(tmp_path, capsys, field, value):
    doc = _with(minimal_config(tmp_path / "run"), field, value)
    code, err = _exit_and_stderr(["train", "--config", str(write_config(tmp_path, doc))],
                                 capsys)
    assert code == 2 and err.startswith(f"error: config field '{field}': expected ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("field, value", [
    ("train.epochs", True),                 # a bool is no int
    ("train.lr0", False),
    ("train.lr_halve_epochs", [2, "3"]),
    ("train.lr_halve_epochs", [2.0]),
    ("train.batch_set_size", None),
    ("analysis.cka", 1),
    ("analysis.sharing", "yes"),
    ("analysis.pair", [0, False]),
    ("analysis.rbf_frac", "0.5"),
    ("analysis.rbf_sigma", "1"),
    ("analysis.kernel", 3),
    ("analysis", "rbf"),
    ("out_dir", 5),
    ("mode", ["parallel"]),
    ("controlled_sharing", 1),
    ("tasks", [5]),
])
def test_optional_field_types_are_checked(tmp_path, field, value):
    with pytest.raises(ConfigError) as err:
        parse_config(_with(minimal_config(tmp_path), field, value))
    assert err.value.field == field


def test_numbers_keep_the_type_the_file_gives_them(tmp_path):
    # integers where floats are expected are kept as integers, so the hash
    # of a config that parsed before its optional fields were type-checked
    # is unchanged (this hash was taken before that check existed)
    doc = {
        "seed": 7, "mode": "parallel",
        "grid": {"n_layers": 2, "n_modules": 4, "path_width": 2, "d_in": 4, "d_hid": 6},
        "tasks": [{"type": "synthetic", "c": 3, "n_per_class": 10, "margin": 4.0},
                  {"type": "synthetic", "c": 2, "n_per_class": 10, "margin": 4}],
        "train": {"epochs": 3, "batch_size": 8, "lr0": 1, "lr_halve_epochs": [2]},
        "analysis": {"rbf_frac": 1, "rbf_sigma": 2, "capture_n": 9},
    }
    cfg = parse_config(doc)
    assert cfg.config_hash() == "c62fa2351c0c48891454b87b3c0532c9f6c46d0f71b49fb5c2fc887b709f3704"
    assert [type(v) for v in (cfg.train.lr0, cfg.analysis.rbf_frac, cfg.analysis.rbf_sigma)] \
        == [int, int, int]
    assert cfg.tasks[1].margin == 4.0 and type(cfg.tasks[1].margin) is float
