import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from part import ConfigError, ContractError, InputError, load_checkpoint, load_config, load_csv
from part.cli import build_parser, main
from part.config import NORM_MODES, parse_config
from part.data import Dataset, standardize_pair, write_csv
from part.experiment import attach_datasets, build_datasets, profile_sharing_trials, run_experiment
from part.training import SCHEDULES


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


def _solo(**fields):
    """`minimal_config`'s task list with `fields` changed in its one task."""
    return [dict(minimal_config("")["tasks"][0], **fields)]


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


@pytest.mark.parametrize("mode", list(SCHEDULES))
def test_every_schedule_is_a_config_mode(tmp_path, mode):
    assert parse_config(minimal_config(tmp_path, mode=mode)).mode == mode


@pytest.mark.parametrize("mode", ["Parallel", "finetune", "", "parallel "])
def test_a_mode_outside_the_schedule_table_is_refused(tmp_path, mode):
    with pytest.raises(ConfigError, match="mode"):
        parse_config(minimal_config(tmp_path, mode=mode))


def test_the_cli_mode_choices_are_the_schedule_table():
    [subparsers] = [a for a in build_parser()._actions if a.dest == "command"]
    [mode] = [a for a in subparsers.choices["train"]._actions if a.dest == "mode"]
    assert list(mode.choices) == list(SCHEDULES)


def test_one_run_seed(tmp_path):
    # the hash leaves train.seed out, since it repeats seed: a config whose
    # two seeds differ would share a hash with one that trains differently
    cfg = parse_config(minimal_config(tmp_path))
    assert cfg.train.seed == cfg.seed
    with pytest.raises(ConfigError, match="train.seed"):
        dataclasses.replace(cfg, seed=cfg.seed + 1)


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
        "analysis": {**vars(cfg.analysis), "pair": list(cfg.analysis.pair), "rbf_sigma": None},
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
        "rbf_frac": number})
    optional = {"mode": st.sampled_from(list(SCHEDULES)), "norm_mode": st.sampled_from(NORM_MODES),
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
    assert (a.cka, a.sharing, a.pair, a.capture_n, a.kernel, a.rbf_frac) \
        == (True, True, (0, 0), 200, "rbf", 0.5)


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


def test_gen_data_writes_the_splits_it_generated(tmp_path, capsys):
    # task a is smaller than task b, so a training run oversamples it
    tasks = [{"type": "synthetic", "c": 3, "n_per_class": 10, "margin": 6.0, "name": "a"},
             {"type": "synthetic", "c": 2, "n_per_class": 25, "margin": 6.0, "name": "b"}]
    doc = minimal_config(tmp_path / "gen", tasks=tasks)
    assert main(["gen-data", "--config", str(write_config(tmp_path, doc))]) == 0
    a_train = load_csv(tmp_path / "gen" / "data" / "a_train.csv")
    assert a_train.n == 24 and len(np.unique(a_train.features, axis=0)) == 24
    # the training run's splits begin with the same bits
    (train, val), _ = build_datasets(parse_config(doc))
    assert train.n == 40
    np.testing.assert_array_equal(a_train.features, train.features[:24])
    np.testing.assert_array_equal(a_train.labels, train.labels[:24])
    a_val = load_csv(tmp_path / "gen" / "data" / "a_val.csv")
    np.testing.assert_array_equal(a_val.features, val.features)


def test_gen_data_does_not_read_the_csv_tasks(tmp_path, capsys):
    synthetic = {"type": "synthetic", "c": 3, "n_per_class": 10, "margin": 6.0, "name": "a"}
    missing = {"type": "csv", "train": str(tmp_path / "absent_train.csv"),
               "val": str(tmp_path / "absent_val.csv"), "name": "ext"}
    mixed = write_config(tmp_path, minimal_config(tmp_path / "mixed", tasks=[missing, synthetic]),
                         "mixed.json")
    alone = write_config(tmp_path, minimal_config(tmp_path / "alone", tasks=[synthetic]),
                         "alone.json")
    assert main(["gen-data", "--config", str(mixed)]) == 0
    assert main(["gen-data", "--config", str(alone)]) == 0
    names = ["a_train.csv", "a_val.csv"]
    assert sorted(p.name for p in (tmp_path / "mixed" / "data").iterdir()) == names
    for name in names:
        # a CSV task draws nothing from the data stream
        assert (tmp_path / "mixed" / "data" / name).read_bytes() \
            == (tmp_path / "alone" / "data" / name).read_bytes()


def _csv_files(tmp_path):
    """`part gen-data` CSVs of a 3-class task "a" and a 2-class task "b",
    both at `minimal_config`'s d_in, in tmp_path/gen/data."""
    tasks = [{"type": "synthetic", "c": 3, "n_per_class": 10, "margin": 6.0, "name": "a"},
             {"type": "synthetic", "c": 2, "n_per_class": 15, "margin": 6.0, "name": "b"}]
    doc = minimal_config(tmp_path / "gen", tasks=tasks)
    assert main(["gen-data", "--config", str(write_config(tmp_path, doc, "gen.json"))]) == 0
    return tmp_path / "gen" / "data"


def _with_csv_task(tmp_path, train, val):
    """`minimal_config` in parallel mode, its task 1 a CSV task, its task 0
    the size of task "b" of `_csv_files`, so no training set is oversampled."""
    csv = {"type": "csv", "train": str(train), "val": str(val), "name": "ext"}
    return minimal_config(tmp_path / "run", mode="parallel",
                          tasks=_solo(c=2, n_per_class=15) + [csv])


def test_a_csv_task_trains_on_the_standardized_files(tmp_path, capsys):
    data = _csv_files(tmp_path)
    doc = _with_csv_task(tmp_path, data / "b_train.csv", data / "b_val.csv")
    assert main(["train", "--config", str(write_config(tmp_path, doc))]) == 0
    assert (tmp_path / "run" / "checkpoint.part").exists()
    got = build_datasets(parse_config(doc))[1]
    want = standardize_pair(load_csv(data / "b_train.csv"), load_csv(data / "b_val.csv"))
    for ds, ref in zip(got, want):
        assert ds.features.tobytes() == ref.features.tobytes()
        np.testing.assert_array_equal(ds.labels, ref.labels)


def test_a_csv_task_that_does_not_fit_exits_2(tmp_path, capsys):
    data = _csv_files(tmp_path)
    wide = Dataset(features=np.ones((4, 8)), labels=[0, 1, 0, 1], c=2)
    write_csv(tmp_path / "wide.csv", wide)
    for (train, val), message in [
        ((data / "b_train.csv", data / "a_val.csv"), "train has 2 classes, val has 3"),
        ((tmp_path / "wide.csv", data / "b_val.csv"), "CSV feature width 8 != grid d_in 6"),
    ]:
        doc = _with_csv_task(tmp_path, train, val)
        with pytest.raises(ConfigError, match=f": {message}$") as err:
            build_datasets(parse_config(doc))
        assert err.value.field == "tasks[1]"
        code, err = _exit_and_stderr(["train", "--config", str(write_config(tmp_path, doc))],
                                     capsys)
        assert code == 2 and err == f"error: config field 'tasks[1]': {message}\n"
        assert not (tmp_path / "run").exists()      # no run directory left behind


def test_a_malformed_csv_task_exits_2_naming_its_line(tmp_path, capsys):
    data = _csv_files(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("label,f0\n0,1.0\n1,2.0,3.0\n", encoding="utf-8")
    doc = _with_csv_task(tmp_path, bad, data / "b_val.csv")
    code, err = _exit_and_stderr(["train", "--config", str(write_config(tmp_path, doc))],
                                 capsys)
    assert code == 2 and err == f"error: {bad}:3: expected 2 cells, got 3\n"
    assert not (tmp_path / "run").exists()


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


def test_profile_sharing_writes_its_out_file(tmp_path, capsys):
    cfgp = write_config(tmp_path, minimal_config(tmp_path / "ps"))
    out = tmp_path / "profile.json"
    assert main(["profile-sharing", "--config", str(cfgp), "--trials", "3",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.startswith(f"wrote {out}\n")
    assert json.loads(out.read_text()) == json.loads(text[text.index("{"):])


def test_profile_sharing_of_no_trials_exits_2(tmp_path, capsys):
    cfgp = write_config(tmp_path, minimal_config(tmp_path / "ps"))
    with pytest.raises(InputError, match="^trials must be >= 1, got 0$"):
        profile_sharing_trials(load_config(cfgp), trials=0)
    code, err = _exit_and_stderr(["profile-sharing", "--config", str(cfgp), "--trials", "0"],
                                 capsys)
    assert code == 2 and err == "error: trials must be >= 1, got 0\n"


def test_gen_data_with_no_synthetic_task_writes_nothing(tmp_path, capsys):
    csv = {"type": "csv", "train": "absent_train.csv", "val": "absent_val.csv"}
    cfgp = write_config(tmp_path, minimal_config(tmp_path / "gen", tasks=[csv]))
    assert main(["gen-data", "--config", str(cfgp)]) == 0
    assert capsys.readouterr().out == "no synthetic tasks in config; nothing to write\n"
    assert not any((tmp_path / "gen" / "data").iterdir())


def test_train_mode_flag_overrides_the_config_mode(tmp_path, capsys):
    doc = minimal_config(tmp_path / "run", mode="parallel")
    assert main(["train", "--config", str(write_config(tmp_path, doc)),
                 "--mode", "single"]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["mode"] == "single"
    assert report["config_hash"] == parse_config(dict(doc, mode="single")).config_hash()


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
                                     "path float", "path string", "path bool",
                                     "frozen cell beyond grid", "unregistered frozen task",
                                     "frozen cells without task", "d_in zero", "d_hid zero",
                                     "d_in negative"])
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
        elif corrupt == "frozen cells without task":
            doc["frozen"], doc["frozen_tasks"] = [[0, 0]], []
        elif corrupt.startswith("d_"):
            field, value = corrupt.split()
            doc[field] = 0 if value == "zero" else -1
        elif corrupt in ("path float", "path string", "path bool"):
            entry = {"path float": 0.5, "path string": "1", "path bool": True}[corrupt]
            doc["tasks"][0]["path"][0] = [0, entry] if corrupt == "path float" else [entry, 2]
        else:
            doc["tasks"][0]["path"] = [[0, 9], [1, 2]] if corrupt == "path beyond M" else [[0, 1]]
        meta = json.dumps(doc).encode()
    ckpt.write_bytes(bytes(raw[:8]) + len(meta).to_bytes(8, "little") + meta
                     + bytes(raw[16 + meta_len:]))
    for command in ("eval", "analyze"):
        code, err = _exit_and_stderr([command, "--ckpt", str(ckpt), "--config", str(cfgp)],
                                     capsys)
        assert code == 1 and "invalid checkpoint metadata" in err


def test_nonfinite_checkpoint_exits_1(tmp_path, capsys):
    cfgp, ckpt = _trained(tmp_path, capsys)
    raw = bytearray(ckpt.read_bytes())
    raw[-8:] = struct.pack("<d", float("nan"))
    ckpt.write_bytes(bytes(raw))
    code, err = _exit_and_stderr(["eval", "--ckpt", str(ckpt), "--config", str(cfgp)],
                                 capsys)
    assert code == 1 and "non-finite" in err


def _damaged(raw, damage):
    """The checkpoint bytes `raw` with its task registry, metadata length or
    blob length damaged."""
    meta_len = int.from_bytes(raw[8:16], "little")
    if damage == "registry":
        doc = json.loads(raw[16:16 + meta_len])
        doc["tasks"][0]["slice"] = [0, 2]
        meta = json.dumps(doc).encode()
        return raw[:8] + len(meta).to_bytes(8, "little") + meta + raw[16 + meta_len:]
    if damage == "truncated metadata":
        return raw[:16 + meta_len - 1]
    return raw + struct.pack("<d", 0.0)


@pytest.mark.parametrize("damage, message", [
    ("registry", "task registry in checkpoint is inconsistent"),
    ("truncated metadata", "truncated checkpoint metadata: "),
    ("blob too long", "checkpoint parameter blob has 8 unread bytes"),
])
def test_malformed_checkpoint_file_exits_1(tmp_path, capsys, damage, message):
    cfgp, ckpt = _trained(tmp_path, capsys)
    ckpt.write_bytes(_damaged(ckpt.read_bytes(), damage))
    with pytest.raises(ContractError, match=f"^{message}"):
        load_checkpoint(ckpt)
    code, err = _exit_and_stderr(["eval", "--ckpt", str(ckpt), "--config", str(cfgp)],
                                 capsys)
    assert code == 1 and err.startswith(f"internal contract violation: {message}")


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    """A checkpoint of `minimal_config` (seed 5, n_layers 2, n_modules 4,
    d_in 6, d_hid 10, shared norms)."""
    out = tmp_path_factory.mktemp("trained")
    run_experiment(parse_config(minimal_config(out)), out_dir=out)
    return out / "checkpoint.part"


@pytest.mark.parametrize("command", ["eval", "analyze"])
@pytest.mark.parametrize("field, value", [
    ("grid.n_layers", 3), ("grid.n_modules", 5), ("grid.d_in", 7), ("grid.d_hid", 11),
    ("norm_mode", "per-task"), ("seed", 6), (None, None),
])
def test_config_must_describe_the_checkpoint(tmp_path, capsys, trained_checkpoint,
                                             command, field, value):
    doc = minimal_config(tmp_path / "out", analysis={"capture_n": 12})
    if field is not None:
        _with(doc, field, value)
    argv = [command, "--ckpt", str(trained_checkpoint),
            "--config", str(write_config(tmp_path, doc))]
    code, err = _exit_and_stderr(argv, capsys)
    if field is None:       # the config the checkpoint was trained from
        assert code == 0 and err == ""
    else:
        name = field.split(".")[-1]
        assert code == 2 and f"error: checkpoint has {name} " in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "analyze"])
@pytest.mark.parametrize("tasks, message", [
    (_solo() * 2, "checkpoint has 1 tasks, config defines 2"),
    (_solo(c=4), "task 0: checkpoint has 3 classes, config data has 4"),
], ids=["task-count", "class-count"])
def test_config_tasks_must_match_the_checkpoint(tmp_path, capsys, trained_checkpoint, command,
                                                tasks, message):
    doc = minimal_config(tmp_path / "out", tasks=tasks, analysis={"capture_n": 12})
    with pytest.raises(InputError, match=f"^{message}$"):
        attach_datasets(load_checkpoint(trained_checkpoint), parse_config(doc))
    argv = [command, "--ckpt", str(trained_checkpoint),
            "--config", str(write_config(tmp_path, doc))]
    code, err = _exit_and_stderr(argv, capsys)
    assert code == 2 and err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "analyze"])
@pytest.mark.parametrize("field, value", [
    ("train.lr0", float("nan")), ("train.lr0", float("inf")), ("train.lr0", -float("inf")),
    ("tasks[0].margin", float("nan")), ("tasks[0].margin", float("inf")),
    ("tasks[0].margin", 0),
    ("analysis.rbf_frac", float("nan")), ("analysis.rbf_frac", float("inf")),
    ("analysis.rbf_frac", 0), ("analysis.rbf_frac", -0.5),
    ("analysis.rbf_sigma", float("nan")), ("analysis.rbf_sigma", float("inf")),
    ("analysis.rbf_sigma", 0.0), ("analysis.rbf_sigma", -1),
])
def test_nonfinite_or_nonpositive_config_numbers_exit_2(tmp_path, capsys, command, field, value):
    doc = minimal_config(tmp_path / "run")
    if field.startswith("tasks[0]."):
        doc["tasks"][0]["margin"] = value
    else:
        _with(doc, field, value)
    argv = [command, "--config", str(write_config(tmp_path, doc))]
    if command == "analyze":
        argv += ["--ckpt", str(tmp_path / "checkpoint.part")]
    code, err = _exit_and_stderr(argv, capsys)
    # the absolute bandwidth `rbf_sigma` was removed: any value of it is an unknown field
    reason = "unknown field" if field == "analysis.rbf_sigma" else "must be "
    assert code == 2 and err.startswith(f"error: config field '{field}': {reason}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("grid.d_in", 1), ("grid.d_in", -2), ("grid.d_hid", 0), ("grid.d_hid", -1),
])
def test_out_of_range_seed_or_width_exits_2_naming_it(tmp_path, capsys, field, value):
    doc = _with(minimal_config(tmp_path / "run"), field, value)
    code, err = _exit_and_stderr(["train", "--config", str(write_config(tmp_path, doc))],
                                 capsys)
    assert code == 2 and err.startswith(f"error: config field '{field}': must be >= ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("updates, field, message", [
    ({"tasks": _solo(n_per_class=4)}, "tasks[0].n_per_class", "must be >= 5, got 4"),
    ({"tasks": _solo(type="image")}, "tasks[0].type",
     "must be 'synthetic' or 'csv', got 'image'"),
    ({"norm_mode": "batch"}, "norm_mode",
     "must be one of ('shared', 'per-task'), got 'batch'"),
    ({"grid.n_layers": 0}, "grid.n_layers", "must be >= 1"),
    ({"tasks": []}, "tasks", "at least one task is required"),
    ({"train.epochs": -1}, "train", "epochs must be >= 0, got -1"),
    ({"single_task_index": 1}, "single_task_index", "must index a task in [0,1), got 1"),
    ({"tasks": _solo() * 2, "controlled_sharing": "layer 1", "grid.path_width": 1},
     "controlled_sharing", "controlled setups need n_modules = 2 * path_width"),
    ({"analysis.pair": [0, 1]}, "analysis.pair", "must name two registered tasks, got (0, 1)"),
    ({"analysis.kernel": "poly"}, "analysis.kernel", "must be 'linear' or 'rbf', got 'poly'"),
    ({"analysis.capture_n": 2}, "analysis.capture_n", "must be >= 3"),
], ids=["n_per_class", "task-type", "norm_mode", "n_layers", "no-tasks",
        "train-field", "single_task_index", "controlled-M-not-2N", "analysis.pair",
        "analysis.kernel", "capture_n"])
def test_config_value_out_of_range_exits_2_naming_the_field(tmp_path, capsys, updates, field,
                                                            message):
    doc = minimal_config(tmp_path / "run")
    for name, value in updates.items():
        _with(doc, name, value)
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.field == field
    code, err = _exit_and_stderr(["train", "--config", str(write_config(tmp_path, doc))],
                                 capsys)
    assert code == 2 and err == f"error: config field '{field}': {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("updates, field", [
    ({"mdoe": "parallel"}, "mdoe"),
    ({"grid.d_out": 4}, "grid.d_out"),
    ({"tasks": _solo(colour="red")}, "tasks[0].colour"),
    ({"tasks": [{"type": "csv", "train": "t.csv", "val": "v.csv", "c": 3}]}, "tasks[0].c"),
    ({"train.epoch": 30}, "train.epoch"),
    ({"train.lr": 0.1}, "train.lr"),
    ({"train.seed": 5}, "train.seed"),
    ({"analysis.kernal": "linear"}, "analysis.kernal"),
    ({"analysis.rbf_sigma": 1.0}, "analysis.rbf_sigma"),     # a removed field
], ids=["top-level", "grid", "synthetic-task", "csv-task", "train.epoch", "train.lr",
        "train.seed", "analysis", "analysis.rbf_sigma"])
def test_an_unknown_config_key_exits_2_naming_it(tmp_path, capsys, updates, field):
    doc = minimal_config(tmp_path / "run")
    for name, value in updates.items():
        _with(doc, name, value)
    before = json.dumps(doc)
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.field == field
    assert json.dumps(doc) == before            # the caller's document is left as it was
    code, err = _exit_and_stderr(["train", "--config", str(write_config(tmp_path, doc))],
                                 capsys)
    assert code == 2 and err == f"error: config field '{field}': unknown field\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("content, message", [
    ('{"seed": 5,', "invalid JSON: "),
    ("[1, 2]", "top-level JSON value must be an object"),
], ids=["not-json", "not-an-object"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, content, message):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(content, encoding="utf-8")
    with pytest.raises(ConfigError, match=message) as err:
        load_config(cfgp)
    assert err.value.field == "(file)"
    code, err = _exit_and_stderr(["train", "--config", str(cfgp)], capsys)
    assert code == 2 and err.startswith(f"error: config field '(file)': {message}")


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
    with pytest.raises(ConfigError, match="^config field 'train': batch_size must be >= 2, got 1$"):
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
    _set_final("task", 1),
    # tasks and final rows both repeat every id: compare would pair duplicates
    lambda doc: doc.update(tasks=doc["tasks"] * 2, final=doc["final"] * 2),
], ids=["final-int", "final-of-ints", "final-object", "tasks-str", "tasks-of-null",
        "no-val_acc", "task-str", "task-bool", "task-float", "acc-str", "acc-null",
        "acc-bool", "acc-nan", "acc-inf", "task-not-in-tasks", "ids-repeat"])
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


def test_compare_report_missing_a_final_row_exits_2(tmp_path, capsys):
    # B's final lacks task 1: pairing the rows up would drop it and give
    # A's mean as 0.9, where it is 0.7
    tasks = [{"id": 0, "c": 2, "slice": [0, 2]}, {"id": 1, "c": 2, "slice": [2, 4]}]
    docs = {"a.json": [0.9, 0.5], "b.json": [0.8]}
    for name, accs in docs.items():
        (tmp_path / name).write_text(json.dumps({
            "config_hash": None, "seed": 0, "mode": "parallel", "tasks": tasks, "epochs": [],
            "final": [{"task": i, "val_acc": acc} for i, acc in enumerate(accs)],
            "wallclock_s": 0.0}), encoding="utf-8")
    a, b = (str(tmp_path / name) for name in docs)
    code, err = _exit_and_stderr(["compare", a, b, "--out", str(tmp_path / "c.json")], capsys)
    assert code == 2 and f"malformed report {b}" in err
    assert "final rows cover tasks [0], not one per task [0, 1]" in err
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
    ("analysis.rbf_sigma", "1"),            # a removed field: refused as unknown
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
    # is unchanged (this hash was taken by the code before `rbf_sigma` was
    # removed, so it also shows that the removal left the hash alone)
    doc = {
        "seed": 7, "mode": "parallel",
        "grid": {"n_layers": 2, "n_modules": 4, "path_width": 2, "d_in": 4, "d_hid": 6},
        "tasks": [{"type": "synthetic", "c": 3, "n_per_class": 10, "margin": 4.0},
                  {"type": "synthetic", "c": 2, "n_per_class": 10, "margin": 4}],
        "train": {"epochs": 3, "batch_size": 8, "lr0": 1, "lr_halve_epochs": [2]},
        "analysis": {"rbf_frac": 1, "capture_n": 9},
    }
    cfg = parse_config(doc)
    assert cfg.config_hash() == "c9647fe88499beb8a9dd1ef8554c7ea01ac17987cfcd70ab7b1ad5e6eb88b86b"
    assert [type(v) for v in (cfg.train.lr0, cfg.analysis.rbf_frac)] == [int, int]
    assert cfg.tasks[1].margin == 4.0 and type(cfg.tasks[1].margin) is float
