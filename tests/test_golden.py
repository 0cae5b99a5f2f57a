"""Golden outputs: same-seed reports and checkpoints pinned bit for bit.

Each case runs a tiny experiment through `run_experiment` and compares the
sha256 of report.json (without its wall-clock field) and of the checkpoint
file with hashes captured before the flat parameter arena replaced the
per-tensor parameters. A refactor that is meant to keep the numbers must
keep these hashes; a change that alters bits on purpose re-pins them and
says by how much the numbers moved. The hashes hold for numpy's bundled
OpenBLAS on x86-64; another BLAS may round matrix products differently.
"""

import hashlib
import json

import pytest

from part.config import parse_config
from part.experiment import CHECKPOINT_NAME, REPORT_NAME, run_experiment

GOLDEN = {
    ("parallel", "per-task"): (
        "e0868da6c1911b1ca4ae01248d94d38929edd8caa473836af634e3f90dbfbfbd",
        "3782e5378976206b080327f57173539f266663665d56966dcb350ff1580d1781"),
    ("parallel", "shared"): (
        "0b83eade25a40e96b184f5b741a8ec4790560d106ba4832fb3a724966603c32d",
        "e64aaf4f2a105f9f39b8ace454e90a8d5daf4dba33c067fdcc1927cdc1ba6dc4"),
    ("sequential", "per-task"): (
        "6ac7828702533687222aba65bf2fec4e40c2bbb03d0924a754600e8011e99616",
        "33652df198fc01858f271f8afb45fb9e8e9f85b5dbb6b86bc1f90108a3a80f04"),
    ("sequential", "shared"): (
        "a3714db382c46cd55075f1a146fbdd1668b30bb631ce51c895bcc4d8616eb3d2",
        "a26ea8cf07c8d12864bdcf215f05d443b4e90ad047da0f4c639d4287d498f08e"),
    ("single", "per-task"): (
        "30d28e2c64b8452553399f9680bb39397a52fd656978a6616c8b27c1e0f53b54",
        "627b19144972c0ea7c6d31f1613f3ca086121e8801cd7cbf7a22f61e0330945e"),
    ("single", "shared"): (
        "00e5546709dccf3c36979eff5663d13fdc5363ee61910c010c5ac72d0abf8581",
        "ff75a53069a731a59540214111669ab43d741074cb0c864b0bc4b765acc3df6b"),
}


def golden_config(mode, norm_mode, out_dir):
    return parse_config({
        "seed": 11, "mode": mode, "norm_mode": norm_mode, "out_dir": str(out_dir),
        "grid": {"n_layers": 2, "n_modules": 3, "path_width": 2, "d_in": 4, "d_hid": 6},
        "tasks": [{"type": "synthetic", "c": c, "n_per_class": 12, "margin": 4.0,
                   "name": f"t{i}"} for i, c in enumerate((3, 2, 3))],
        "train": {"epochs": 4, "batch_size": 8, "batch_set_size": 2, "lr0": 0.02,
                  "lr_halve_epochs": [3]},
        "single_task_index": 1,
    })


def report_sha(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("wallclock_s")
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


@pytest.mark.parametrize("mode,norm_mode", sorted(GOLDEN))
def test_golden_report_and_checkpoint(tmp_path, mode, norm_mode):
    run_experiment(golden_config(mode, norm_mode, tmp_path))
    got = (report_sha(tmp_path / REPORT_NAME),
           hashlib.sha256((tmp_path / CHECKPOINT_NAME).read_bytes()).hexdigest())
    assert got == GOLDEN[(mode, norm_mode)]
