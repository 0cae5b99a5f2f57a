"""Golden outputs: same-seed reports and checkpoints pinned bit for bit.

Each case runs a tiny experiment through `run_experiment` and compares the
sha256 of report.json (without its wall-clock field) and of the checkpoint
file with hashes taken when the block bias was deleted (checkpoint format
2), and the sha256 of its console lines with one captured before the three
procedures became one loop, which that deletion did not move. The CKA
cases pin `analyze`'s cka_report.json for both kernels the same way, and
check every report entry against a per-pair copy of its arithmetic. A refactor that is
meant to keep the numbers must keep these hashes; a change that alters bits
on purpose re-pins them and says by how much the numbers moved. The hashes
were taken under numpy's bundled OpenBLAS running its SkylakeX kernel, and
hold for that kernel: OpenBLAS picks a kernel per CPU, and kernels round
matrix products differently (under Haswell 3 Tier-1 tests fail, under
Sandybridge or Prescott 12). So every hash assertion's message names the
kernel this process loaded (`conftest.blas_core`).
"""

import _ctypes
import hashlib
import json
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import part.training
from part.analysis import ActivationSet, layerwise_cka_report
from part.config import parse_config
from part.experiment import (
    CHECKPOINT_NAME,
    REPORT_NAME,
    analyze_checkpoint,
    build_experiment,
    run_experiment,
)
from part.training import train_sequential

from conftest import NUMPY_LIBS, assert_matrix_is_per_pair, blas_core, pair_cka, pin_message

GOLDEN = {
    ("parallel", "per-task"): (
        "5313c38f1c29226eb51b4d4c5714d052a421f4ac377bec9f8bb72757f08a1961",
        "01980cee2e6111b828085f0c0700f21628f1a25368f632712ebdda294ff120fb"),
    ("parallel", "shared"): (
        "75ec77afc8d3609339e2c0077b4f0c593387e1b14076d442da20e9656dcee14d",
        "e00aec293b0ba19e2b2fe03ba76eb74541082e6a3c185bc0b0643e66a8526572"),
    ("sequential", "per-task"): (
        "f569515bf179a35bb220cf3cce640579aa67d41333409ac4eef0acda73c59e87",
        "b387ea704be213a47abc0d205f854e731b8730f4c21ed0ef31923372044fa473"),
    ("sequential", "shared"): (
        "672d14e8e4962027c951ffbe2b18d956b45dff4af614dd7e89f82f9e5f3e4100",
        "075f80556ac7260ff19249dc2b6edff858bce2ef4f56b6acc352fd53f6e4eeed"),
    ("single", "per-task"): (
        "4e34ab1ff94dd3d70dedebcf4522a28273c3a40069305bb7c202cdd3a83189df",
        "b92b6432446ac11aac82e2ff97eaf0dd302360d928d554acbd106739ccf79beb"),
    ("single", "shared"): (
        "ef89e1d448abb696c772dfed765a61494af52f5e28d7243f0eb4678120f4c85a",
        "624f40515d2cbdd3677ace1c5f4bb41e59f0e03ff162a8359862589510af7eec"),
}

# sha256 of the console lines (`log`, one per epoch, each ending in a
# newline) of the same runs, pinned before the three procedures became one
# loop over phases
CONSOLE_GOLDEN = {
    ("parallel", "per-task"): "51ceafcaaef9e811d4788104f5d518c83dfc10b69b51668976891ffd5742b0d3",
    ("parallel", "shared"): "94636fdc974295695c7ea26ec17a03fe374a2573366eea9783685fde0ae96d11",
    ("sequential", "per-task"): "e75b68ce2cbb4b198824346320523c8344cdc71a70f104c2e9fe718866f2bba4",
    ("sequential", "shared"): "bf83713b54263132c0d5f7e8996aec797c23ee2f2811096ef0a4b18dbc9625f5",
    ("single", "per-task"): "54a27d0f6acc7e445672e1d8260b01f17178dc57c86c26a0698e696c926fbe92",
    ("single", "shared"): "f32acaa85b5ceded009906318c78c41288478035a2d85bc4b319c2c78ee34637",
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
    cfg = golden_config(mode, norm_mode, tmp_path)
    lines = []
    report = run_experiment(cfg, log=lines.append)
    assert report.config_hash == cfg.config_hash()
    got = (report_sha(tmp_path / REPORT_NAME),
           hashlib.sha256((tmp_path / CHECKPOINT_NAME).read_bytes()).hexdigest())
    assert got == GOLDEN[(mode, norm_mode)], pin_message()
    console = "".join(f"{line}\n" for line in lines)
    assert (hashlib.sha256(console.encode()).hexdigest()
            == CONSOLE_GOLDEN[(mode, norm_mode)]), pin_message()


# ---------------------------------------------------------------------------
# validation memo: a task is evaluated again only when a parameter its eval
# forward reads changed since its last validation in the same training call

def count_eval_forwards(monkeypatch, on_eval):
    """Wrap the forward passes training calls so that every eval-mode pass,
    whole (`forward_task`) or resumed at a later layer (`forward_kernel`),
    reports its task to `on_eval`."""
    real_task, real_kernel = part.training.forward_task, part.training.forward_kernel

    def counting_task(grid, task, x, mode="eval"):
        if mode == "eval":
            on_eval(task)
        return real_task(grid, task, x, mode=mode)

    def counting_kernel(grid, index, x, train, start=0, ws=None):
        if not train:
            on_eval(grid.tasks[index.task_id])
        return real_kernel(grid, index, x, train, start, ws)

    monkeypatch.setattr(part.training, "forward_task", counting_task)
    monkeypatch.setattr(part.training, "forward_kernel", counting_kernel)


# eval forwards of the tiny sequential run: without the memo every one of
# the 3 tasks is validated after each of the 3 x 4 epochs and once at the
# end, 39 in all. With it a finished task is evaluated no more, and the
# final row repeats the last epoch's: 4 x 3 + 4 x 2 + 4 x 1 = 24
UNMEMOISED_EVALS = 3 * 3 * 4 + 3
MEMO_EVALS = 24


@pytest.mark.parametrize("norm_mode", ["per-task", "shared"])
def test_memo_skips_unchanged_validations_and_keeps_the_pins(tmp_path, monkeypatch, norm_mode):
    evals = []
    count_eval_forwards(monkeypatch, lambda task: evals.append(task.id))
    run_experiment(golden_config("sequential", norm_mode, tmp_path))
    assert len(evals) == MEMO_EVALS < UNMEMOISED_EVALS
    got = (report_sha(tmp_path / REPORT_NAME),
           hashlib.sha256((tmp_path / CHECKPOINT_NAME).read_bytes()).hexdigest())
    assert got == GOLDEN[("sequential", norm_mode)], pin_message()


@pytest.mark.parametrize("bump", [False, True])
def test_memo_sees_a_one_ulp_change_to_a_finished_task(tmp_path, monkeypatch, bump):
    # task 0 trains in epochs 1-4 and is frozen after them; between epochs 6
    # and 7 one of its head biases moves by one ulp
    epochs_done, evaluated = [], []
    count_eval_forwards(monkeypatch, lambda task: task.id == 0 and evaluated.append(
        len(epochs_done) + 1))
    cfg = golden_config("sequential", "shared", tmp_path)
    grid = build_experiment(cfg)

    def log(line):
        epochs_done.append(line)
        if bump and len(epochs_done) == 6:
            head_b = grid.get_param(("head", 0, "b"))
            head_b[0] = np.nextafter(head_b[0], np.inf)
            grid.set_param(("head", 0, "b"), head_b)

    train_sequential(grid, grid.tasks, cfg.train, log=log)
    assert len(epochs_done) == 12
    assert evaluated == ([1, 2, 3, 4, 7] if bump else [1, 2, 3, 4])


# ---------------------------------------------------------------------------
# CKA reports: re-pinned when linear CKA moved to centred features and the
# pair sums to einsum (entries moved by at most 4.4e-16 absolute here); the
# entries equal the per-pair arithmetic of conftest.pair_cka

CKA_GOLDEN = {
    "linear": "f9c3655ba486518200713fc0b5a2fbe947e345c9276d0a454ff67c9bc965a598",
    "rbf": "fca105cc1909ec8c524155894744e5cccaffb040df0a80d1dca5a98cd1742e7d",
}


def cka_config(kernel, out_dir):
    return parse_config({
        "seed": 5, "mode": "parallel", "norm_mode": "shared", "out_dir": str(out_dir),
        "controlled_sharing": "layer 13",
        "grid": {"n_layers": 3, "n_modules": 4, "path_width": 2, "d_in": 4, "d_hid": 6},
        "tasks": [{"type": "synthetic", "c": 3, "n_per_class": 20, "margin": 4.0,
                   "name": f"t{i}"} for i in range(2)],
        "train": {"epochs": 2, "batch_size": 8, "batch_set_size": 2, "lr0": 0.02,
                  "lr_halve_epochs": [3]},
        "analysis": {"pair": [0, 1], "capture_n": 12, "kernel": kernel, "rbf_frac": 0.5},
    })


@pytest.mark.parametrize("kernel", sorted(CKA_GOLDEN))
def test_golden_cka_report(tmp_path, kernel):
    cfg = cka_config(kernel, tmp_path)
    run_experiment(cfg)
    analyze_checkpoint(tmp_path / CHECKPOINT_NAME, cfg)
    doc = (tmp_path / "analysis" / "cka_report.json").read_bytes()
    assert hashlib.sha256(doc).hexdigest() == CKA_GOLDEN[kernel], pin_message()


def test_blas_core_names_the_loaded_kernel(tmp_path):
    if not list(NUMPY_LIBS.glob("libscipy_openblas*")):
        pytest.skip("this numpy bundles no scipy-openblas library")
    core = blas_core()
    assert isinstance(core, str) and core and core in pin_message()
    # no library there, or a library without the symbol: no name
    assert blas_core(tmp_path) is None
    (tmp_path / "libscipy_openblas64_.so").symlink_to(_ctypes.__file__)
    assert blas_core(tmp_path) is None


# The report's entries against `conftest.pair_cka`, the same arithmetic
# taken pair by pair in fresh memory.

def activation_sets(n, n_layers, seed, constant):
    """Two tasks' random layer representations; `constant` makes one task
    rep ("task") or one module rep ("module") identical across samples."""
    rng = np.random.default_rng(seed)
    sets = []
    for task_id in (0, 1):
        layers = []
        for l in range(n_layers):
            mods = sorted(rng.choice(4, size=int(rng.integers(1, 4)), replace=False))
            per_module = {int(m): rng.normal(size=(n, 3)) * rng.uniform(0.1, 5.0)
                          for m in mods}
            if constant == "module" and task_id == 1 and l == 0:
                per_module[int(mods[0])] = np.full((n, 3), 0.25)
            rep = sum(per_module.values())
            if constant == "task" and task_id == 0 and l == n_layers - 1:
                rep = np.full((n, 3), -1.5)
            layers.append(ActivationSet(task_id=task_id, layer=l, rep=rep,
                                        per_module=per_module))
        sets.append(layers)
    return sets


CASES = st.tuples(st.integers(3, 9), st.integers(1, 2), st.integers(0, 2**32 - 1),
                  st.sampled_from([None, "task", "module"]),
                  st.sampled_from(["linear", "rbf"]))


@settings(max_examples=40, deadline=None)
@given(CASES)
@example((3, 1, 0, "task", "rbf"))       # constant task rep
@example((3, 1, 2, "module", "linear"))  # constant module rep
def test_report_entries_equal_the_old_per_pair_formula(case):
    n, n_layers, seed, constant, kernel = case
    set_a, set_b = activation_sets(n, n_layers, seed, constant)
    report = layerwise_cka_report(set_a, set_b, kernel=kernel, rbf_frac=0.5)
    for la, lb, lc in zip(set_a, set_b, report.layers):
        assert (lc.task_cka, lc.task_cka_flag) == pair_cka(la.rep, lb.rep, kernel, 0.5)
        reps = list(la.per_module.values()) + list(lb.per_module.values())
        assert_matrix_is_per_pair(lc.matrix, reps, kernel, 0.5)
