"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The multi-seed training experiments (criteria 4-6)
share one set of runs via a module-scoped fixture.
"""

import json
import time

import numpy as np
import pytest

from part import (
    ModuleGrid,
    TrainConfig,
    assign_random_path,
    assign_random_paths,
    backward_task,
    cka,
    finite_diff_check,
    forward_task,
    gen_synthetic_task,
    hsic,
    load_checkpoint,
    oversample_to_equal,
    register_task,
    save_checkpoint,
    sharing_profile,
    softmax_xent_slice,
    train_parallel,
    train_sequential,
    train_single,
)
from part.analysis import expected_sharing_count, shared_layers_from_label
from part.config import parse_config
from part.experiment import analyze_checkpoint, run_experiment
from part.training import (
    STREAM_DATA,
    STREAM_OVERSAMPLE,
    STREAM_PATHS,
    derive_rng,
    freeze_fingerprint,
)

from conftest import randomize_norm_instances

CHANCE_4CLASS = 0.25


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


# ---------------------------------------------------------------------------
# shared experiment machinery

def build_task_suite(seed, k, c=4, margin=5.0, L=4, M=6, N=3, d_in=8, d_hid=16,
                     n_per_class=100, norm_mode="shared"):
    """Grid with k equal synthetic tasks, random paths, oversampled data."""
    data_rng = derive_rng(seed, STREAM_DATA)
    grid = ModuleGrid(L, M, d_in, d_hid, norm_mode=norm_mode, seed=seed)
    path_rng = derive_rng(seed, STREAM_PATHS)
    pairs = [gen_synthetic_task(data_rng, c, n_per_class, d_in, margin, name=f"t{i}")
             for i in range(k)]
    trains = oversample_to_equal([p[0] for p in pairs],
                                 derive_rng(seed, STREAM_OVERSAMPLE))
    for i in range(k):
        task = register_task(grid, c)
        task.path = assign_random_path(M, N, L, path_rng)
        task.train_ds, task.val_ds = trains[i], pairs[i][1]
    return grid


SUITE_SEEDS = (101, 202, 303)
SUITE_CFG = dict(epochs=30, batch_size=16, batch_set_size=4, lr0=2e-3,
                 lr_halve_epochs=(10, 14, 18, 21, 24, 27))


@pytest.fixture(scope="module")
def eight_task_runs():
    """Criterion 4's experiment: parallel and sequential runs on 8 separable
    4-class tasks, 3 seeds, identical budgets; grids kept for criterion 6."""
    t0 = time.perf_counter()
    runs = []
    for seed in SUITE_SEEDS:
        cfg = TrainConfig(seed=seed, **SUITE_CFG)
        grid_p = build_task_suite(seed, k=8)
        rep_p = train_parallel(grid_p, grid_p.tasks, cfg)
        grid_s = build_task_suite(seed, k=8)
        rep_s = train_sequential(grid_s, grid_s.tasks, cfg)
        runs.append({"seed": seed, "parallel": rep_p, "sequential": rep_s,
                     "grid_sequential": grid_s})
    print(f"\n[eight-task suite: 6 runs in {time.perf_counter() - t0:.0f}s]")
    return runs


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness

def _grad_config(seed, norm_mode):
    rng = np.random.default_rng(seed)
    L = int(rng.integers(1, 4))
    M = int(rng.integers(2, 5))
    N = int(rng.integers(1, min(M, 2) + 1))
    d_in = int(rng.integers(3, 7))
    d_hid = int(rng.integers(3, 9))
    grid = ModuleGrid(L, M, d_in, d_hid, norm_mode=norm_mode, seed=seed)
    t0 = register_task(grid, 3)
    t1 = register_task(grid, 2)
    t0.path = assign_random_path(M, N, L, rng)
    t1.path = assign_random_path(M, N, L, rng)
    randomize_norm_instances(grid, rng)
    x = rng.normal(size=(6, d_in))
    y = rng.integers(0, 3, size=6)
    return grid, t0, x, y


def _kink_margin(grid, task, x):
    out = np.inf
    for mode in ("train", "eval"):
        _, tape = forward_task(grid, task, x, mode=mode)
        for rec in tape.layers:
            out = min(out, float(np.abs(rec.y).min()))
    return out


def _loss_and_grads(grid, task, x, y, mode):
    logits, tape = forward_task(grid, task, x, mode=mode)
    loss, dslice = softmax_xent_slice(logits, y)
    return loss, backward_task(grid, task, tape, dslice)


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    seed = 0
    while checked < 6 and seed < 200:
        norm_mode = ("shared", "per-task")[checked % 2]
        grid, task, x, y = _grad_config(seed, norm_mode)
        seed += 1
        # central differences need pre-activations clear of the ReLU kink
        if _kink_margin(grid, task, x) < 1e-3:
            continue
        checked += 1
        for mode in ("train", "eval"):
            _, grads = _loss_and_grads(grid, task, x, y, mode)
            keys = sorted(grads, key=repr)

            def f(plist):
                for k, p in zip(keys, plist):
                    grid.set_param(k, p)
                logits, _ = forward_task(grid, task, x, mode=mode)
                return softmax_xent_slice(logits, y)[0]

            err = finite_diff_check(f, [grid.get_param(k) for k in keys],
                                    [grads[k] for k in keys], h=1e-5)
            worst = max(worst, err)
        # batch statistics cancel a per-feature constant before the norm (so
        # a block needs no bias): shifting every input sample by 0.37 leaves
        # the train-mode loss unchanged
        base, _ = _loss_and_grads(grid, task, x, y, "train")
        shifted, _ = _loss_and_grads(grid, task, x + 0.37, y, "train")
        assert abs(shifted - base) < 1e-12
    elapsed = time.perf_counter() - t0
    ok = checked >= 5 and worst < 1e-4 and elapsed < 30
    report(1, "gradient-correctness", ok,
           f"{checked} grids, max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: path locality

def test_criterion_2_path_locality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    for trial in range(100):
        L = int(rng.integers(1, 4))
        M = int(rng.integers(2, 6))
        N = int(rng.integers(1, M + 1))
        norm_mode = ("shared", "per-task")[trial % 2]
        grid = ModuleGrid(L, M, 4, 6, norm_mode=norm_mode, seed=trial)
        ta = register_task(grid, 3)
        tb = register_task(grid, 2)
        ta.path = assign_random_path(M, N, L, rng)
        tb.path = assign_random_path(M, N, L, rng)
        x = rng.normal(size=(5, 4))
        y = rng.integers(0, 3, size=5)
        loss, grads = _loss_and_grads(grid, ta, x, y, "train")

        # gradients exist for exactly the task's surface
        expected = {("head", ta.id, "W"), ("head", ta.id, "b")}
        nk = grid.norm_key(ta.id)
        for (l, m) in ta.path.modules():
            expected |= {("block", l, m, "W"), ("norm", l, m, nk, "gamma"),
                         ("norm", l, m, nk, "beta")}
        assert set(grads) == expected

        # perturbing anything off that surface leaves the loss bit-identical
        on_path = set(ta.path.modules())
        off_cells = [(l, m) for l in range(L) for m in range(M)
                     if (l, m) not in on_path]
        for (l, m) in off_cells[:3]:
            W = grid.get_param(("block", l, m, "W"))
            grid.set_param(("block", l, m, "W"), W + rng.normal(size=W.shape))
            beta = ("norm", l, m, nk, "beta")
            grid.set_param(beta, grid.get_param(beta) + 1.0)
        head = ("head", tb.id, "W")
        grid.set_param(head, grid.get_param(head) + rng.normal(size=(grid.d_hid, tb.c)))
        if norm_mode == "per-task":
            for (l, m) in ta.path.modules():
                key = ("norm", l, m, tb.id, "gamma")
                grid.set_param(key, grid.get_param(key) + 0.5)
        loss2, _ = _loss_and_grads(grid, ta, x, y, "train")
        assert loss2 == loss
    elapsed = time.perf_counter() - t0
    report(2, "path-locality", elapsed < 10,
           f"100 configurations, bitwise loss invariance, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: chance-level unlearned tasks

def test_criterion_3_unlearned_tasks_at_chance():
    t0 = time.perf_counter()
    accs = np.zeros((3, 5))
    for si, seed in enumerate((11, 22, 33)):
        cfg = TrainConfig(epochs=10, batch_size=16, batch_set_size=4,
                          lr0=2e-3, lr_halve_epochs=(6, 8), seed=seed)
        grid = build_task_suite(seed, k=5)
        rep = train_single(grid, grid.tasks[0], cfg)
        accs[si] = [row["val_acc"] for row in rep.final]
    unlearned = accs.mean(axis=0)[1:]
    learned = accs.mean(axis=0)[0]
    elapsed = time.perf_counter() - t0
    ok = bool(np.all((unlearned >= 0.15) & (unlearned <= 0.35)) and elapsed < 120)
    report(3, "chance-level-unlearned", ok,
           f"learned {learned:.3f}, unlearned {np.round(unlearned, 3).tolist()}, "
           f"band [0.15,0.35], {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 4-6: the eight-task experiment

def test_criterion_4_parallel_beats_sequential(eight_task_runs):
    order_wins = 0
    degrade_wins = 0
    lines = []
    for run in eight_task_runs:
        par = [r["val_acc"] for r in run["parallel"].final]
        seq = [r["val_acc"] for r in run["sequential"].final]
        order_wins += np.mean(par) > np.mean(seq)
        first3, last3 = np.mean(seq[:3]), np.mean(seq[-3:])
        degrade_wins += last3 < first3
        lines.append(f"seed {run['seed']}: par {np.mean(par):.3f} vs seq "
                     f"{np.mean(seq):.3f}, seq first3 {first3:.3f} last3 {last3:.3f}")
    ok = order_wins >= 2 and degrade_wins >= 2
    report(4, "parallel-vs-sequential", ok,
           f"order {order_wins}/3, late-task degradation {degrade_wins}/3; "
           + "; ".join(lines))


def test_criterion_5_no_forgetting(eight_task_runs):
    worst_drop = 0.0
    worst_final = 1.0
    for run in eight_task_runs:
        rep = run["parallel"]
        finals = [r["val_acc"] for r in rep.final]
        for i, final in enumerate(finals):
            best = max(row["per_task"][i]["val_acc"] for row in rep.epochs)
            worst_drop = max(worst_drop, best - final)
            worst_final = min(worst_final, final)
    ok = worst_drop <= 0.05 and worst_final >= CHANCE_4CLASS + 0.20
    report(5, "no-forgetting", ok,
           f"max drop from best {worst_drop:.3f} (<=0.05), min final "
           f"{worst_final:.3f} (>= {CHANCE_4CLASS + 0.20:.2f})")


def test_criterion_6_freezing_bit_stability(eight_task_runs):
    checked = 0
    for run in eight_task_runs:
        grid = run["grid_sequential"]
        hashes = run["sequential"].freeze_hashes
        for task in grid.tasks:
            assert hashes[str(task.id)] == freeze_fingerprint(grid, task)
            checked += len(hashes[str(task.id)])
    report(6, "freezing-bit-stability", True,
           f"{checked} frozen tensors identical at freeze time and run end, "
           f"{len(eight_task_runs)} seeds")


# ---------------------------------------------------------------------------
# criterion 7: sharing-profile law

def test_criterion_7_sharing_profile_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    M, N, L, k, trials = 12, 4, 8, 10, 10_000
    sums = np.zeros(k + 1)
    sq = np.zeros(k + 1)
    for _ in range(trials):
        paths = assign_random_paths(M, N, L, k, rng)
        hist = sharing_profile(paths, M, L).histogram
        counts = np.array([hist.get(t, 0) for t in range(k + 1)], dtype=float)
        sums += counts
        sq += counts * counts
    mean = sums / trials
    sem = np.sqrt((sq / trials - mean ** 2) / trials)
    expect4 = expected_sharing_count(M, N, L, k, 4)
    rel = abs(mean[4] - expect4) / expect4

    # every multiplicity bin sits within 3 standard errors of the binomial law
    worst_z = 0.0
    for t in range(k + 1):
        expect = expected_sharing_count(M, N, L, k, t)
        dev = abs(mean[t] - expect)
        if sem[t] > 0:
            worst_z = max(worst_z, dev / sem[t])
        else:
            assert dev == 0
    elapsed = time.perf_counter() - t0
    ok = rel < 0.02 and worst_z < 3.0 and elapsed < 30
    report(7, "sharing-profile-law", ok,
           f"shared-by-4 empirical {mean[4]:.3f} vs closed form {expect4:.3f} "
           f"(rel dev {rel:.4%}), all bins within {worst_z:.2f} sigma, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8: CKA metric suite

def hsic_bruteforce(K, L):
    n = K.shape[0]
    H = np.eye(n) - np.ones((n, n)) / n
    total = 0.0
    for i in range(n):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    total += K[i, a] * H[a, b] * L[b, c] * H[c, i]
    return total / (n - 1) ** 2


def test_criterion_8_cka_metric_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    X = rng.normal(size=(50, 8))
    Q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    for kernel in ("linear", "rbf"):
        assert abs(cka(X, X, kernel=kernel) - 1.0) <= 1e-9
        assert abs(cka(X, X @ Q, kernel=kernel) - 1.0) <= 1e-9
        assert abs(cka(X, 2.5 * X, kernel=kernel) - 1.0) <= 1e-9
    Y = rng.normal(size=(50, 5))
    for kernel in ("linear", "rbf"):
        assert abs(cka(X, Y, kernel=kernel) - cka(Y, X, kernel=kernel)) <= 1e-12

    worst_hsic = 0.0
    for n in (3, 5, 6):
        A = rng.normal(size=(n, 3))
        B = rng.normal(size=(n, 2))
        K, L = A @ A.T, B @ B.T
        worst_hsic = max(worst_hsic, abs(hsic(K, L) - hsic_bruteforce(K, L)))
    assert worst_hsic <= 1e-10

    Xbig = rng.normal(size=(1000, 16))
    Ybig = rng.normal(size=(1000, 16))
    null_linear = cka(Xbig, Ybig, kernel="linear")
    assert null_linear < 0.1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60
    report(8, "cka-metric-suite", ok,
           f"invariances to 1e-9, symmetry to 1e-12, hsic oracle gap "
           f"{worst_hsic:.1e}, independent null {null_linear:.4f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 9: controlled-sharing pipeline

SETUPS = ("no layer", "layer 1", "layer 3", "layer 123", "layer 12345")


def test_criterion_9_controlled_sharing_pipeline(tmp_path):
    t0 = time.perf_counter()
    curves = {}
    for setup in SETUPS:
        out = tmp_path / setup.replace(" ", "_")
        doc = {
            "seed": 71, "mode": "parallel", "norm_mode": "per-task",
            "out_dir": str(out),
            "grid": {"n_layers": 5, "n_modules": 4, "path_width": 2,
                     "d_in": 8, "d_hid": 16},
            "tasks": [
                {"type": "synthetic", "c": 3, "n_per_class": 100,
                 "margin": 4.0, "name": "taskA"},
                {"type": "synthetic", "c": 3, "n_per_class": 100,
                 "margin": 4.0, "name": "taskB"},
            ],
            "train": {"epochs": 8, "batch_size": 16, "batch_set_size": 4,
                      "lr0": 2e-3, "lr_halve_epochs": [5, 7]},
            "controlled_sharing": setup,
            "analysis": {"capture_n": 60, "kernel": "rbf", "rbf_frac": 0.5},
        }
        cfg = parse_config(doc)
        run_experiment(cfg)
        analyze_checkpoint(out / "checkpoint.part", cfg)
        doc_out = json.loads((out / "analysis" / "cka_report.json").read_text())

        # report completeness: a value or an explicit flag per layer and pair
        assert doc_out["setup"] == setup
        assert len(doc_out["layers"]) == 5
        shared_expected = shared_layers_from_label(setup, 5)
        for l, layer in enumerate(doc_out["layers"]):
            assert layer["task_cka"] is not None or layer["task_cka_flag"]
            assert layer["shared_modules"] == ([0, 1] if l in shared_expected else [])
            p = len(layer["labels"])
            assert p == 4
            assert all(len(row) == p for row in layer["matrix"])
            assert (out / "analysis" / f"cka_heatmap_layer{l}.csv").exists()
        curves[setup] = [layer["task_cka"] for layer in doc_out["layers"]]

    # the mid-layer-more-similar ordering is reported, not asserted
    for setup, curve in curves.items():
        vals = [v for v in curve if v is not None]
        mid = np.mean(vals[1:-1])
        ends = np.mean([vals[0], vals[-1]])
        print(f"\n  [{setup}] layer CKA curve {[f'{v:.3f}' for v in vals]} "
              f"mid {mid:.3f} vs ends {ends:.3f} "
              f"({'mid-layer higher' if mid > ends else 'mid-layer not higher at desk scale'})")
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300
    report(9, "controlled-sharing-pipeline", ok,
           f"5 setups end-to-end, shared modules flagged per setup, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 10: determinism and persistence

def test_criterion_10_determinism_and_persistence(tmp_path):
    doc = {
        "seed": 12, "mode": "parallel", "norm_mode": "shared",
        "out_dir": str(tmp_path / "a"),
        "grid": {"n_layers": 2, "n_modules": 4, "path_width": 2,
                 "d_in": 6, "d_hid": 10},
        "tasks": [
            {"type": "synthetic", "c": 3, "n_per_class": 40, "margin": 5.0,
             "name": "t0"},
            {"type": "synthetic", "c": 3, "n_per_class": 40, "margin": 5.0,
             "name": "t1"},
        ],
        "train": {"epochs": 5, "batch_size": 8, "batch_set_size": 3,
                  "lr0": 2e-3, "lr_halve_epochs": [4]},
    }
    cfg = parse_config(doc)
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    d1 = json.loads((tmp_path / "a" / "report.json").read_text())
    d2 = json.loads((tmp_path / "b" / "report.json").read_text())
    d1.pop("wallclock_s")
    d2.pop("wallclock_s")
    same_reports = d1 == d2

    ck = tmp_path / "a" / "checkpoint.part"
    loaded = load_checkpoint(ck)
    resaved = tmp_path / "resaved.part"
    save_checkpoint(loaded, resaved)
    roundtrip = ck.read_bytes() == resaved.read_bytes()

    report(10, "determinism-and-persistence", same_reports and roundtrip,
           f"reports identical minus wallclock: {same_reports}, "
           f"checkpoint round-trip byte-identical: {roundtrip}")
