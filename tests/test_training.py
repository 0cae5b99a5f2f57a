import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from part import (
    ContractError,
    EpochScheduler,
    InputError,
    ModuleGrid,
    TrainConfig,
    build_controlled_paths,
    forward_task,
    gen_synthetic_task,
    oversample_to_equal,
    register_task,
    schedule_round,
    train_parallel,
    train_sequential,
    train_single,
    validate,
)
from part.training import RunReport, freeze_fingerprint

from conftest import make_dataset, make_grid


def build_pair(seed, margin=8.0, epochs_cfg=None, norm_mode="shared",
               c=(3, 3), n_per_class=40):
    """Two tasks on disjoint controlled paths with synthetic data."""
    grid = ModuleGrid(2, 4, 6, 12, norm_mode=norm_mode, seed=seed)
    pa, pb = build_controlled_paths(2, 4, 2, shared_layers=())
    for i, (ci, path) in enumerate(zip(c, (pa, pb))):
        t = register_task(grid, ci)
        t.path = path
        train, val = gen_synthetic_task(np.random.default_rng(100 + i), ci,
                                        n_per_class, 6, margin, name=f"t{i}")
        t.train_ds, t.val_ds = train, val
    trains = oversample_to_equal([t.train_ds for t in grid.tasks],
                                 np.random.default_rng(55))
    for t, tr in zip(grid.tasks, trains):
        t.train_ds = tr
    return grid


CFG = TrainConfig(epochs=12, batch_size=8, batch_set_size=3, lr0=3e-3,
                  lr_halve_epochs=(8,), seed=21)


# ---------------------------------------------------------------------------
# scheduler

def test_single_task_short_epoch():
    sched = EpochScheduler(remaining={0: 7}, batch_set_size=10,
                           rng=np.random.default_rng(0))
    assert schedule_round(sched) == (0, 7)
    assert schedule_round(sched) is None


def test_epoch_conservation():
    k, B = 4, 23
    sched = EpochScheduler(remaining={i: B for i in range(k)}, batch_set_size=5,
                           rng=np.random.default_rng(1))
    granted = {i: 0 for i in range(k)}
    while (g := schedule_round(sched)) is not None:
        tid, count = g
        assert 1 <= count <= 5
        granted[tid] += count
    assert granted == {i: B for i in range(k)}


def test_scheduler_samples_uniformly_among_eligible():
    sched = EpochScheduler(remaining={0: 10**9, 1: 10**9, 2: 10**9},
                           batch_set_size=10, rng=np.random.default_rng(2))
    counts = {0: 0, 1: 0, 2: 0}
    for _ in range(10_000):
        tid, _ = schedule_round(sched)
        counts[tid] += 1
    for tid in counts:
        assert abs(counts[tid] / 10_000 - 1 / 3) < 0.02


# ---------------------------------------------------------------------------
# config

def test_lr_schedule_law():
    cfg = TrainConfig(lr0=1e-3, lr_halve_epochs=(20, 30, 40))
    assert cfg.effective_lr(1) == 1e-3
    assert cfg.effective_lr(19) == 1e-3
    assert cfg.effective_lr(20) == 5e-4
    assert cfg.effective_lr(30) == 2.5e-4
    assert cfg.effective_lr(45) == 1.25e-4


def test_bad_train_config_rejected():
    with pytest.raises(InputError):
        TrainConfig(lr0=0.0)
    with pytest.raises(InputError):
        TrainConfig(lr_halve_epochs=(30, 20))


# ---------------------------------------------------------------------------
# validate

def test_validate_matches_brute_force_loop():
    grid = make_grid(seed=31, randomize_norms=True)
    rng = np.random.default_rng(31)
    for task in grid.tasks:
        _, val = gen_synthetic_task(rng, task.c, 30, grid.d_in, 2.0)
        task.val_ds = val
    for task in grid.tasks:
        acc = validate(grid, task)
        logits, _ = forward_task(grid, task, task.val_ds.features, mode="eval")
        matches = 0
        for i in range(task.val_ds.n):  # independent sample-by-sample recount
            best, best_v = 0, logits[i, 0]
            for j in range(1, task.c):
                if logits[i, j] > best_v:
                    best, best_v = j, logits[i, j]
            matches += int(best == task.val_ds.labels[i])
        assert acc == matches / task.val_ds.n


def test_validate_tie_breaks_to_lowest_index():
    grid = make_grid(seed=32)
    task = grid.tasks[0]
    rng = np.random.default_rng(32)
    _, val = gen_synthetic_task(rng, task.c, 30, grid.d_in, 2.0)
    task.val_ds = val
    for (l, m) in task.path.modules():
        for which in ("W", "b"):
            key = ("block", l, m, which)
            grid.set_param(key, np.zeros_like(grid.get_param(key)))
    grid.set_param(("head", task.id, "W"), np.zeros((grid.d_hid, task.c)))
    grid.set_param(("head", task.id, "b"), np.zeros(task.c))
    acc = validate(grid, task)
    assert acc == float(np.mean(val.labels == 0))


def test_validate_requires_val_set():
    grid = make_grid(seed=33)
    grid.tasks[0].val_ds = None
    with pytest.raises(InputError):
        validate(grid, grid.tasks[0])


# ---------------------------------------------------------------------------
# the three procedures

def test_single_task_degenerate_parallel_trajectory():
    g1 = build_pair(21)
    rep_par = train_parallel(g1, [g1.tasks[0]], CFG)
    g2 = build_pair(21)
    rep_sin = train_single(g2, g2.tasks[0], CFG)
    par_track = [row["per_task"][0] for row in rep_par.epochs]
    sin_track = [row["per_task"][0] for row in rep_sin.epochs]
    assert par_track == sin_track


def test_parallel_learns_separable_disjoint_tasks():
    grid = build_pair(21)
    report = train_parallel(grid, grid.tasks, CFG)
    for row in report.final:
        assert row["val_acc"] >= 0.95


def test_sequential_disjoint_equals_independent_singles():
    grid = build_pair(21)
    rep_seq = train_sequential(grid, grid.tasks, CFG)
    for i in range(2):
        g = build_pair(21)
        rep_one = train_single(g, g.tasks[i], CFG)
        assert rep_seq.final_accuracy(i) == rep_one.final_accuracy(i)


def test_sequential_freezes_everything_it_trained():
    grid = build_pair(21)
    rep = train_sequential(grid, grid.tasks, CFG)
    expected = set()
    for t in grid.tasks:
        expected |= set(t.path.modules())
    assert grid.frozen == expected
    assert grid.frozen_tasks == {0, 1}
    # freeze-time fingerprints still hold at run end (bit-stability)
    for t in grid.tasks:
        assert rep.freeze_hashes[str(t.id)] == freeze_fingerprint(grid, t)


def test_fully_shared_sequential_trains_only_head_and_own_norms():
    from part import trainable_keys

    grid = ModuleGrid(2, 4, 6, 12, norm_mode="per-task", seed=40)
    pa, pb = build_controlled_paths(2, 4, 2, shared_layers=range(2))
    assert pa == pb
    for i, path in enumerate((pa, pb)):
        t = register_task(grid, 3)
        t.path = path
        train, val = gen_synthetic_task(np.random.default_rng(200 + i), 3, 30, 6, 6.0)
        t.train_ds, t.val_ds = train, val
    rep = train_sequential(grid, grid.tasks, CFG)
    # task 0's whole surface stayed bit-identical through task 1 training
    assert rep.freeze_hashes["0"] == freeze_fingerprint(grid, grid.tasks[0])

    # mid-run state: once task 0 froze the (fully shared) path, task 1 is
    # left with exactly its head slice and its own norm instances
    from part import freeze_path, freeze_task

    grid2 = ModuleGrid(2, 4, 6, 12, norm_mode="per-task", seed=40)
    t0 = register_task(grid2, 3)
    t1 = register_task(grid2, 3)
    t0.path = t1.path = pa
    freeze_path(grid2, t0.path)
    freeze_task(grid2, t0)
    keys = trainable_keys(grid2, t1)
    assert keys
    assert all(k[0] in ("head", "norm") for k in keys)
    assert all(k[3] == 1 for k in keys if k[0] == "norm")


def test_parallel_rejects_frozen_grid():
    grid = build_pair(21)
    from part import freeze_path

    freeze_path(grid, grid.tasks[0].path)
    with pytest.raises(ContractError):
        train_parallel(grid, grid.tasks, CFG)


def test_parallel_requires_equal_sizes():
    grid = build_pair(21)
    t0 = grid.tasks[0]
    t0.train_ds = gen_synthetic_task(np.random.default_rng(1), t0.c, 10, 6, 8.0)[0]
    with pytest.raises(ContractError):
        train_parallel(grid, grid.tasks, CFG)


# each procedure and the task ids of its phases, in order
PROCEDURES = {
    "parallel": (lambda g: train_parallel(g, g.tasks, CFG), [{0, 1}]),
    "sequential": (lambda g: train_sequential(g, g.tasks, CFG), [{0}, {1}]),
    "single": (lambda g: train_single(g, g.tasks[1], CFG), [{1}]),
}


@pytest.mark.parametrize("mode", sorted(PROCEDURES))
def test_report_lr_column_follows_schedule(mode):
    # the schedule restarts with each phase; a row's loss is set exactly for
    # the tasks of its phase, and every row covers every task with data
    train, phases = PROCEDURES[mode]
    grid = build_pair(21)
    report = train(grid)
    E = CFG.epochs
    assert [row["epoch"] for row in report.epochs] == list(range(1, len(phases) * E + 1))
    assert [t["id"] for t in report.tasks] == [0, 1]
    for row in report.epochs:
        assert row["lr"] == CFG.effective_lr((row["epoch"] - 1) % E + 1)
        trained = phases[(row["epoch"] - 1) // E]
        assert [pt["loss"] is not None for pt in row["per_task"]] == [0 in trained, 1 in trained]


def test_determinism_identical_reports_minus_wallclock():
    reps = []
    for _ in range(2):
        grid = build_pair(21)
        reps.append(train_parallel(grid, grid.tasks, CFG))
    a = reps[0].to_json_dict()
    b = reps[1].to_json_dict()
    a.pop("wallclock_s")
    b.pop("wallclock_s")
    assert a == b
    assert a["config_hash"] is None  # only an ExperimentConfig names a run


@pytest.mark.parametrize("field, value", [("epochs", -2), ("batch_set_size", 0)])
def test_train_config_rejects_settings_that_train_nothing_or_never_end(field, value):
    # a negative epoch count trains nothing; a batch set of 0 never ends an
    # epoch (the scheduler would grant 0 batches forever)
    with pytest.raises(InputError, match=f"{field} must be >= "):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("procedure", [train_sequential, train_parallel])
def test_report_round_trips_through_json(procedure):
    grid = build_pair(22)
    cfg = TrainConfig(epochs=2, batch_size=8, batch_set_size=3, lr0=3e-3, seed=22)
    report = procedure(grid, grid.tasks, cfg)
    assert (report.freeze_hashes is None) == (procedure is train_parallel)
    d = report.to_json_dict()
    assert ("freeze_hashes" in d) == (report.freeze_hashes is not None)
    assert d["epochs"] is report.epochs        # shallow: nothing is copied
    assert RunReport.from_json_dict(json.loads(json.dumps(d))) == report


def test_zero_epoch_budget_stays_at_chance():
    accs = []
    for seed in (50, 51, 52):
        grid = build_pair(seed, c=(4, 4))
        cfg = TrainConfig(epochs=0, seed=seed)
        rep = train_single(grid, grid.tasks[0], cfg)
        accs.extend(row["val_acc"] for row in rep.final)
    assert 0.13 <= np.mean(accs) <= 0.38  # 4-class chance is 0.25


def test_tasks_without_paths_or_data_rejected():
    grid = make_grid(seed=41)
    grid.tasks[0].path = None
    with pytest.raises(ContractError):
        train_parallel(grid, grid.tasks, CFG)


def _nan_features(grid, victim):
    victim.train_ds.features[-1, 0] = np.nan    # in place, after the Dataset check
    return victim, "non-finite features"


def _val_of_wrong_width(grid, victim):
    victim.val_ds = make_dataset(np.random.default_rng(2), n=20, d=grid.d_in + 1, c=victim.c)
    return victim, "has 7 features, the grid takes 6"


def _label_beyond_c(grid, victim):
    # a 5-class dataset on a 4-class task: its labels include 4
    victim.train_ds = make_dataset(np.random.default_rng(3), n=victim.train_ds.n, d=grid.d_in, c=5)
    return victim, r"labels outside \[0,4\)"


def _foreign_task(grid, victim):
    return build_pair(60, c=(4, 4), n_per_class=20).tasks[victim.id], "not registered on this grid"


@pytest.mark.parametrize("procedure", ["parallel", "sequential", "single"])
@pytest.mark.parametrize("corrupt", [_nan_features, _val_of_wrong_width, _label_beyond_c,
                                     _foreign_task],
                         ids=["nan-features", "val-width", "label-beyond-c", "foreign-task"])
def test_bad_input_fails_before_anything_trains(procedure, corrupt):
    # the bad task comes last, so a per-batch check would train the first one
    grid = build_pair(60, c=(4, 4), n_per_class=20)
    victim, message = corrupt(grid, grid.tasks[1])
    version = grid.version
    digest = hashlib.sha256(grid.arena.tobytes()).hexdigest()
    cfg = TrainConfig(epochs=2, batch_size=8, batch_set_size=3, lr0=3e-3, seed=8)
    with pytest.raises(InputError, match=message):
        if procedure == "single":
            train_single(grid, victim, cfg)
        else:
            train = train_parallel if procedure == "parallel" else train_sequential
            train(grid, [grid.tasks[0], victim], cfg)
    assert grid.version == version
    assert hashlib.sha256(grid.arena.tobytes()).hexdigest() == digest


def test_one_sample_tail_never_trains_alone(monkeypatch):
    from part import training

    grid = build_pair(31)
    task = grid.tasks[0]
    n = task.train_ds.n
    assert n % 5 == 1
    sizes = []
    real = training.forward_kernel

    def spy(grid, index, x, train):
        if train:
            sizes.append(len(x))
        return real(grid, index, x, train)

    monkeypatch.setattr(training, "forward_kernel", spy)
    cfg = TrainConfig(epochs=2, batch_size=5, batch_set_size=3, lr0=3e-3, seed=4)
    train_single(grid, task, cfg)
    assert len(sizes) == 2 * (n // 5) and min(sizes) == 5 and max(sizes) == 6
    assert sum(sizes) == 2 * n


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(st.integers(0, 9), st.integers(0, 40), max_size=6),
       st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_scheduler_grants_add_up_to_each_tasks_batches(n_batches, batch_set_size, seed):
    sched = EpochScheduler(remaining=dict(n_batches), batch_set_size=batch_set_size,
                           rng=np.random.default_rng(seed))
    granted = {tid: 0 for tid in n_batches}
    for _ in range(sum(n_batches.values()) + 1):
        grant = schedule_round(sched)
        if grant is None:
            break
        tid, count = grant
        assert 1 <= count <= batch_set_size
        granted[tid] += count
    assert schedule_round(sched) is None
    assert granted == n_batches
