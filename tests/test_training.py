import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from part import (
    SCHEDULES,
    ContractError,
    EpochScheduler,
    InputError,
    ModuleGrid,
    Path,
    Phase,
    TrainConfig,
    build_controlled_paths,
    forward_task,
    freeze,
    gen_synthetic_task,
    oversample_to_equal,
    register_task,
    schedule_round,
    train,
    train_parallel,
    train_sequential,
    train_single,
    validate,
)
from part.data import Dataset
from part.net import NORM_PARAMS, path_index
from part.training import RunReport, freeze_fingerprint

from conftest import attach_synthetic, make_dataset, make_grid


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
        key = ("block", l, m, "W")
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


@st.composite
def one_ulp_changes(draw):
    """A depth, a norm mode, one to three one-ulp changes, each to one
    parameter of a drawn layer of task 0's path (the depth: its head),
    whether task 0 trains between validations, and how many of its
    lowest layers are frozen."""
    depth = draw(st.integers(1, 4))
    changes = draw(st.lists(st.tuples(st.integers(0, depth), st.integers(0, 2**32 - 1)),
                            min_size=1, max_size=3))
    return (depth, draw(st.sampled_from(["shared", "per-task"])), changes,
            draw(st.booleans()), draw(st.integers(0, depth)), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=30, deadline=None)
@given(one_ulp_changes())
def test_resumed_validation_matches_a_full_eval_pass(problem):
    from part import training

    depth, norm_mode, changes, trains, frozen_below, seed = problem
    rng = np.random.default_rng(seed)
    grid = make_grid(L=depth, M=4, N=2, d_in=5, d_hid=4, norm_mode=norm_mode,
                     seed=seed % 1000, rng=rng, randomize_norms=True)
    task = grid.tasks[0]
    _, task.val_ds = gen_synthetic_task(rng, task.c, 20, grid.d_in, 2.0)
    grid.frozen |= {(l, m) for l, row in enumerate(task.path.rows[:frozen_below]) for m in row}
    # a task that trains keeps the inputs up to its lowest trainable layer
    lowest = path_index(grid, task).lowest if trains else depth
    memo = training._ValidationMemo()
    resumed = []
    real = training.forward_kernel

    def spy(grid, index, x, train, start=0, ws=None):
        logits, tape = real(grid, index, x, train, start, ws)
        resumed.append((start, logits))
        return logits, tape

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "forward_kernel", spy)
        memo.accuracy(grid, task, trains)
        for layer, pick in changes:
            if layer == depth:
                key = ("head", task.id, "W" if pick % 2 else "b")
            else:
                m = task.path.rows[layer][pick % 2]
                which = (("W",) + NORM_PARAMS)[pick // 2 % 5]
                key = (("block", layer, m, which) if which == "W"
                       else ("norm", layer, m, grid.norm_key(task.id), which))
            value = grid.get_param(key)
            flat = value.reshape(-1)
            i = pick // 10 % flat.size
            flat[i] = np.nextafter(flat[i], np.inf if pick // 3 % 2 else -np.inf)
            grid.set_param(key, value)
            resumed.clear()
            acc = memo.accuracy(grid, task, trains)
            logits, _ = forward_task(grid, task, task.val_ds.features, mode="eval")
            assert acc == validate(grid, task)
            if min(layer, lowest) == 0:
                assert resumed == []        # a whole pass, through forward_task
            else:
                [(start, got)] = resumed
                assert start == min(layer, lowest)
                np.testing.assert_array_equal(got, logits)


def test_parallel_validation_keeps_no_layer_inputs(monkeypatch):
    # every task trains every layer of its path each epoch, so no pass can
    # resume above layer 0: the memo keeps only h_0, the features themselves
    from part import training

    memos = []

    class Recording(training._ValidationMemo):
        def __init__(self):
            super().__init__()
            memos.append(self)

    monkeypatch.setattr(training, "_ValidationMemo", Recording)
    grid = make_grid(L=3, M=4, N=2, seed=36, class_counts=(3, 3))
    attach_synthetic(grid, np.random.default_rng(36), n_per_class=8)
    train_parallel(grid, grid.tasks, TrainConfig(epochs=2, seed=0))
    [memo] = memos
    for task in grid.tasks:
        [h0] = memo._last[task.id][-1]
        assert h0 is task.val_ds.features


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


def _fingerprint_by_key(grid, task):
    """`freeze_fingerprint`'s oracle, read through `get_param` by key: each
    key of the task's path index, then each path module's run_mean and
    run_var, hashed together."""
    nk = grid.norm_key(task.id)
    fp = {repr(key): hashlib.sha256(grid.get_param(key).tobytes()).hexdigest()
          for key in path_index(grid, task).keys}
    for l, m in task.path.modules():
        mean, var = (grid.get_param(("norm", l, m, nk, which))
                     for which in ("run_mean", "run_var"))
        fp[repr(("norm_stats", l, m, nk))] = hashlib.sha256(
            mean.tobytes() + var.tobytes()).hexdigest()
    return fp


@pytest.mark.parametrize("norm_mode", ["shared", "per-task"])
def test_freeze_fingerprint_equals_an_oracle_read_by_key(norm_mode):
    # task 1 shares task 0's layer-0 cells; it trains after task 0 froze
    grid = build_pair(21, norm_mode=norm_mode)
    t0, t1 = grid.tasks
    t1.path = build_controlled_paths(2, 4, 2, shared_layers=(0,))[1]
    report = train(grid, "first", [Phase("first", (t0,), freeze=True)], [t0], CFG)
    at_freeze = _fingerprint_by_key(grid, t0)
    assert report.freeze_hashes["0"] == at_freeze == freeze_fingerprint(grid, t0)
    shared = [("norm", 0, m, grid.norm_key(t1.id), "run_mean") for m in t0.path.rows[0]]
    before = [grid.get_param(key) for key in shared]
    train(grid, "second", [Phase("second", (t1,))], [t1], CFG)
    # in per-task mode the later call trained task 1's own norms in the shared cells
    moved = [not np.array_equal(grid.get_param(key), b) for key, b in zip(shared, before)]
    assert moved == [norm_mode == "per-task"] * 2
    assert freeze_fingerprint(grid, t0) == _fingerprint_by_key(grid, t0) == at_freeze


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
    grid2 = ModuleGrid(2, 4, 6, 12, norm_mode="per-task", seed=40)
    t0 = register_task(grid2, 3)
    t1 = register_task(grid2, 3)
    t0.path = t1.path = pa
    freeze(grid2, t0)
    keys = trainable_keys(grid2, t1)
    assert keys
    assert all(k[0] in ("head", "norm") for k in keys)
    assert all(k[3] == 1 for k in keys if k[0] == "norm")


def test_parallel_rejects_frozen_grid():
    grid = build_pair(21)
    freeze(grid, grid.tasks[0])
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


@pytest.mark.parametrize("mode", sorted(SCHEDULES))
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


def _late_task_run(seed):
    """Tasks 0 and 1 co-trained and frozen, then task 2 trained: one call."""
    grid = attach_synthetic(make_grid(seed=seed, class_counts=(3, 3, 2)),
                            np.random.default_rng(seed), n_per_class=12)
    t0, t1, t2 = grid.tasks
    phases = [Phase("co-train", (t0, t1), freeze=True), Phase("late", (t2,))]
    return grid, train(grid, "late", phases, grid.tasks, CFG)


def test_a_late_task_schedule_is_one_run_with_one_report():
    grid, report = _late_task_run(37)
    E = CFG.epochs
    assert report.mode == "late"
    assert [row["epoch"] for row in report.epochs] == list(range(1, 2 * E + 1))
    for row in report.epochs:
        trained = {0, 1} if row["epoch"] <= E else {2}
        assert [pt["loss"] is not None for pt in row["per_task"]] == [
            t.id in trained for t in grid.tasks]
    assert set(report.freeze_hashes) == {"0", "1"}
    for t in grid.tasks[:2]:
        assert report.freeze_hashes[str(t.id)] == freeze_fingerprint(grid, t)
    a = report.to_json_dict()
    b = _late_task_run(37)[1].to_json_dict()
    a.pop("wallclock_s")
    b.pop("wallclock_s")
    assert a == b


def _after_freezing_task_0(call):
    """`call` on a grid whose task 0 an earlier call froze."""
    def run(g, cfg):
        freeze(g, g.tasks[0])
        return call(g, cfg)
    return run


@pytest.mark.parametrize("call, message", [
    (lambda g, cfg: train_parallel(g, [], cfg), "phase 'parallel' has no task"),
    (lambda g, cfg: train_sequential(g, [], cfg), "at least one phase"),
    (lambda g, cfg: train(g, "x", [Phase("a", (g.tasks[0],)), Phase("b", ())], g.tasks, cfg),
     "phase 'b' has no task"),
    (lambda g, cfg: train_parallel(g, [g.tasks[0], g.tasks[0]], cfg),
     r"lists a task twice: \[0, 0\]"),
    (lambda g, cfg: train(g, "x", [Phase("a", (g.tasks[0],))], [g.tasks[1], g.tasks[1]], cfg),
     r"report_tasks lists a task twice: \[1, 1\]"),
    (lambda g, cfg: train_sequential(g, [g.tasks[0], g.tasks[0]], cfg),
     r"trains tasks \[0\], frozen by an earlier phase"),
    (lambda g, cfg: train(g, "x", [Phase("a", tuple(g.tasks), freeze=True),
                                   Phase("b", (g.tasks[1],))], g.tasks, cfg),
     r"phase 'b' trains tasks \[1\], frozen"),
    (_after_freezing_task_0(lambda g, cfg: train_sequential(g, g.tasks, cfg)),
     r"phase 'sequential\[task 0\]' trains tasks \[0\], frozen by an earlier phase or call"),
    (_after_freezing_task_0(lambda g, cfg: train_single(g, g.tasks[0], cfg)),
     r"phase 'single\[task 0\]' trains tasks \[0\], frozen by an earlier phase or call"),
], ids=["parallel-empty", "sequential-empty", "empty-phase", "twice-in-phase",
        "twice-in-report", "sequential-twice", "after-frozen", "sequential-after-a-call",
        "single-after-a-call"])
def test_degenerate_schedules_are_refused_before_anything_trains(call, message):
    grid = build_pair(60, c=(4, 4), n_per_class=20)
    version = grid.version
    digest = hashlib.sha256(grid.arena.tobytes()).hexdigest()
    cfg = TrainConfig(epochs=2, batch_size=8, batch_set_size=3, lr0=3e-3, seed=8)
    with pytest.raises(InputError, match=message):
        call(grid, cfg)
    assert grid.version == version
    assert hashlib.sha256(grid.arena.tobytes()).hexdigest() == digest


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


@pytest.mark.parametrize("lr0", [float("nan"), float("inf")])
def test_train_config_rejects_a_nonfinite_learning_rate(lr0):
    with pytest.raises(InputError, match="lr0 must be positive and finite"):
        TrainConfig(lr0=lr0)


@pytest.mark.parametrize("field, value", [("epochs", -2), ("batch_set_size", 0)])
def test_train_config_rejects_settings_that_train_nothing_or_never_end(field, value):
    # a negative epoch count trains nothing; a batch set of 0 never ends an
    # epoch (the scheduler would grant 0 batches forever)
    with pytest.raises(InputError, match=f"{field} must be >= "):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field, value", [("epochs", 2.5), ("epochs", True), ("batch_set_size", 2.0),
                                          ("batch_size", 16.0), ("batch_size", "16")])
def test_train_config_sizes_must_be_integers(field, value):
    with pytest.raises(InputError, match=f"^{field} must be an integer, got "):
        TrainConfig(**{field: value})
    stored = TrainConfig(**{field: np.int64(3)}).__dict__[field]
    assert type(stored) is int and stored == 3


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


def test_final_accuracy_of_a_task_the_report_lacks_is_an_input_error():
    report = RunReport(config_hash=None, seed=0, mode="parallel", tasks=[], epochs=[],
                       final=[{"task": 0, "val_acc": 0.75}], wallclock_s=0.0)
    assert report.final_accuracy(0) == 0.75
    with pytest.raises(InputError, match="^no final entry for task 1$"):
        report.final_accuracy(1)


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
    with pytest.raises(ContractError, match="^task 0 has no datasets attached$"):
        train_parallel(grid, grid.tasks, CFG)
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


def _val_nan(grid, victim):
    victim.val_ds.features[-1, 0] = np.nan
    return victim, "non-finite features"


def _val_label_beyond_c(grid, victim):
    victim.val_ds = make_dataset(np.random.default_rng(4), n=20, d=grid.d_in, c=5)
    return victim, r"labels outside \[0,4\)"


def _path_beyond_grid(grid, victim):
    victim.path = Path(((grid.n_modules,),) * grid.n_layers)
    return victim, "path selects module"


@pytest.mark.parametrize("corrupt", [_val_of_wrong_width, _val_nan, _val_label_beyond_c,
                                     _path_beyond_grid],
                         ids=["val-width", "val-nan", "val-label-beyond-c", "path-beyond-grid"])
def test_single_checks_every_reported_task_before_training(corrupt):
    # train_single trains task 0 but validates task 1 every epoch
    grid = build_pair(60, c=(4, 4), n_per_class=20)
    _, message = corrupt(grid, grid.tasks[1])
    version = grid.version
    digest = hashlib.sha256(grid.arena.tobytes()).hexdigest()
    cfg = TrainConfig(epochs=2, batch_size=8, batch_set_size=3, lr0=3e-3, seed=8)
    with pytest.raises(InputError, match=message):
        train_single(grid, grid.tasks[0], cfg)
    assert grid.version == version
    assert hashlib.sha256(grid.arena.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("procedure", ["parallel", "sequential", "single"])
def test_one_sample_training_set_rejected_before_training(procedure):
    # every batch of a one-sample training set has one sample, which a
    # training forward rejects (zero batch variance)
    rng = np.random.default_rng(6)
    grid = ModuleGrid(2, 3, 4, 5)
    task = register_task(grid, 2)
    task.path = Path(((0, 1), (1, 2)))
    task.train_ds = Dataset(rng.normal(size=(1, 4)), [0], c=1)
    task.val_ds = make_dataset(rng, n=6, d=4, c=2)
    version = grid.version
    digest = hashlib.sha256(grid.arena.tobytes()).hexdigest()
    cfg = TrainConfig(epochs=2, batch_size=8, batch_set_size=3, lr0=3e-3, seed=8)
    with pytest.raises(InputError, match="needs at least 2"):
        if procedure == "single":
            train_single(grid, task, cfg)
        else:
            train = train_parallel if procedure == "parallel" else train_sequential
            train(grid, [task], cfg)
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

    def spy(grid, index, x, train, start=0, ws=None):
        if train:
            sizes.append(len(x))
        return real(grid, index, x, train, start, ws)

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
