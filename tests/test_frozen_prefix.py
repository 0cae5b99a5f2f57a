"""The frozen prefix: a phase's layers below every task's lowest trainable
layer run once per epoch for all of a task's batches, as one stacked pass.

At the kernel level, `forward_prefix` over a stack of same-size batches
gives each batch's `tape.inputs[stop]` of its own whole train pass, and a
train pass resumed there gives that pass's logits, running-statistic
writes and gradient, bit for bit. At the run level, `train` gives the same
report and arena with the hoist as without it, and runs in which a task
trains at layer 0 (parallel, per-task norms) never take the stacked pass.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from part import (
    SCHEDULES,
    ContractError,
    ModuleGrid,
    Path,
    Phase,
    TrainConfig,
    assign_random_path,
    backward_task,
    freeze,
    register_task,
    train,
    train_parallel,
    train_sequential,
)
from part import training
from part.data import BatchPlan, Dataset, next_batches
from part.net import backward_kernel, forward_kernel, forward_prefix, path_index

from conftest import attach_synthetic, make_grid, randomize_norm_instances
from test_fused_layer import same_bits


# ---------------------------------------------------------------------------
# kernels

@st.composite
def prefix_problem(draw):
    L = draw(st.integers(1, 4))
    M = draw(st.integers(1, 5))
    n_tasks = draw(st.integers(2, 3))
    batch_size = draw(st.integers(2, 16))
    return dict(
        L=L, M=M, N=draw(st.integers(1, M)),
        d_in=draw(st.integers(1, 5)),
        d_hid=draw(st.sampled_from([1, 1, 2, 3, 5])),
        classes=draw(st.lists(st.integers(2, 4), min_size=n_tasks, max_size=n_tasks)),
        norm_mode=draw(st.sampled_from(["shared", "per-task"])),
        # task 0 is frozen, and the target, the last task, reads its rows
        # below layer `reuse`; the task between them and the target itself
        # may be frozen too
        finished={0} | {t for t in range(1, n_tasks - 1) if draw(st.booleans())},
        target_frozen=draw(st.sampled_from([False, False, True])),
        reuse=draw(st.integers(0, L - 1)),
        # whole batches, then a tail: none, one sample (merged) or a short batch
        n_samples=batch_size * draw(st.integers(1, 3)) + draw(st.integers(0, batch_size - 1)),
        batch_size=batch_size,
        stop_pick=draw(st.integers(0, 2**16)),    # odd: the lowest trainable layer
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def build_prefix_problem(p):
    """A grid with random paths, norms and head biases and some tasks
    frozen, the target's lowest rows those of a frozen task; its batches
    of one epoch (a short or merged tail included); and a stop no higher
    than the target's lowest trainable layer."""
    rng = np.random.default_rng(p["seed"])
    grid = ModuleGrid(p["L"], p["M"], p["d_in"], p["d_hid"], norm_mode=p["norm_mode"],
                      seed=p["seed"] % 1000)
    for c in p["classes"]:
        register_task(grid, c).path = assign_random_path(p["M"], p["N"], p["L"], rng)
    target = grid.tasks[-1]
    rows = grid.tasks[0].path.rows
    target.path = Path(rows[:p["reuse"]] + target.path.rows[p["reuse"]:])
    randomize_norm_instances(grid, rng)
    head_b = rng.normal(size=grid.c_total)
    for t in grid.tasks:
        grid.set_param(("head", t.id, "b"), head_b[slice(*t.slice)])
    for tid in sorted(p["finished"] | ({target.id} if p["target_frozen"] else set())):
        freeze(grid, grid.tasks[tid])
    X = rng.normal(size=(p["n_samples"], p["d_in"]))
    ds = Dataset(features=X, labels=np.zeros(p["n_samples"], dtype=np.int64), c=1)
    plan = BatchPlan.for_dataset(ds, p["batch_size"], rng)
    batches = next_batches(ds, plan, plan.n_batches)
    lowest, pick = path_index(grid, target).lowest, p["stop_pick"]
    stop = lowest if pick % 2 else pick // 2 % (lowest + 1)
    dslices = [rng.normal(size=(len(idx), target.c)) for idx in batches]
    return grid, target, X, batches, stop, dslices


@settings(max_examples=60, deadline=None)
@given(prefix_problem())
def test_stacked_prefix_and_resumed_pass_equal_the_whole_train_pass(problem):
    grid, target, X, batches, stop, dslices = build_prefix_problem(problem)
    L = grid.n_layers
    whole, resumed = grid, copy.deepcopy(grid)
    w_index, r_index = path_index(whole, target), path_index(resumed, resumed.tasks[target.id])
    # the trainer's grouping: batches of one size run the prefix as one stack
    prefix = {}
    for size in {len(idx) for idx in batches}:
        same = [i for i, idx in enumerate(batches) if len(idx) == size]
        hs = forward_prefix(resumed, r_index, X[np.stack([batches[i] for i in same])], stop)
        assert hs.shape == (len(same), size, grid.d_hid if stop else grid.d_in)
        prefix.update(zip(same, hs))
    for i, (idx, dslice) in enumerate(zip(batches, dslices)):
        # the resumed pass first: its buffers cannot reuse this batch's whole pass's
        got_logits, got_tape = forward_kernel(resumed, r_index, prefix[i], True, stop)
        logits, tape = forward_kernel(whole, w_index, X[idx], True)
        expect_h = tape.inputs[stop] if stop < L else tape.h_final
        assert same_bits(prefix[i], expect_h)
        assert got_tape.start == stop and len(got_tape.layers) == L - stop
        assert same_bits(got_logits, logits)
        # the running statistics the pass wrote, and nothing else
        assert same_bits(resumed.arena, whole.arena)
        assert same_bits(backward_kernel(resumed, r_index, got_tape, dslice),
                         backward_kernel(whole, w_index, tape, dslice))


@pytest.mark.parametrize("start", [1, 2])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_backward_task_refuses_a_resumed_tape_of_either_mode(mode, start):
    # the trainer resumes train passes internally; a checked backward takes
    # only a whole pass's tape
    grid = make_grid(L=2, seed=23)
    task = grid.tasks[0]
    freeze(grid, task)                       # lowest = L: a train pass may resume anywhere
    index = path_index(grid, task)
    x = np.random.default_rng(12).normal(size=(4, grid.d_in))
    h = forward_prefix(grid, index, x[None], start)[0]
    _, tape = forward_kernel(grid, index, h, mode == "train", start)
    assert tape.start == start
    with pytest.raises(ContractError, match="resumed pass"):
        backward_task(grid, task, tape, np.zeros((4, task.c)))


# ---------------------------------------------------------------------------
# training runs

def _grid(d_hid, rows, norm_mode="shared"):
    """Four 3-class tasks on explicit paths over a 3 x 4 grid. 14 samples a
    class leave 33 training samples: at batch size 8 an epoch is 3 batches
    of 8 and one of 9, the one-sample tail merged; at batch size 5, 6 of 5
    and one short batch of 3."""
    grid = ModuleGrid(3, 4, 5, d_hid, norm_mode=norm_mode, seed=7)
    for r in rows:
        register_task(grid, 3).path = Path(r)
    return attach_synthetic(grid, np.random.default_rng(29), n_per_class=14)


ROWS = {
    # task 1's lowest trainable layer is 1, task 2's 2, and task 3 reads
    # only frozen cells, so only its head trains (stops 0, 1, 2 and 3)
    "sequential": (((0, 1), (0, 1), (0, 1)), ((0, 1), (1, 2), (0, 1)),
                   ((0, 1), (0, 1), (0, 2)), ((0, 1), (1, 2), (0, 1))),
    # two phases of two tasks: after the first, tasks 2 and 3 learn from
    # layers 2 and 3 (the head), so the second phase's frozen prefix is
    # layers 0-1
    "phases": (((0, 1), (0, 1), (0, 1)), ((0, 1), (0, 2), (1, 2)),
               ((0, 1), (0, 1), (2, 3)), ((0, 1), (1, 2), (0, 1))),
}


def _run(schedule, d_hid, batch_size):
    grid = _grid(d_hid, ROWS[schedule])
    t = grid.tasks
    phases = (SCHEDULES["sequential"](t, 0) if schedule == "sequential" else
              [Phase("first", (t[0], t[1]), freeze=True), Phase("second", (t[2], t[3]))])
    report = train(grid, schedule, phases, t,
                   TrainConfig(epochs=3, batch_size=batch_size, batch_set_size=2, lr0=3e-3,
                               lr_halve_epochs=(2,), seed=5))
    body = report.to_json_dict()
    del body["wallclock_s"]
    return body, grid.arena.tobytes()


@pytest.mark.parametrize("batch_size", [5, 8])
@pytest.mark.parametrize("d_hid", [1, 4])
@pytest.mark.parametrize("schedule", ["sequential", "phases"])
def test_the_hoist_changes_no_bit_of_a_run(monkeypatch, schedule, d_hid, batch_size):
    stops, batch_calls = [], []
    real_prefix, real_batches = training.forward_prefix, training.next_batches

    def prefix_spy(grid, index, xs, stop):
        stops.append(stop)
        return real_prefix(grid, index, xs, stop)

    def batches_spy(ds, plan, count):
        batch_calls.append(count)
        return real_batches(ds, plan, count)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "forward_prefix", prefix_spy)
        mp.setattr(training, "next_batches", batches_spy)
        hoisted = _run(schedule, d_hid, batch_size)
    expected = {"sequential": {1, 2, 3}, "phases": {2}}[schedule]
    assert set(stops) == expected
    # one next_batches call per task and epoch, for all its batches
    assert batch_calls == [7 if batch_size == 5 else 4] * (3 * 4)
    monkeypatch.setattr(training, "_frozen_prefix", lambda grid, tasks: 0)
    assert _run(schedule, d_hid, batch_size) == hoisted


def test_runs_that_train_layer_0_never_take_the_stacked_pass(monkeypatch):
    def refuse(*args):
        raise AssertionError("forward_prefix called")

    monkeypatch.setattr(training, "forward_prefix", refuse)
    cfg = TrainConfig(epochs=2, batch_size=8, batch_set_size=2, lr0=3e-3, seed=5)
    grid = _grid(4, ROWS["sequential"])
    train_parallel(grid, grid.tasks, cfg)
    # with per-task norms every task's own norm instances train at layer 0
    grid = _grid(4, ROWS["sequential"], norm_mode="per-task")
    train_sequential(grid, grid.tasks, cfg)
    assert len(grid.frozen_tasks) == 4
