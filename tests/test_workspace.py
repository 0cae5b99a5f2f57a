"""Workspaces: a train step's arrays, built once per pass shape and reused.

A pass through a reused `Workspace` gives the bits of a pass through a
fresh one, whatever the workspace held before: another task's pass of the
same shape, another batch, or NaN on its first build. A pass's tape is
the workspace it ran in: the trainer's backward reuses that workspace's
arrays, while a tape that a checked entry point returns is its own, and
neither it nor a gradient taken from it is ever written again. The trainer
keeps only the current phase's workspaces, one per pass shape, shared by
the tasks of that shape.
"""

import copy
import gc
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from part import (
    ModuleGrid,
    TrainConfig,
    assign_random_path,
    backward_task,
    forward_task,
    gen_synthetic_task,
    register_task,
    train_parallel,
    train_sequential,
    trainable_keys,
)
from part import training
from part.net import Workspace, _backward_buffers, backward_kernel, forward_kernel, path_index

from conftest import attach_synthetic, make_grid, randomize_norm_instances
from test_fused_layer import same_bits
from test_frozen_prefix import ROWS, _grid


def _float_arrays(obj):
    """Every float array in obj, through lists and tuples."""
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64:
            yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _float_arrays(item)


@st.composite
def reuse_problem(draw):
    L = draw(st.integers(1, 3))
    M = draw(st.integers(1, 4))
    norm_mode = draw(st.sampled_from(["shared", "per-task"]))
    # a pass that the backward reads resumes no higher than the lowest
    # trainable layer: with shared norms the layers below `start` are
    # frozen; per-task norms train at every layer, so those passes start at 0
    start = draw(st.integers(0, L)) if norm_mode == "shared" else 0
    return dict(L=L, M=M, N=draw(st.integers(1, M)), d_in=draw(st.integers(2, 5)),
                d_hid=draw(st.sampled_from([1, 1, 2, 3, 5])), c=draw(st.integers(2, 4)),
                norm_mode=norm_mode, train=draw(st.booleans()), start=start,
                n=draw(st.integers(2, 6)), seed=draw(st.integers(0, 2**32 - 1)))


def _build(p):
    """Two tasks of one pass shape on a grid with random norms and head
    biases, the layers below `start` frozen; each pass's input at `start`
    and loss gradient. Deterministic in `p`."""
    rng = np.random.default_rng(p["seed"])
    grid = ModuleGrid(p["L"], p["M"], p["d_in"], p["d_hid"], norm_mode=p["norm_mode"],
                      seed=p["seed"] % 1000)
    for _ in range(2):
        register_task(grid, p["c"]).path = assign_random_path(p["M"], p["N"], p["L"], rng)
    randomize_norm_instances(grid, rng)
    grid.set_param(("head", 0, "b"), rng.normal(size=p["c"]))
    grid.set_param(("head", 1, "b"), rng.normal(size=p["c"]))
    grid.frozen |= {(l, m) for l in range(p["start"]) for m in range(p["M"])}
    fan_in = p["d_in"] if p["start"] == 0 else p["d_hid"]
    # task 1's pass, then two batches of task 0
    passes = [(grid.tasks[t], rng.normal(size=(p["n"], fan_in)), rng.normal(size=(p["n"], p["c"])))
              for t in (1, 0, 0)]
    return grid, passes


@settings(max_examples=60, deadline=None)
@given(reuse_problem())
def test_a_reused_workspace_gives_a_fresh_passs_bits(p):
    train, start = p["train"], p["start"]
    fresh_grid, fresh_passes = _build(p)
    grid, passes = _build(p)
    index = path_index(grid, grid.tasks[0])
    assert index.lowest >= start
    fan_in = p["d_in"] if start == 0 else p["d_hid"]
    ws = Workspace(grid, index, (p["n"], fan_in), train, start)
    for a in _float_arrays(list(vars(ws).values())):
        a.fill(np.nan)
    for k, ((f_task, x, dslice), (task, _, _)) in enumerate(zip(fresh_passes, passes)):
        f_index = path_index(fresh_grid, f_task)
        f_logits, f_tape = forward_kernel(fresh_grid, f_index, x, train, start)
        f_grad = backward_kernel(fresh_grid, f_index, f_tape, dslice)

        t_index = path_index(grid, task)
        logits, tape = forward_kernel(grid, t_index, x, train, start, ws=ws)
        if k == 0:
            # the backward's own arrays, NaN on their first build too
            forward = list(_float_arrays(list(vars(ws).values())))
            for a in _float_arrays(_backward_buffers(tape)):
                if not any(np.shares_memory(a, f) for f in forward):
                    a.fill(np.nan)
        grad = backward_kernel(grid, t_index, tape, dslice)

        assert same_bits(logits, f_logits)
        assert same_bits(grid.arena, fresh_grid.arena)      # the running statistics
        assert same_bits(grad, f_grad)
        assert len(tape.layers) == len(f_tape.layers) == p["L"] - start
        for got, want in zip(tape.layers, f_tape.layers):
            assert all(same_bits(a, b) for a, b in zip(got, want))
        assert all(same_bits(a, b) for a, b in zip(tape.inputs, f_tape.inputs))
        assert same_bits(tape.h_final, f_tape.h_final)
        assert same_bits(tape.head_W, f_tape.head_W)


def test_the_trainers_backward_returns_its_workspaces_work_vector():
    grid = make_grid(L=3, M=4, N=2, d_in=6, seed=47, class_counts=(3, 3))
    task, other = grid.tasks
    index = path_index(grid, task)
    assert index.trainable is None                      # every tensor trains
    ws = training._workspace({}, grid, task, 8, 0)
    rng = np.random.default_rng(47)
    grads = []
    for t in (task, other, task):
        t_index = path_index(grid, t)
        logits, tape = forward_kernel(grid, t_index, rng.normal(size=(8, 6)), True, ws=ws)
        assert tape is ws and logits is ws.logits and tape.task_id == t.id
        grads.append(backward_kernel(grid, t_index, tape, rng.normal(size=(8, t.c))))
    work = _backward_buffers(ws)[0]
    assert all(grad is work for grad in grads)


def test_backward_task_calls_on_one_tape_share_no_memory():
    grid = make_grid(L=3, M=4, N=2, d_in=6, seed=53, class_counts=(3, 3))
    task = grid.tasks[0]
    rng = np.random.default_rng(53)
    _, tape = forward_task(grid, task, rng.normal(size=(8, 6)), mode="train")
    dslice = rng.normal(size=(8, task.c))
    first, second = (backward_task(grid, task, tape, dslice) for _ in range(2))
    assert list(first) == list(second) == trainable_keys(grid, task)
    for key in first:
        assert same_bits(first[key], second[key]), key
        assert not np.shares_memory(first[key], second[key]), key


def test_a_forward_task_tape_is_never_written_again():
    grid = make_grid(L=3, M=4, N=2, d_in=6, seed=41, class_counts=(3, 3))
    attach_synthetic(grid, np.random.default_rng(41), n_per_class=20)
    task, other = grid.tasks
    x = task.train_ds.features[:8]
    logits, tape = forward_task(grid, task, x, mode="train")
    grads = backward_task(grid, task, tape, np.full((8, task.c), 0.1))
    kept = copy.deepcopy((logits, tape.inputs, tape.layers, tape.h_final, tape.head_W, grads))

    for t in (task, other):
        for mode in ("train", "eval"):
            forward_task(grid, t, t.train_ds.features[8:16], mode=mode)
    train_parallel(grid, grid.tasks, TrainConfig(epochs=2, batch_size=8, lr0=1e-2, seed=3))
    assert grid.version > tape.grid_version

    now = (logits, tape.inputs, tape.layers, tape.h_final, tape.head_W)
    assert same_bits(now[0], kept[0])
    for l, (a, b) in enumerate(zip(now[1], kept[1])):
        assert same_bits(a, b), l
    for l, (a, b) in enumerate(zip(now[2], kept[2])):
        assert all(same_bits(u, v) for u, v in zip(a, b)), l
    assert same_bits(now[3], kept[3]) and same_bits(now[4], kept[4])
    assert all(same_bits(grads[key], kept[5][key]) for key in grads)


def test_the_trainer_holds_only_the_current_phases_workspaces(monkeypatch):
    # stops 0, 1, 2 and 3 and batches of 8 and 9 samples: 8 pass shapes,
    # two in each task's phase
    seen = {}           # task id -> weak references to its workspaces
    real = training.forward_kernel

    def spy(grid, index, x, train, start=0, ws=None):
        if train:
            for tid, refs in seen.items():
                if tid < index.task_id:     # an earlier phase's
                    gc.collect()
                    assert all(ref() is None for ref in refs), tid
            refs = seen.setdefault(index.task_id, [])
            if all(ref() is not ws for ref in refs):
                refs.append(weakref.ref(ws))
        return real(grid, index, x, train, start, ws)

    monkeypatch.setattr(training, "forward_kernel", spy)
    grid = _grid(4, ROWS["sequential"])
    train_sequential(grid, grid.tasks, TrainConfig(epochs=2, batch_size=8, batch_set_size=2,
                                                   lr0=3e-3, seed=5))
    assert {tid: len(refs) for tid, refs in seen.items()} == {0: 2, 1: 2, 2: 2, 3: 2}


def test_parallel_tasks_of_one_shape_share_one_workspace(monkeypatch):
    built = []

    class Counting(Workspace):
        def __init__(self, grid, index, shape, train, start=0, stop=None, x=None):
            super().__init__(grid, index, shape, train, start, stop, x)
            built.append((grid.tasks[index.task_id].c, shape))

    monkeypatch.setattr(training, "Workspace", Counting)
    grid = make_grid(L=2, M=4, N=2, d_in=6, seed=43, class_counts=(4, 4, 2))
    rng = np.random.default_rng(43)
    # 32 training samples each, so an epoch is batches of 10, 10, 10 and 2
    for task, per_class in zip(grid.tasks, (10, 10, 20)):
        task.train_ds, task.val_ds = gen_synthetic_task(rng, task.c, per_class, 6, 6.0)
        assert task.train_ds.n == 32
    train_parallel(grid, grid.tasks, TrainConfig(epochs=2, batch_size=10, lr0=1e-2, seed=3))
    # one per pass shape: the two 4-class tasks share theirs
    assert sorted(built) == [(2, (2, 6)), (2, (10, 6)), (4, (2, 6)), (4, (10, 6))]
