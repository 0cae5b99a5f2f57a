"""The stacked layer forward/backward against the per-module loop it
replaced, bit for bit.

`reference_forward`/`reference_backward` are the per-block Python loops the
grid ran before each layer's N path modules became one stacked computation.
They read and write each parameter by key (`get_param`/`set_param`); the
fused code gathers from and scatters into the arena. Both run on identically built
grids and must agree on every bit: logits, layer sums, module outputs,
running statistics (hence the whole arena) and every gradient the
backward returns, which covers the task's trainable surface only. The
same holds for the unchecked kernels the trainer runs per batch
(`forward_kernel`, `backward_kernel` on a task-width gradient), and the
in-slice loss kernel gives `softmax_xent_slice`'s slice.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from part import (
    ModuleGrid,
    Path,
    assign_random_path,
    backward_task,
    forward_task,
    freeze_path,
    freeze_task,
    register_task,
)
from part.net import (
    NORM_EPS,
    NORM_MOMENTUM,
    NORM_PARAMS,
    SHARED,
    backward_kernel,
    forward_kernel,
    path_index,
    trainable_keys,
)
from part.numerics import softmax_xent_kernel, softmax_xent_slice

from conftest import cells, randomize_norm_instances


def _cell(grid, l, m, nk):
    """W, b, gamma, beta, run_mean and run_var of one cell's norm instance nk."""
    return ([grid.get_param(("block", l, m, which)) for which in ("W", "b")]
            + [grid.get_param(("norm", l, m, nk, which)) for which in NORM_PARAMS])


def reference_forward(grid, task, x, mode):
    nk = grid.norm_key(task.id)
    stats_frozen_task = task.id in grid.frozen_tasks
    inputs, records = [], []
    h = x
    for l, row in enumerate(task.path.rows):
        inputs.append(h)
        recs = {}
        h_next = np.zeros((h.shape[0], grid.d_hid))
        for m in row:
            W, b, gamma, beta, run_mean, run_var = _cell(grid, l, m, nk)
            z = h @ W + b
            if mode == "train":
                mu = z.mean(axis=0)
                var = z.var(axis=0)
                inv_std = 1.0 / np.sqrt(var + NORM_EPS)
                zhat = (z - mu) * inv_std
                frozen_stats = ((l, m) in grid.frozen if nk == SHARED
                                else stats_frozen_task)
                if not frozen_stats:
                    grid.set_param(("norm", l, m, nk, "run_mean"),
                                   (1 - NORM_MOMENTUM) * run_mean + NORM_MOMENTUM * mu)
                    grid.set_param(("norm", l, m, nk, "run_var"),
                                   (1 - NORM_MOMENTUM) * run_var + NORM_MOMENTUM * var)
            else:
                inv_std = 1.0 / np.sqrt(run_var + NORM_EPS)
                zhat = (z - run_mean) * inv_std
            y = gamma * zhat + beta
            out = np.maximum(y, 0.0)
            recs[m] = dict(zhat=zhat, inv_std=inv_std, y=y, out=out)
            h_next += out
        records.append(recs)
        h = h_next
    start, end = task.slice
    logits = h @ grid.head_W[:, start:end] + grid.head_b[start:end]
    return logits, inputs, records, h


def reference_backward(grid, task, inputs, records, h_final, dlogits, mode):
    nk = grid.norm_key(task.id)
    start, end = task.slice
    dslice = dlogits[:, start:end]
    grads = {
        ("head", task.id, "W"): h_final.T @ dslice,
        ("head", task.id, "b"): dslice.sum(axis=0),
    }
    dh = dslice @ grid.head_W[:, start:end].T
    for l in range(grid.n_layers - 1, -1, -1):
        h_prev = inputs[l]
        dh_prev = np.zeros_like(h_prev)
        for m, rec in records[l].items():
            W, _, gamma, *_ = _cell(grid, l, m, nk)
            dy = dh * (rec["y"] > 0)
            grads[("norm", l, m, nk, "gamma")] = (dy * rec["zhat"]).sum(axis=0)
            grads[("norm", l, m, nk, "beta")] = dy.sum(axis=0)
            dzhat = dy * gamma
            if mode == "train":
                dz = rec["inv_std"] * (
                    dzhat
                    - dzhat.mean(axis=0)
                    - rec["zhat"] * (dzhat * rec["zhat"]).mean(axis=0)
                )
            else:
                dz = dzhat * rec["inv_std"]
            grads[("block", l, m, "W")] = h_prev.T @ dz
            grads[("block", l, m, "b")] = dz.sum(axis=0)
            dh_prev += dz @ W.T
        dh = dh_prev
    return grads


@st.composite
def layer_problem(draw):
    L = draw(st.integers(1, 3))
    M = draw(st.integers(1, 4))
    N = draw(st.integers(1, M))
    n_tasks = draw(st.integers(1, 3))
    return dict(
        L=L, M=M, N=N,
        d_in=draw(st.integers(2, 5)),
        d_hid=draw(st.integers(1, 5)),
        classes=draw(st.lists(st.integers(2, 4), min_size=n_tasks, max_size=n_tasks)),
        norm_mode=draw(st.sampled_from(["shared", "per-task"])),
        finished=draw(st.sets(st.integers(0, n_tasks - 1))),   # frozen paths and tasks
        target=draw(st.integers(0, n_tasks - 1)),
        mode=draw(st.sampled_from(["train", "eval"])),
        n=draw(st.integers(2, 6)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def build(problem):
    """A grid with random paths, norms and biases, some tasks finished
    (their paths and own holdings frozen). Deterministic in `problem`."""
    p = problem
    rng = np.random.default_rng(p["seed"])
    grid = ModuleGrid(p["L"], p["M"], p["d_in"], p["d_hid"], norm_mode=p["norm_mode"],
                      seed=p["seed"] % 1000)
    for c in p["classes"]:
        register_task(grid, c).path = assign_random_path(p["M"], p["N"], p["L"], rng)
    for l, m in cells(grid):
        grid.set_param(("block", l, m, "b"), rng.normal(0.0, 0.5, p["d_hid"]))
    randomize_norm_instances(grid, rng)
    head_b = rng.normal(size=grid.c_total)
    for t in grid.tasks:
        grid.set_param(("head", t.id, "b"), head_b[slice(*t.slice)])
    for tid in sorted(p["finished"]):
        freeze_path(grid, grid.tasks[tid].path)
        freeze_task(grid, grid.tasks[tid])
    task = grid.tasks[p["target"]]
    x = rng.normal(size=(p["n"], p["d_in"]))
    dlogits = rng.normal(size=(p["n"], grid.c_total))
    return grid, task, x, dlogits


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(layer_problem())
def test_fused_layer_matches_per_module_loop_bit_for_bit(problem):
    mode = problem["mode"]
    ref_grid, ref_task, x, dlogits = build(problem)
    logits_ref, inputs, records, h_final = reference_forward(ref_grid, ref_task, x, mode)
    grads_ref = reference_backward(ref_grid, ref_task, inputs, records, h_final, dlogits, mode)

    grid, task, x2, dlogits2 = build(problem)
    assert same_bits(x, x2) and same_bits(dlogits, dlogits2)
    logits, tape = forward_task(grid, task, x, mode=mode)
    grads = backward_task(grid, task, tape, dlogits)

    assert same_bits(logits, logits_ref)
    assert same_bits(tape.h_final, h_final)
    for l, recs in enumerate(records):
        assert same_bits(tape.layer_sum(l), sum(r["out"] for r in recs.values()))
        outputs = tape.module_outputs(l)
        assert list(outputs) == list(recs)
        for m, rec in recs.items():
            assert same_bits(outputs[m], rec["out"])
    # running statistics written back (or left alone when frozen or in eval)
    assert same_bits(grid.arena, ref_grid.arena)

    # only the trainable surface comes back, in trainable_keys order, and
    # every gradient returned is the reference's, bit for bit
    keys = trainable_keys(grid, task)
    assert list(grads) == keys
    for key, g in grads.items():
        assert same_bits(g, grads_ref[key]), key

    # trainable_keys is path order filtered: per layer and module W, b,
    # gamma, beta; then the head slice
    nk = grid.norm_key(task.id)
    order = [(kind, l, m, *([nk] if kind == "norm" else []), which)
             for l, m in task.path.modules()
             for kind, which in (("block", "W"), ("block", "b"),
                                 ("norm", "gamma"), ("norm", "beta"))]
    order += [("head", task.id, "W"), ("head", task.id, "b")]
    assert keys == [k for k in order if k in set(keys)]

    # what the trainer hands the optimizer: the flat vector as it is, the
    # tensors at the arena positions of the task's Segments
    index = path_index(grid, task)
    assert index.trainable_keys == keys
    layers = [k[1] for k in keys if k[0] != "head"]
    assert index.lowest == min(layers, default=grid.n_layers)
    assert index.learns == tuple(l in layers for l in range(grid.n_layers))
    expected = np.concatenate([np.zeros(0)] + [grads_ref[k].ravel() for k in keys])
    assert same_bits(grads.flat, expected)
    positions = np.arange(grid.arena.size)
    assert same_bits(index.segments.index,
                     np.concatenate([np.zeros(0, dtype=np.int64)]
                                    + [grid._view(positions, k).ravel() for k in keys]))

    # the kernels as the trainer runs them, on a third grid: the same bits,
    # with the backward fed the task's slice of dlogits as its own array (as
    # the loss kernel returns it; backward_task above passes a view)
    k_grid, k_task, _, _ = build(problem)
    k_index = path_index(k_grid, k_task)
    logits_k, *trace = forward_kernel(k_grid, k_index, x, mode == "train")
    inputs_k, layers_k, h_k = trace
    assert same_bits(logits_k, logits_ref) and same_bits(h_k, h_final)
    for l, recs in enumerate(records):
        assert same_bits(inputs_k[l], inputs[l])
        assert same_bits(layers_k[l][-1], np.stack([r["out"] for r in recs.values()]))
    assert same_bits(k_grid.arena, ref_grid.arena)
    view = dlogits[:, slice(*task.slice)]
    own = backward_kernel(k_grid, k_index, *trace, view.copy(), mode == "train")
    head_W = ("head", task.id, "W")
    if problem["d_hid"] == 1 and head_W in grads:
        # h_final.T @ dslice is then a vector-matrix product, which numpy's
        # BLAS rounds differently for a contiguous dslice than for a view
        # with a wider row: the head W gradient agrees to the dot product's
        # rounding bound, everything else bit for bit
        offset, shape = index.layout[head_W]
        at = slice(offset, offset + shape[0] * shape[1])
        bound = 2 * len(x) * np.finfo(float).eps * (np.abs(h_final.T) @ np.abs(view))
        assert np.all(np.abs(own[at] - expected[at]) <= bound.ravel())
        own[at] = expected[at]
    assert same_bits(own, expected)


def _frozen_below(rows_done, rows_task, seed):
    """A shared-norm grid on which a finished task froze its path, and the
    task that trains next on `rows_task`."""
    grid = ModuleGrid(len(rows_task), 4, 5, 6, norm_mode="shared", seed=seed)
    done, task = register_task(grid, 3), register_task(grid, 2)
    done.path, task.path = Path(rows_done), Path(rows_task)
    freeze_path(grid, done.path)
    freeze_task(grid, done)
    return grid, task


def _train_step_inputs(grid, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(5, grid.d_in)), rng.normal(size=(5, grid.c_total))


def test_backward_returns_only_the_head_on_a_fully_frozen_path():
    rows = ((0, 1), (1, 3), (0, 2))
    grid, task = _frozen_below(rows, rows, seed=3)
    x, dlogits = _train_step_inputs(grid, 4)
    _, tape = forward_task(grid, task, x, mode="train")
    grads = backward_task(grid, task, tape, dlogits)
    assert list(grads) == [("head", task.id, "W"), ("head", task.id, "b")]
    assert grads.flat.size == 6 * 2 + 2
    assert path_index(grid, task).lowest == grid.n_layers


def test_backward_stops_at_the_lowest_trainable_layer():
    # shared norms: a layer whose path cells are all frozen trains nothing
    done = ((0, 1), (0, 1), (0, 1), (0, 1))
    rows = ((0, 1), (0, 1), (2, 3), (0, 1))
    grid, task = _frozen_below(done, rows, seed=5)
    index = path_index(grid, task)
    assert index.lowest == 2
    assert index.learns == (False, False, True, False)
    x, dlogits = _train_step_inputs(grid, 6)
    _, tape = forward_task(grid, task, x, mode="train")
    grads = backward_task(grid, task, tape, dlogits)
    assert list(grads) == trainable_keys(grid, task)
    assert {key[1] for key in grads if key[0] != "head"} == {2}

    ref_grid, ref_task = _frozen_below(done, rows, seed=5)
    _, inputs, records, h_final = reference_forward(ref_grid, ref_task, x, "train")
    expected = reference_backward(ref_grid, ref_task, inputs, records, h_final, dlogits, "train")
    for key, g in grads.items():
        assert same_bits(g, expected[key]), key

    k_grid, k_task = _frozen_below(done, rows, seed=5)
    index = path_index(k_grid, k_task)
    _, *trace = forward_kernel(k_grid, index, x, True)
    dslice = dlogits[:, slice(*task.slice)].copy()
    assert same_bits(backward_kernel(k_grid, index, *trace, dslice, True), grads.flat)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 3), st.integers(2, 5), st.integers(0, 3),
       st.floats(0.1, 50.0), st.integers(0, 2**32 - 1))
def test_loss_kernel_is_the_slice_of_softmax_xent_slice(n, before, width, after, scale, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=scale, size=(n, before + width + after))
    labels = rng.integers(0, width, size=n)
    sl = (before, before + width)
    loss, dlogits = softmax_xent_slice(logits, labels, sl)
    loss_k, dz = softmax_xent_kernel(logits[:, slice(*sl)].copy(), labels)
    assert same_bits(loss_k, loss)
    assert same_bits(dz, dlogits[:, slice(*sl)])
    outside = np.delete(dlogits, np.s_[slice(*sl)], axis=1)
    assert outside.tobytes() == bytes(outside.nbytes)    # +0.0 everywhere
