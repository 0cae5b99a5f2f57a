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
(`forward_kernel`, `backward_kernel`), and the checked loss gives the loss
kernel's bits. Every gradient is the task-width (n, c) one the loss returns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from part import (
    ModuleGrid,
    Path,
    assign_random_path,
    backward_task,
    forward_task,
    freeze,
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

from conftest import randomize_norm_instances


def _cell(grid, l, m, nk):
    """W, gamma, beta, run_mean and run_var of one cell's norm instance nk."""
    return ([grid.get_param(("block", l, m, "W"))]
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
            W, gamma, beta, run_mean, run_var = _cell(grid, l, m, nk)
            z = h @ W
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


def reference_backward(grid, task, inputs, records, h_final, dslice, mode):
    nk = grid.norm_key(task.id)
    start, end = task.slice
    grads = {
        ("head", task.id, "W"): h_final.T @ dslice,
        ("head", task.id, "b"): dslice.sum(axis=0),
    }
    dh = dslice @ grid.head_W[:, start:end].T
    for l in range(grid.n_layers - 1, -1, -1):
        h_prev = inputs[l]
        dh_prev = np.zeros_like(h_prev)
        for m, rec in records[l].items():
            W, gamma, *_ = _cell(grid, l, m, nk)
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
    """A grid with random paths, norms and head biases, some tasks finished
    (their paths and own holdings frozen). Deterministic in `problem`."""
    p = problem
    rng = np.random.default_rng(p["seed"])
    grid = ModuleGrid(p["L"], p["M"], p["d_in"], p["d_hid"], norm_mode=p["norm_mode"],
                      seed=p["seed"] % 1000)
    for c in p["classes"]:
        register_task(grid, c).path = assign_random_path(p["M"], p["N"], p["L"], rng)
    randomize_norm_instances(grid, rng)
    head_b = rng.normal(size=grid.c_total)
    for t in grid.tasks:
        grid.set_param(("head", t.id, "b"), head_b[slice(*t.slice)])
    for tid in sorted(p["finished"]):
        freeze(grid, grid.tasks[tid])
    task = grid.tasks[p["target"]]
    x = rng.normal(size=(p["n"], p["d_in"]))
    dslice = rng.normal(size=(p["n"], task.c))
    return grid, task, x, dslice


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_reference(make, mode):
    """The checked entry points and the kernels against the per-module
    reference, bit for bit. `make()` builds (grid, task, x, dslice) afresh,
    the same on every call; each side runs on its own grid."""
    ref_grid, ref_task, x, dslice = make()
    logits_ref, inputs, records, h_final = reference_forward(ref_grid, ref_task, x, mode)
    grads_ref = reference_backward(ref_grid, ref_task, inputs, records, h_final, dslice, mode)

    grid, task, x2, dslice2 = make()
    assert same_bits(x, x2) and same_bits(dslice, dslice2)
    logits, tape = forward_task(grid, task, x, mode=mode)
    grads = backward_task(grid, task, tape, dslice)

    assert same_bits(logits, logits_ref)
    assert same_bits(tape.h_final, h_final)
    for l, recs in enumerate(records):
        assert same_bits(tape.layer_sum(l), sum(r["out"] for r in recs.values()))
        outputs = tape.module_outputs(l)
        assert list(outputs) == list(recs)
        for m, rec in recs.items():
            assert same_bits(outputs[m], rec["out"])
            assert outputs[m].flags.c_contiguous
    # running statistics written back (or left alone when frozen or in eval)
    assert same_bits(grid.arena, ref_grid.arena)

    # only the trainable surface comes back, in trainable_keys order, and
    # every gradient returned is the reference's, bit for bit
    keys = trainable_keys(grid, task)
    assert list(grads) == keys
    for key, g in grads.items():
        assert same_bits(g, grads_ref[key]), key

    # trainable_keys is path order filtered: per layer and module W, gamma,
    # beta; then the head slice
    nk = grid.norm_key(task.id)
    order = [(kind, l, m, *([nk] if kind == "norm" else []), which)
             for l, m in task.path.modules()
             for kind, which in (("block", "W"), ("norm", "gamma"), ("norm", "beta"))]
    order += [("head", task.id, "W"), ("head", task.id, "b")]
    assert keys == [k for k in order if k in set(keys)]

    # what the trainer hands the optimizer: the flat vector as it is, the
    # tensors at the arena positions of the task's Segments
    index = path_index(grid, task)
    assert [k for k, t in zip(index.keys, index.trains) if t] == keys
    layers = [k[1] for k in keys if k[0] != "head"]
    assert index.lowest == min(layers, default=grid.n_layers)
    assert index.learns == tuple(l in layers for l in range(grid.n_layers))
    positions = np.arange(grid.arena.size)
    assert same_bits(index.segments.index,
                     np.concatenate([np.zeros(0, dtype=np.int64)]
                                    + [grid._view(positions, k).ravel() for k in keys]))

    # the kernels as the trainer runs them, on a third grid: the same bits,
    # and the flat vector holds the gradients in trainable_keys order
    k_grid, k_task, _, _ = make()
    k_index = path_index(k_grid, k_task)
    logits_k, tape_k = forward_kernel(k_grid, k_index, x, mode == "train")
    assert same_bits(logits_k, logits_ref) and same_bits(tape_k.h_final, h_final)
    for l, recs in enumerate(records):
        assert same_bits(tape_k.inputs[l], inputs[l])
        assert same_bits(tape_k.layers[l].out, np.stack([r["out"] for r in recs.values()]))
    assert same_bits(k_grid.arena, ref_grid.arena)
    expected = np.concatenate([np.zeros(0)] + [grads_ref[k].ravel() for k in keys])
    assert same_bits(backward_kernel(k_grid, k_index, tape_k, dslice), expected)


@settings(max_examples=40, deadline=None)
@given(layer_problem())
def test_fused_layer_matches_per_module_loop_bit_for_bit(problem):
    assert_matches_reference(lambda: build(problem), problem["mode"])


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("N", [1, 3])
@pytest.mark.parametrize("n", [2, 4, 6, 9, 16])
@pytest.mark.parametrize("d_in", [1, 2, 5])
@pytest.mark.parametrize("d_hid", [1, 2])
def test_narrow_layers_match_per_module_loop_bit_for_bit(d_hid, d_in, n, N, mode):
    # narrow shapes are where a layout slip rounds differently: a module's
    # lone column (d_hid = 1) is summed pairwise from 9 samples up, a
    # single-sample or single-column product takes another BLAS route
    problem = dict(L=2, M=4, N=N, d_in=d_in, d_hid=d_hid, classes=[3, 2], norm_mode="shared",
                   finished=set(), target=1, mode=mode, n=n,
                   seed=1000 * d_hid + 100 * d_in + 10 * n + N)
    assert_matches_reference(lambda: build(problem), mode)


def test_analysis_sized_eval_pass_matches_per_module_loop_bit_for_bit():
    problem = dict(L=4, M=6, N=3, d_in=8, d_hid=16, classes=[4, 4], norm_mode="shared",
                   finished=set(), target=0, mode="eval", n=400, seed=400)
    assert_matches_reference(lambda: build(problem), "eval")


def _uneven_rows(norm_mode):
    """Path rows of widths 3, 1 and 2; a finished task froze (0, 1) and
    (2, 3), one cell of the first and of the last row."""
    grid = ModuleGrid(3, 4, 5, 3, norm_mode=norm_mode, seed=11)
    done, task = register_task(grid, 2), register_task(grid, 3)
    done.path = Path(((1,), (2,), (3,)))
    task.path = Path(((0, 1, 2), (1,), (0, 3)))
    rng = np.random.default_rng(12)
    randomize_norm_instances(grid, rng)
    freeze(grid, done)
    return grid, task, rng.normal(size=(7, 5)), rng.normal(size=(7, task.c))


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("norm_mode", ["shared", "per-task"])
def test_uneven_rows_with_a_frozen_cell_match_per_module_loop(norm_mode, mode):
    assert_matches_reference(lambda: _uneven_rows(norm_mode), mode)

    grid, task, x, _ = _uneven_rows(norm_mode)
    index = path_index(grid, task)
    nk = grid.norm_key(task.id)
    stats = {(l, m): [grid.get_param(("norm", l, m, nk, s)) for s in ("run_mean", "run_var")]
             for l, m in task.path.modules()}
    forward_kernel(grid, index, x, mode == "train")
    for (l, m), before in stats.items():
        tracks = mode == "train" and not (nk == SHARED and (l, m) in grid.frozen)
        after = [grid.get_param(("norm", l, m, nk, s)) for s in ("run_mean", "run_var")]
        assert all(same_bits(a, b) for a, b in zip(after, before)) != tracks, (l, m)
    # shared norms: the frozen cells' statistics drop out of the scatter
    assert (index.live is None) == (nk != SHARED)


def _frozen_below(rows_done, rows_task, seed):
    """A shared-norm grid on which a finished task froze its path, and the
    task that trains next on `rows_task`."""
    grid = ModuleGrid(len(rows_task), 4, 5, 6, norm_mode="shared", seed=seed)
    done, task = register_task(grid, 3), register_task(grid, 2)
    done.path, task.path = Path(rows_done), Path(rows_task)
    freeze(grid, done)
    return grid, task


def _train_step_inputs(grid, task, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(5, grid.d_in)), rng.normal(size=(5, task.c))


def test_backward_returns_only_the_head_on_a_fully_frozen_path():
    rows = ((0, 1), (1, 3), (0, 2))
    grid, task = _frozen_below(rows, rows, seed=3)
    x, dslice = _train_step_inputs(grid, task, 4)
    _, tape = forward_task(grid, task, x, mode="train")
    grads = backward_task(grid, task, tape, dslice)
    assert list(grads) == [("head", task.id, "W"), ("head", task.id, "b")]
    index = path_index(grid, task)
    assert backward_kernel(grid, index, tape, dslice).size == 6 * 2 + 2
    assert index.lowest == grid.n_layers


def test_backward_stops_at_the_lowest_trainable_layer():
    # shared norms: a layer whose path cells are all frozen trains nothing
    done = ((0, 1), (0, 1), (0, 1), (0, 1))
    rows = ((0, 1), (0, 1), (2, 3), (0, 1))
    grid, task = _frozen_below(done, rows, seed=5)
    index = path_index(grid, task)
    assert index.lowest == 2
    assert index.learns == (False, False, True, False)
    x, dslice = _train_step_inputs(grid, task, 6)
    _, tape = forward_task(grid, task, x, mode="train")
    grads = backward_task(grid, task, tape, dslice)
    assert list(grads) == trainable_keys(grid, task)
    assert {key[1] for key in grads if key[0] != "head"} == {2}

    ref_grid, ref_task = _frozen_below(done, rows, seed=5)
    _, inputs, records, h_final = reference_forward(ref_grid, ref_task, x, "train")
    expected = reference_backward(ref_grid, ref_task, inputs, records, h_final, dslice, "train")
    for key, g in grads.items():
        assert same_bits(g, expected[key]), key

    k_grid, k_task = _frozen_below(done, rows, seed=5)
    index = path_index(k_grid, k_task)
    _, k_tape = forward_kernel(k_grid, index, x, True)
    assert same_bits(backward_kernel(k_grid, index, k_tape, dslice),
                     np.concatenate([expected[k].ravel() for k in grads]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 3), st.integers(2, 5), st.integers(0, 3),
       st.floats(0.1, 50.0), st.integers(0, 2**32 - 1))
def test_checked_loss_equals_the_kernel_bit_for_bit(n, before, width, after, scale, seed):
    # the checked loss takes a column view of wider logits as it is; the
    # kernel, as the trainer runs it, a contiguous copy
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=scale, size=(n, before + width + after))
    labels = rng.integers(0, width, size=n)
    view = logits[:, before:before + width]
    loss, dslice = softmax_xent_slice(view, labels)
    loss_k, dz = softmax_xent_kernel(view.copy(), labels)
    assert same_bits(loss_k, loss)
    assert same_bits(dz, dslice)
