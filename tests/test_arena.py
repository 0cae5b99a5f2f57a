"""The flat parameter arena and the fused Adam step built on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from part import (
    AdamState,
    InputError,
    ModuleGrid,
    NumericError,
    TrainConfig,
    adam_step,
    freeze_path,
    load_checkpoint,
    register_task,
    save_checkpoint,
    train_parallel,
)
from part.net import trainable_keys, trainable_segments
from part.numerics import FlatAdam, Segments

from conftest import attach_synthetic, make_grid


def arena_arrays(grid):
    """Every block, norm and head array of the grid."""
    for layer in grid.layers:
        for blk in layer:
            yield blk.W
            yield blk.b
            for inst in blk.norms.values():
                yield from (inst.gamma, inst.beta, inst.run_mean, inst.run_var)
    yield grid.head_W
    yield grid.head_b


def all_keys(grid):
    """Every addressable tensor: stored block and norm tensors, head slices."""
    keys = []
    for l, layer in enumerate(grid.layers):
        for m, blk in enumerate(layer):
            keys += [("block", l, m, "W"), ("block", l, m, "b")]
            for nk in blk.norms:
                keys += [("norm", l, m, nk, w)
                         for w in ("gamma", "beta", "run_mean", "run_var")]
    for t in grid.tasks:
        keys += [("head", t.id, "W"), ("head", t.id, "b")]
    return keys


@pytest.mark.parametrize("norm_mode", ["shared", "per-task"])
def test_arrays_are_views_into_the_arena_in_checkpoint_order(norm_mode):
    grid = make_grid(L=2, M=3, N=2, norm_mode=norm_mode, seed=80, randomize_norms=True)
    arena = grid.arena
    arrays = list(arena_arrays(grid))
    assert all(np.shares_memory(a, arena) for a in arrays)
    np.testing.assert_array_equal(arena, np.concatenate([a.ravel() for a in arrays]))


def test_assignment_and_slice_updates_write_through():
    grid = make_grid(seed=81)
    arena = grid.arena
    blk = grid.block(1, 2)
    new_W = np.random.default_rng(0).normal(size=blk.W.shape)
    blk.W = new_W
    inst = next(iter(blk.norms.values()))
    inst.gamma = inst.gamma + 0.5
    tb = grid.tasks[1]
    s, e = tb.slice
    grid.head_W[:, s:e] += 3.0
    assert np.shares_memory(blk.W, arena) and np.shares_memory(inst.gamma, arena)
    assert np.shares_memory(grid.head_W, arena)
    np.testing.assert_array_equal(grid.get_param(("block", 1, 2, "W")), new_W)
    np.testing.assert_array_equal(grid.get_param(("norm", 1, 2, -1, "gamma")), inst.gamma)
    np.testing.assert_array_equal(grid.get_param(("head", tb.id, "W")), grid.head_W[:, s:e])
    assert grid.arena is arena


def test_assignment_cannot_change_a_shape():
    grid = make_grid(seed=82)
    with pytest.raises(InputError):
        grid.block(0, 0).W = np.zeros((2, 2))
    with pytest.raises(InputError):
        grid.set_param(("block", 0, 0, "b"), np.zeros(3))
    with pytest.raises(InputError):
        grid.get_param(("block", 9, 0, "W"))


def test_registration_never_lays_out_the_arena(monkeypatch):
    layouts = []
    real = ModuleGrid._lay_out
    monkeypatch.setattr(ModuleGrid, "_lay_out", lambda self: layouts.append(1) or real(self))
    grid = make_grid(M=4, class_counts=(3,) * 8, norm_mode="per-task", seed=83)
    assert layouts == []
    attach_synthetic(grid, np.random.default_rng(1), n_per_class=8)
    train_parallel(grid, grid.tasks, TrainConfig(epochs=1, seed=0))
    assert layouts == [1]


@pytest.mark.parametrize("norm_mode", ["shared", "per-task"])
def test_registering_after_training_keeps_every_value(norm_mode, tmp_path):
    grid = make_grid(L=2, M=4, N=2, norm_mode=norm_mode, seed=84, class_counts=(3, 3))
    attach_synthetic(grid, np.random.default_rng(2), n_per_class=10)
    train_parallel(grid, grid.tasks, TrainConfig(epochs=2, lr0=1e-2, seed=0))
    before = {key: grid.get_param(key) for key in all_keys(grid)}
    old_arena = grid.arena
    register_task(grid, 3)
    assert grid.arena is not old_arena
    assert all(np.shares_memory(a, grid.arena) for a in arena_arrays(grid))
    for key, value in before.items():
        np.testing.assert_array_equal(grid.get_param(key), value)
    save_checkpoint(grid, tmp_path / "g.part")
    np.testing.assert_array_equal(load_checkpoint(tmp_path / "g.part").arena, grid.arena)


def test_trainable_segments_are_cached_until_a_freeze():
    grid = make_grid(L=2, M=4, N=2, seed=85)
    ta, tb = grid.tasks
    keys, seg = trainable_segments(grid, tb)
    assert keys == trainable_keys(grid, tb)
    assert trainable_segments(grid, tb)[1] is seg
    positions = np.arange(grid.arena.size)
    np.testing.assert_array_equal(
        seg.index, np.concatenate([grid._view(positions, k).ravel() for k in keys]))
    freeze_path(grid, ta.path)
    keys2, seg2 = trainable_segments(grid, tb)
    assert keys2 == trainable_keys(grid, tb)
    assert seg2 is not seg


def test_nonfinite_training_fails_loudly():
    # features x 1e150 at lr 1e3 overflowed silently into a chance-level run
    grid = make_grid(L=2, M=4, N=2, d_in=6, seed=86, class_counts=(3, 3))
    attach_synthetic(grid, np.random.default_rng(3), n_per_class=20, margin=5.0)
    for t in grid.tasks:
        t.train_ds.features *= 1e150
        t.val_ds.features *= 1e150
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match=r"task \d .*epoch 1"):
            train_parallel(grid, grid.tasks, TrainConfig(epochs=3, lr0=1e3, seed=0))


# ---------------------------------------------------------------------------
# fused Adam step == public adam_step looped over tensors

@st.composite
def flat_problem(draw):
    """A flat vector holding 1-D tensors plus a 2-D head whose column
    slices are tensors, and a few steps over random tensor subsets."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    rows = draw(st.integers(1, 3))
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n_tensors = len(sizes) + len(widths)
    steps = draw(st.lists(
        st.tuples(st.sets(st.integers(0, n_tensors - 1), min_size=1),   # tensors stepped
                  st.sets(st.integers(0, n_tensors - 1)),               # zero gradients
                  st.floats(1e-4, 1.0)),                                 # lr
        min_size=1, max_size=5))
    return sizes, rows, widths, steps, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(flat_problem())
def test_fused_step_matches_per_tensor_adam_step(problem):
    sizes, rows, widths, steps, seed = problem
    rng = np.random.default_rng(seed)
    positions, offset = [], 0
    for size in sizes:
        positions.append(np.arange(offset, offset + size))
        offset += size
    cols = sum(widths)
    head = np.arange(offset, offset + rows * cols).reshape(rows, cols)
    start = 0
    for w in widths:                      # strided column slices of the head
        positions.append(head[:, start:start + w].ravel())
        start += w
    shapes = [(s,) for s in sizes] + [(rows, w) for w in widths]

    flat = rng.normal(size=offset + rows * cols)
    ref = [flat[p].reshape(shape) for p, shape in zip(positions, shapes)]
    states = [AdamState.for_param(r, lr=1.0) for r in ref]
    fused = FlatAdam(flat.size)
    for stepped, zero, lr in steps:
        order = sorted(stepped)           # tensors left out stand in for frozen ones
        grads = [np.zeros(shapes[i]) if i in zero
                 else rng.normal(size=shapes[i]) * 10.0 ** rng.uniform(-6, 3)
                 for i in order]
        for i, g in zip(order, grads):
            states[i].lr = lr
            ref[i], states[i] = adam_step(ref[i], g, states[i])
        fused.step(flat, np.concatenate([g.ravel() for g in grads]),
                   Segments.of([positions[i] for i in order]), lr)

    for p, r, state in zip(positions, ref, states):
        np.testing.assert_array_equal(flat[p], r.ravel())
        np.testing.assert_array_equal(fused.m[p], state.m.ravel())
        np.testing.assert_array_equal(fused.v[p], state.v.ravel())
        assert fused.steps[p[0]] == state.step
