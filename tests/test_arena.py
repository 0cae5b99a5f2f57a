"""The flat parameter arena and the fused Adam step built on it."""

import copy
import dataclasses
import hashlib
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from part import (
    AdamState,
    InputError,
    ModuleGrid,
    NumericError,
    Phase,
    TrainConfig,
    adam_step,
    backward_task,
    forward_task,
    freeze,
    load_checkpoint,
    register_task,
    save_checkpoint,
    train,
    train_parallel,
    train_sequential,
    train_single,
)
from part import net
from part.net import NORM_PARAMS, SHARED, path_index, trainable_keys
from part.numerics import ADAM_BETA1, ADAM_BETA2, FlatAdam, Segments

from conftest import attach_synthetic, cells, make_grid, norm_keys


def stored_keys(grid):
    """Every stored block and norm tensor's key, in arena order."""
    keys = []
    for l, m in cells(grid):
        keys += [("block", l, m, "W")]
        keys += [("norm", l, m, nk, w) for nk in norm_keys(grid) for w in NORM_PARAMS]
    return keys


def all_keys(grid):
    """Every addressable tensor: stored block and norm tensors, head slices."""
    return stored_keys(grid) + [("head", t.id, w) for t in grid.tasks for w in ("W", "b")]


def assert_checkpoint_order(grid):
    """The arena is every block and norm tensor in key order, then the
    head, and head_W/head_b are views of it."""
    arena = grid.arena
    assert np.shares_memory(grid.head_W, arena) and np.shares_memory(grid.head_b, arena)
    arrays = [grid.get_param(key) for key in stored_keys(grid)] + [grid.head_W, grid.head_b]
    np.testing.assert_array_equal(arena, np.concatenate([a.ravel() for a in arrays]))


@pytest.mark.parametrize("norm_mode", ["shared", "per-task"])
def test_arrays_are_views_into_the_arena_in_checkpoint_order(norm_mode):
    grid = make_grid(L=2, M=3, N=2, norm_mode=norm_mode, seed=80, randomize_norms=True)
    assert_checkpoint_order(grid)


def test_assignment_and_slice_updates_write_through():
    grid = make_grid(seed=81)
    arena, version = grid.arena, grid.version
    new_W = np.random.default_rng(0).normal(size=grid.get_param(("block", 1, 2, "W")).shape)
    grid.set_param(("block", 1, 2, "W"), new_W)
    gamma = grid.get_param(("norm", 1, 2, SHARED, "gamma")) + 0.5
    grid.set_param(("norm", 1, 2, SHARED, "gamma"), gamma)
    tb = grid.tasks[1]
    s, e = tb.slice
    head = grid.get_param(("head", tb.id, "W")) + 3.0
    grid.set_param(("head", tb.id, "W"), head)
    assert grid.version == version + 3
    np.testing.assert_array_equal(grid.get_param(("block", 1, 2, "W")), new_W)
    np.testing.assert_array_equal(grid.get_param(("norm", 1, 2, SHARED, "gamma")), gamma)
    np.testing.assert_array_equal(grid.head_W[:, s:e], head)
    # get_param hands out a copy: writing into it changes nothing
    grid.get_param(("block", 1, 2, "W"))[...] = 0.0
    np.testing.assert_array_equal(grid.get_param(("block", 1, 2, "W")), new_W)
    assert grid.arena is arena and grid.version == version + 3
    assert_checkpoint_order(grid)


@settings(max_examples=40, deadline=None)
@given(L=st.integers(1, 4), M=st.integers(1, 6), d_in=st.integers(1, 9), d_hid=st.integers(1, 9),
       norm_mode=st.sampled_from(["shared", "per-task"]), seed=st.integers(0, 2**63 - 1))
def test_a_new_grid_holds_one_draw_per_module_bit_for_bit(L, M, d_in, d_hid, norm_mode, seed):
    # the reference: each module's W from its own uniform draw, layer after
    # layer, module after module; in shared mode each W is followed by the
    # one norm instance, gamma 1, beta 0, run_mean 0 and run_var 1
    grid = ModuleGrid(L, M, d_in, d_hid, norm_mode=norm_mode, seed=seed)
    rng = np.random.default_rng(seed)
    norm = np.repeat([1.0, 0.0, 0.0, 1.0], d_hid) if norm_mode == "shared" else np.empty(0)
    want = []
    for l in range(L):
        fan_in = d_in if l == 0 else d_hid
        bound = np.sqrt(6.0 / fan_in)
        want += [np.concatenate([rng.uniform(-bound, bound, fan_in * d_hid), norm])
                 for _ in range(M)]
    assert grid.arena.tobytes() == np.concatenate(want).tobytes()
    assert grid.rng.bit_generator.state == rng.bit_generator.state


def task_specs(grid):
    return [(t.id, t.slice, t.name, t.c) for t in grid.tasks]


@settings(max_examples=60, deadline=None)
@given(L=st.integers(1, 3), M=st.integers(1, 4), d_in=st.integers(1, 5), d_hid=st.integers(1, 5),
       norm_mode=st.sampled_from(["shared", "per-task"]), seed=st.integers(0, 2**63 - 1),
       before=st.lists(st.integers(2, 6), max_size=3),
       batch=st.lists(st.tuples(st.integers(2, 6), st.sampled_from(["", "a", "b"])), max_size=4))
def test_one_registration_call_equals_one_call_per_task(L, M, d_in, d_hid, norm_mode, seed,
                                                        before, batch):
    batched, single = (ModuleGrid(L, M, d_in, d_hid, norm_mode=norm_mode, seed=seed)
                       for _ in range(2))
    for grid in (batched, single):
        for c in before:
            register_task(grid, c)
    kept = {key: batched.get_param(key) for key in all_keys(batched)}
    twin = copy.deepcopy(batched.rng)
    tasks = net.register_tasks(batched, [c for c, _ in batch], [name for _, name in batch])
    for c, name in batch:
        register_task(single, c, name)
    assert batched.arena.tobytes() == single.arena.tobytes()
    assert batched.rng.bit_generator.state == single.rng.bit_generator.state
    assert task_specs(batched) == task_specs(single)
    assert all(a is b for a, b in zip(tasks, batched.tasks[len(before):], strict=True))
    # by key: every old tensor is kept, each new head slice holds the next
    # uniform draw and zero biases, each new norm instance starts at
    # gamma 1, beta 0, run_mean 0, run_var 1
    for key, value in kept.items():
        np.testing.assert_array_equal(batched.get_param(key), value)
    bound = 1.0 / np.sqrt(d_hid)
    for task in tasks:
        np.testing.assert_array_equal(batched.get_param(("head", task.id, "W")),
                                      twin.uniform(-bound, bound, (d_hid, task.c)))
        assert not batched.get_param(("head", task.id, "b")).any()
        for l, m in cells(batched) if norm_mode == "per-task" else ():
            for which, value in zip(NORM_PARAMS, (1.0, 0.0, 0.0, 1.0)):
                assert (batched.get_param(("norm", l, m, task.id, which)) == value).all()
    if batched.tasks:       # an empty head is no view of the arena
        assert_checkpoint_order(batched)


BAD_BATCHES = {
    "below-two-first": ([1, 3, 4], None, "c must be >= 2, got 1"),
    "zero-last": ([3, 4, 0], None, "c must be >= 2, got 0"),
    "float-middle": ([3, 2.0, 4], None, "c must be an integer, got 2.0"),
    "bool-last": ([3, 4, True], None, "c must be an integer, got True"),
    "str-first": (["3", 3, 4], None, "c must be an integer, got '3'"),
    "too-few-names": ([3, 4, 2], ["a"], "got 1 names for 3 class counts"),
}


@pytest.mark.parametrize("norm_mode", ["shared", "per-task"])
@pytest.mark.parametrize("case", BAD_BATCHES)
def test_one_bad_class_count_in_a_batch_leaves_the_grid_untouched(norm_mode, case):
    cs, names, message = BAD_BATCHES[case]
    grid = ModuleGrid(2, 3, 4, 5, norm_mode=norm_mode, seed=7)
    register_task(grid, 3)
    tasks, arena = list(grid.tasks), grid.arena
    state = (arena_sha(grid), grid.version, grid.c_total, grid.rng.bit_generator.state)
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        net.register_tasks(grid, cs, names)
    assert (arena_sha(grid), grid.version, grid.c_total, grid.rng.bit_generator.state) == state
    assert grid.tasks == tasks and grid.tasks[0] is tasks[0] and grid.arena is arena


def test_assignment_cannot_change_a_shape():
    grid = make_grid(seed=82)
    version = grid.version
    with pytest.raises(InputError):
        grid.set_param(("block", 0, 0, "W"), np.zeros((2, 2)))
    with pytest.raises(InputError):
        grid.set_param(("norm", 0, 0, SHARED, "beta"), np.zeros(3))
    with pytest.raises(InputError):
        grid.get_param(("block", 9, 0, "W"))
    assert grid.version == version


# keys that name no tensor of a 2-layer, 4-module grid with tasks 0 and 1;
# "nk" stands for the mode's valid norm key, "other nk" for the other mode's
UNKNOWN_KEYS = {
    "layer past the end": ("block", 2, 0, "W"),
    "negative layer": ("block", -1, 0, "W"),
    "module past the end": ("block", 0, 4, "W"),
    "negative module": ("block", 0, -1, "W"),
    "block bias": ("block", 0, 0, "b"),
    "last block's bias": ("block", 1, 3, "b"),
    "norm layer past the end": ("norm", 2, 0, "nk", "gamma"),
    "norm negative module": ("norm", 0, -1, "nk", "run_var"),
    "block arity 3": ("block", 0, 0),
    "block arity 5": ("block", 0, 0, "W", 0),
    "norm arity 4": ("norm", 0, 0, "gamma"),
    "head arity 2": ("head", 0),
    "head arity 4": ("head", 0, "W", 0),
    "whole head": ("head_W",),
    "empty": (),
    "not a tuple": "block",
    "block tensor name": ("block", 0, 0, "gamma"),
    "norm tensor name": ("norm", 0, 0, "nk", "W"),
    "head tensor name": ("head", 0, "gamma"),
    "kind": ("blocks", 0, 0, "W"),
    "other mode's norm key": ("norm", 0, 0, "other nk", "beta"),
    "unregistered norm task": ("norm", 0, 0, 2, "gamma"),
    "unregistered head task": ("head", 2, "W"),
    "negative head task": ("head", -1, "b"),
}


# a bool is not an integer, in any key position: as 1 or 0 each of these
# would name a tensor
UNKNOWN_KEYS.update({
    f"{value} as {place}": key
    for value in (True, False)
    for place, key in {
        "block layer": ("block", value, 0, "W"),
        "block module": ("block", 0, value, "W"),
        "norm layer": ("norm", value, 0, "nk", "gamma"),
        "norm module": ("norm", 0, value, "nk", "beta"),
        "norm task": ("norm", 0, 0, value, "run_mean"),
        "head task": ("head", value, "b"),
    }.items()
})


@pytest.mark.parametrize("norm_mode", ["shared", "per-task"])
@pytest.mark.parametrize("case", UNKNOWN_KEYS)
def test_unknown_keys_are_input_errors(case, norm_mode):
    grid = make_grid(L=2, M=4, norm_mode=norm_mode, seed=82, class_counts=(3, 2))
    nk, other = (SHARED, 0) if norm_mode == "shared" else (0, SHARED)
    key = UNKNOWN_KEYS[case]
    if isinstance(key, tuple):
        key = tuple({"nk": nk, "other nk": other}.get(part, part) for part in key)
    arena, version = grid.arena.copy(), grid.version
    with pytest.raises(InputError, match="unknown parameter key"):
        grid.get_param(key)
    with pytest.raises(InputError, match="unknown parameter key"):
        grid.set_param(key, np.zeros(grid.d_hid))
    assert grid.version == version
    np.testing.assert_array_equal(grid.arena, arena)


def test_parallel8_shape_arena_and_trainable_sizes():
    # the bench's parallel8 grid: 4 x 6 cells of d_in 8 / d_hid 16, 3 modules
    # per path row, 8 four-class tasks on shared norms. A cell is W and one
    # norm instance, (fan_in + 4) * 16 values; a task trains each path
    # module's W, gamma and beta, (fan_in + 2) * 16, and its head slice
    grid = make_grid(L=4, M=6, N=3, d_in=8, d_hid=16, seed=88, class_counts=(4,) * 8)
    assert grid.arena.size == 6 * (12 + 3 * 20) * 16 + 17 * 32 == 7456
    for task in grid.tasks:
        index = path_index(grid, task)
        assert index.size == index.segments.index.size == 3 * (10 + 3 * 18) * 16 + 17 * 4
        assert index.size == 3140
        assert len(trainable_keys(grid, task)) == 4 * 3 * 3 + 2 == 38


def test_each_registration_adopts_one_arena_and_training_keeps_it(monkeypatch):
    adopted = []
    real = ModuleGrid._adopt_new_arena
    monkeypatch.setattr(ModuleGrid, "_adopt_new_arena",
                        lambda self: adopted.append(1) or real(self))
    grid = make_grid(M=4, class_counts=(3,) * 8, norm_mode="per-task", seed=83)
    assert len(adopted) == 1 + 8      # construction, then one per registration
    arena = grid.arena
    attach_synthetic(grid, np.random.default_rng(1), n_per_class=8)
    train_parallel(grid, grid.tasks, TrainConfig(epochs=1, seed=0))
    assert grid.arena is arena
    train_sequential(grid, grid.tasks[:2], TrainConfig(epochs=1, seed=0))
    assert grid.arena is arena and len(adopted) == 1 + 8


@pytest.mark.parametrize("norm_mode", ["shared", "per-task"])
def test_registering_after_training_keeps_every_value(norm_mode, tmp_path):
    grid = make_grid(L=2, M=4, N=2, norm_mode=norm_mode, seed=84, class_counts=(3, 3))
    attach_synthetic(grid, np.random.default_rng(2), n_per_class=10)
    train_parallel(grid, grid.tasks, TrainConfig(epochs=2, lr0=1e-2, seed=0))
    before = {key: grid.get_param(key) for key in all_keys(grid)}
    old_arena = grid.arena
    register_task(grid, 3)
    assert grid.arena is not old_arena
    assert_checkpoint_order(grid)
    for key, value in before.items():
        np.testing.assert_array_equal(grid.get_param(key), value)
    save_checkpoint(grid, tmp_path / "g.part")
    np.testing.assert_array_equal(load_checkpoint(tmp_path / "g.part").arena, grid.arena)


def copy_grid(grid, how):
    return copy.deepcopy(grid) if how == "deepcopy" else pickle.loads(pickle.dumps(grid))


def arena_sha(grid):
    return hashlib.sha256(grid.arena.tobytes()).hexdigest()


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
@pytest.mark.parametrize("norm_mode", ["shared", "per-task"])
def test_a_copied_grid_trains_to_the_originals_bits(norm_mode, how):
    # a phase freezes task 0, the grid is copied, then the same two phases
    # run on the copy and on the original: the copy's head is its own
    # arena's, training it leaves the original as it was, and both end with
    # the same report, freeze hashes and arena
    grid = make_grid(L=2, M=4, N=2, norm_mode=norm_mode, seed=86, class_counts=(3, 3, 2))
    attach_synthetic(grid, np.random.default_rng(86), n_per_class=10)
    cfg = TrainConfig(epochs=2, batch_size=8, batch_set_size=2, lr0=1e-2, seed=86)
    train(grid, "sequential", [Phase("first", grid.tasks[:1], freeze=True)], grid.tasks, cfg)
    copied = copy_grid(grid, how)
    for view in (copied.head_W, copied.head_b):
        assert np.shares_memory(view, copied.arena) and not view.flags.writeable

    def train_on(g):
        phases = [Phase("second", (g.tasks[1],), freeze=True), Phase("third", (g.tasks[2],))]
        return dataclasses.replace(train(g, "sequential", phases, g.tasks, cfg), wallclock_s=0.0)

    original = arena_sha(grid), grid.version
    report = train_on(copied)
    assert (arena_sha(grid), grid.version) == original
    assert train_on(grid) == report and report.freeze_hashes
    assert arena_sha(copied) == arena_sha(grid)


def same_grads(a, b):
    return a.keys() == b.keys() and all(a[key].tobytes() == b[key].tobytes() for key in a)


@pytest.mark.parametrize("norm_mode", ["shared", "per-task"])
def test_a_pass_reads_only_its_gather_and_the_backward_only_its_tape(norm_mode):
    def build():
        return make_grid(L=3, M=4, N=2, norm_mode=norm_mode, seed=87, class_counts=(3, 4, 2),
                         randomize_norms=True)

    clean, poisoned = build(), build()
    outside = np.ones(clean.arena.size, dtype=bool)
    outside[path_index(clean, clean.tasks[1]).positions] = False
    poisoned.arena[outside] = np.nan
    rng = np.random.default_rng(87)
    x, dslice = rng.normal(size=(6, clean.d_in)), rng.normal(size=(6, 4))
    for mode in ("eval", "train"):
        (logits, tape), (p_logits, p_tape) = (forward_task(g, g.tasks[1], x, mode)
                                              for g in (clean, poisoned))
        assert logits.tobytes() == p_logits.tobytes()
        assert same_grads(backward_task(clean, clean.tasks[1], tape, dslice),
                          backward_task(poisoned, poisoned.tasks[1], p_tape, dslice))
    assert clean.arena[~outside].tobytes() == poisoned.arena[~outside].tobytes()
    # after the forward, the whole arena (the task's head included) is
    # overwritten without a version bump: the backward reads only the tape
    for mode in ("eval", "train"):
        grid = build()
        _, tape = forward_task(grid, grid.tasks[1], x, mode)
        want = {key: g.copy() for key, g in backward_task(grid, grid.tasks[1], tape, dslice).items()}
        grid.arena[:] = np.nan
        assert same_grads(backward_task(grid, grid.tasks[1], tape, dslice), want)


def test_path_index_segments_are_cached_until_a_freeze():
    grid = make_grid(L=2, M=4, N=2, seed=85)
    ta, tb = grid.tasks
    index = path_index(grid, tb)
    keys, seg = trainable_keys(grid, tb), index.segments
    assert keys == [k for k, t in zip(index.keys, index.trains) if t]
    assert path_index(grid, tb).segments is seg
    positions = np.arange(grid.arena.size)
    np.testing.assert_array_equal(
        seg.index, np.concatenate([grid._view(positions, k).ravel() for k in keys]))
    freeze(grid, ta)
    index2 = path_index(grid, tb)
    assert [k for k, t in zip(index2.keys, index2.trains) if t] == trainable_keys(grid, tb)
    assert index2.segments is not seg


def assert_same_index(got, want):
    """Two PathIndex objects agree field by field, arrays bit for bit."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, Segments):
            a, b = dataclasses.astuple(a), dataclasses.astuple(b)
        if f.name == "tensors" or isinstance(b, tuple) and b and isinstance(b[0], np.ndarray):
            assert len(a) == len(b), f.name
            for x, y in zip(a, b):
                assert x.shape == y.shape, f.name
                np.testing.assert_array_equal(x, y, err_msg=f.name)
        elif isinstance(b, np.ndarray) or b is None:
            assert (a is None) == (b is None), f.name
            if b is not None:
                assert a.dtype == b.dtype and a.shape == b.shape, f.name
                np.testing.assert_array_equal(a, b, err_msg=f.name)
        else:
            assert a == b, f.name


@pytest.mark.parametrize("norm_mode", ["shared", "per-task"])
def test_index_after_freezing_equals_a_fresh_build(norm_mode, tmp_path):
    grid = make_grid(L=3, M=4, N=2, norm_mode=norm_mode, seed=86, class_counts=(3, 2, 4))
    ta, tb, tc = grid.tasks

    def check(g):
        arena_positions = np.arange(g.arena.size)
        for t in g.tasks:
            index = path_index(g, t)
            assert_same_index(index, net._build_path_index(g, t))
            for key, tensor in zip(index.keys, index.tensors):
                np.testing.assert_array_equal(tensor, g._view(arena_positions, key))

    check(grid)
    before = [path_index(grid, t) for t in grid.tasks]
    freeze(grid, ta)
    check(grid)
    for t, old in zip(grid.tasks, before):
        # freezing keeps the positions, and the whole index of a task whose
        # tensors all train as before
        index = path_index(grid, t)
        assert index.positions is old.positions
        assert (index is old) == (index.trains == old.trains)
    freeze(grid, tb)
    check(grid)
    save_checkpoint(grid, tmp_path / "g.part")
    loaded = load_checkpoint(tmp_path / "g.part")
    check(loaded)
    freeze(loaded, loaded.tasks[2])
    check(loaded)


def test_sequential_training_builds_each_index_once(monkeypatch):
    builds = []
    real = net._build_path_index

    def counting(grid, task):
        builds.append(task.id)
        return real(grid, task)

    monkeypatch.setattr(net, "_build_path_index", counting)
    grid = make_grid(L=3, M=4, N=2, seed=87, class_counts=(2,) * 8)
    attach_synthetic(grid, np.random.default_rng(3), n_per_class=6)
    train_sequential(grid, grid.tasks, TrainConfig(epochs=2, batch_size=4, lr0=1e-2, seed=0))
    assert sorted(builds) == list(range(8))


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


@pytest.mark.parametrize("where", ["unused module", "untrained head"])
def test_a_planted_nonfinite_value_no_step_writes_fails_the_call(where):
    # each step checks only what it wrote; the whole arena is checked once,
    # before the first step, so a bad value elsewhere still fails the call
    grid = make_grid(L=2, M=4, N=2, d_in=6, seed=86, class_counts=(3, 3))
    attach_synthetic(grid, np.random.default_rng(3), n_per_class=20, margin=5.0)
    grid.tasks[0].path = grid.tasks[1].path = net.Path(((0, 1), (0, 1)))
    if where == "unused module":
        grid.set_param(("block", 1, 3, "W"), np.full((grid.d_hid, grid.d_hid), np.nan))
    else:
        grid.set_param(("head", 1, "b"), [0.0, np.inf, 0.0])
    before = grid.arena.tobytes()
    with pytest.raises(NumericError, match="^non-finite parameters or running statistics "
                                           "before training$"):
        train_single(grid, grid.tasks[0], TrainConfig(epochs=2, lr0=1e-2, seed=0))
    assert grid.arena.tobytes() == before


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
                  st.sets(st.integers(0, n_tensors - 1)),               # a zero first element
                  st.floats(1e-4, 1.0)),                                 # lr
        min_size=1, max_size=5))
    return sizes, rows, widths, steps, draw(st.integers(0, 2**32 - 1))


# every tensor in every step: the counters stay equal (scalar corrections),
# a zero gradient included
EQUAL_COUNTERS = ([2, 3], 2, [1, 2], [({0, 1, 2, 3}, set(), set(), 0.1),
                                      ({0, 1, 2, 3}, {1}, set(), 0.01),
                                      ({0, 1, 2, 3}, set(), set(), 0.5)], 7)
# a subset first: the later full steps hold unequal counters
UNEQUAL_COUNTERS = ([2, 3], 2, [1, 2], [({0, 2}, set(), set(), 0.1),
                                        ({0, 1, 2, 3}, set(), set(), 0.1),
                                        ({0, 1, 2, 3}, {3}, set(), 0.2)], 8)
# both branches of the step: no zero element (no per-tensor scan), a zero
# element in tensors that still step (the scan finds every tensor active),
# then a zero tensor among them (only the active ones are written)
BOTH_BRANCHES = ([2, 3], 2, [2, 1], [({0, 1, 2, 3}, set(), set(), 0.1),
                                     ({0, 1, 2, 3}, set(), {1, 2}, 0.1),
                                     ({0, 1, 2, 3}, {0}, {3}, 0.2)], 9)


@settings(max_examples=40, deadline=None)
@given(flat_problem())
@example(EQUAL_COUNTERS)
@example(UNEQUAL_COUNTERS)
@example(BOTH_BRANCHES)
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
    for stepped, zero, partly, lr in steps:
        order = sorted(stepped)           # tensors left out stand in for frozen ones
        grads = [np.zeros(shapes[i]) if i in zero
                 else rng.normal(size=shapes[i]) * 10.0 ** rng.uniform(-6, 3)
                 for i in order]
        for i, g in zip(order, grads):
            if i in partly:
                g.flat[0] = 0.0
            states[i].lr = lr
            ref[i], states[i] = adam_step(ref[i], g, states[i])
        written = fused.step(flat, np.concatenate([g.ravel() for g in grads]),
                             Segments.of([positions[i] for i in order]), lr)
        # the step returns the values it wrote: those of the tensors it moved
        moved = [positions[i].ravel() for i, g in zip(order, grads) if g.any()]
        np.testing.assert_array_equal(written, flat[np.concatenate([[], *moved]).astype(int)])

    for p, r, state in zip(positions, ref, states):
        np.testing.assert_array_equal(flat[p], r.ravel())
        np.testing.assert_array_equal(fused.m[p], state.m.ravel())
        np.testing.assert_array_equal(fused.v[p], state.v.ravel())
        assert fused.steps[p[0]] == state.step


def test_equal_counters_take_scalar_bias_corrections():
    # the two cases the examples above step through: one scalar pair when
    # every counter is equal, one pair per tensor otherwise
    adam = FlatAdam(1)
    c1, c2 = adam._corrections(np.array([3, 3, 3]), uniform=True)
    assert (c1, c2) == (1.0 - ADAM_BETA1 ** 3, 1.0 - ADAM_BETA2 ** 3)
    per_tensor = adam._corrections(np.array([2, 3, 2]), uniform=False)
    assert per_tensor.shape == (2, 3)
    assert per_tensor[:, 1].tolist() == [c1, c2]
    assert per_tensor[:, 0].tolist() == [1.0 - ADAM_BETA1 ** 2, 1.0 - ADAM_BETA2 ** 2]


@st.composite
def resident_problem(draw):
    """Tensors at scattered positions of a flat vector, a few tensor sets
    (one Segments object each, sets may overlap), and runs of consecutive
    steps on one set, some tensors with a zero gradient."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    n_tensors = len(sizes)
    sets = draw(st.lists(st.sets(st.integers(0, n_tensors - 1), min_size=1),
                         min_size=1, max_size=3))
    runs = draw(st.lists(
        st.tuples(st.integers(0, len(sets) - 1),                # the set that steps
                  st.integers(1, 3),                            # consecutive steps
                  st.sets(st.integers(0, n_tensors - 1)),       # zero gradients
                  st.floats(1e-4, 1.0)),                        # lr
        min_size=1, max_size=6))
    return sizes, sets, runs, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(resident_problem())
@example(([3, 1, 2], [{0, 1, 2}], [(0, 3, set(), 0.1), (0, 2, {1}, 0.3)], 9))
@example(([3, 1, 2], [{0, 1}, {0, 1, 2}],
          [(0, 2, set(), 0.1), (1, 2, {2}, 0.3), (1, 1, set(), 0.05)], 10))
def test_held_moments_match_per_tensor_adam_step_after_every_step(problem):
    sizes, sets, runs, seed = problem
    rng = np.random.default_rng(seed)
    order = rng.permutation(sum(sizes))
    positions = np.split(order, np.cumsum(sizes)[:-1])
    flat = rng.normal(size=order.size)
    ref = [flat[p].copy() for p in positions]
    states = [AdamState.for_param(r, lr=1.0) for r in ref]
    segments = [Segments.of([positions[i] for i in sorted(s)]) for s in sets]
    fused = FlatAdam(flat.size)
    # reading m, v or steps brings the held moments up to date, so a second
    # optimizer on a copy takes the same steps and is read only at the end
    unread, unread_flat = FlatAdam(flat.size), flat.copy()
    for which, count, zero, lr in runs:
        stepped = sorted(sets[which])
        for _ in range(count):
            grads = [np.zeros(sizes[i]) if i in zero
                     else rng.normal(size=sizes[i]) * 10.0 ** rng.uniform(-6, 3)
                     for i in stepped]
            for i, g in zip(stepped, grads):
                states[i].lr = lr
                ref[i], states[i] = adam_step(ref[i], g, states[i])
            fused.step(flat, np.concatenate(grads), segments[which], lr)
            unread.step(unread_flat, np.concatenate(grads), segments[which], lr)
            for p, r, state in zip(positions, ref, states):
                np.testing.assert_array_equal(flat[p], r)
                np.testing.assert_array_equal(fused.m[p], state.m)
                np.testing.assert_array_equal(fused.v[p], state.v)
                assert fused.steps[p[0]] == state.step
    np.testing.assert_array_equal(unread_flat, flat)
    for name in ("m", "v", "steps"):
        np.testing.assert_array_equal(getattr(unread, name), getattr(fused, name))
    with pytest.raises(ValueError):
        fused.m[0] = 1.0                # the moments read as read-only views
