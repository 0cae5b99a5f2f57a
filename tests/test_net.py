import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from part import (
    ContractError,
    InputError,
    ModuleGrid,
    Path,
    assign_random_path,
    assign_random_paths,
    backward_task,
    build_controlled_paths,
    finite_diff_check,
    forward_task,
    freeze,
    register_task,
    softmax_xent_slice,
    trainable_keys,
)
from part.net import (
    NORM_EPS,
    NORM_PARAMS,
    SHARED,
    Workspace,
    _floyd_rows,
    forward_kernel,
    pass_shape,
    path_index,
)
from part.training import freeze_fingerprint

from conftest import cells, make_grid, norm_keys


# ---------------------------------------------------------------------------
# path assignment

def test_full_selection_forced():
    rng = np.random.default_rng(0)
    path = assign_random_path(4, 4, 3, rng)
    assert path.rows == ((0, 1, 2, 3),) * 3


def test_path_determinism():
    a = assign_random_path(12, 4, 8, np.random.default_rng(99))
    b = assign_random_path(12, 4, 8, np.random.default_rng(99))
    assert a == b


def test_path_rows_are_valid_subsets():
    rng = np.random.default_rng(5)
    for _ in range(50):
        path = assign_random_path(7, 3, 4, rng)
        for row in path.rows:
            assert len(row) == 3
            assert len(set(row)) == 3
            assert all(0 <= m < 7 for m in row)


def test_selection_frequency_matches_uniform_subsets():
    # P(module on a path row) = N/M = 1/3; 10k draws x 8 rows per module
    rng = np.random.default_rng(42)
    M, N, L, trials = 12, 4, 8, 10_000
    hits = np.zeros(M)
    for _ in range(trials):
        path = assign_random_path(M, N, L, rng)
        for row in path.rows:
            for m in row:
                hits[m] += 1
    freq = hits / (trials * L)
    assert np.all(np.abs(freq - 1 / 3) < 0.01)


def reference_paths(M, N, L, k, rng):
    """k paths of L rows, each row a sorted `rng.choice(M, N, replace=False)`."""
    rows = [tuple(sorted(int(i) for i in rng.choice(M, size=N, replace=False)))
            for _ in range(k * L)]
    return [rows[t * L:(t + 1) * L] for t in range(k)]


def assert_paths_match_choice(M, N, L, k, rng, twin):
    """assign_random_paths on rng gives twin's reference paths and leaves rng
    in twin's state, with the same next draw."""
    paths = assign_random_paths(M, N, L, k, rng)
    assert [list(p.rows) for p in paths] == reference_paths(M, N, L, k, twin)
    np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)
    assert rng.random() == twin.random()


def pcg64_pair(seed, buffered=None):
    """Two PCG64 generators in one state; with `buffered`, that state holds
    the half-word `buffered` for the next uint32 draw."""
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered is not None:
        state = rngs[0].bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, buffered
        for rng in rngs:
            rng.bit_generator.state = state
    return rngs


@st.composite
def path_requests(draw):
    M = draw(st.integers(1, 16))
    return (M, draw(st.integers(1, M)), draw(st.integers(1, 9)), draw(st.integers(1, 12)),
            draw(st.integers(0, 2**63 - 1)),
            draw(st.one_of(st.none(), st.integers(0, 2**32 - 1))))


@settings(max_examples=200, deadline=None)
@given(path_requests())
def test_batched_paths_equal_per_row_choice_bit_for_bit(request):
    M, N, L, k, seed, buffered = request
    assert_paths_match_choice(M, N, L, k, *pcg64_pair(seed, buffered))


def test_batched_paths_fall_back_on_another_bit_generator():
    rng, twin = (np.random.Generator(np.random.MT19937(7)) for _ in range(2))
    assert_paths_match_choice(12, 4, 8, 10, rng, twin)


def test_batched_paths_fall_back_on_a_rejected_draw():
    # a buffered u = 0 leaves 0 mod 2^32 < (2^32-1-j) mod (j+1) for the first
    # Floyd bound j+1 = M-N+1 = 9, not a power of two: numpy draws again
    assert (2**32 - 9) % 9 > 0
    assert_paths_match_choice(12, 4, 8, 10, *pcg64_pair(5, buffered=0))


@st.composite
def sampler_branches(draw):
    """A path request and a generator pair for one of the sampler's three
    branches: PCG64's one read, the per-row fallback on another bit
    generator, and the fallback after a rejected draw."""
    branch = draw(st.sampled_from(["one read", "mt19937", "rejected"]))
    seed = draw(st.integers(0, 2**63 - 1))
    L, k = draw(st.integers(1, 9)), draw(st.integers(1, 12))
    if branch == "rejected":
        # a buffered u = 0 is rejected by the first Floyd bound M-N+1 when
        # that is not a power of two
        N = draw(st.integers(1, 8))
        M = N + draw(st.sampled_from([2, 4, 5, 6, 9]))
        rngs = pcg64_pair(seed, buffered=0)
    else:
        M = draw(st.integers(1, 16))
        N = draw(st.integers(1, M))
        rngs = (pcg64_pair(seed) if branch == "one read"
                else tuple(np.random.Generator(np.random.MT19937(seed)) for _ in range(2)))
    return branch, M, N, L, k, rngs


@settings(max_examples=150, deadline=None)
@given(sampler_branches())
def test_sampled_paths_equal_checked_paths(request):
    branch, M, N, L, k, (rng, twin) = request
    probe = np.random.Generator(type(rng.bit_generator)())
    probe.bit_generator.state = rng.bit_generator.state
    assert (_floyd_rows(M, N, k * L, probe.bit_generator) is None) == (branch != "one read")
    paths = assign_random_paths(M, N, L, k, rng)
    assert [list(p.rows) for p in paths] == reference_paths(M, N, L, k, twin)
    for path in paths:
        checked = Path(path.rows)
        assert path == checked and hash(path) == hash(checked)
        assert type(path.rows) is tuple and all(type(row) is tuple for row in path.rows)
        assert all(type(m) is int for row in path.rows for m in row)
        copied = pickle.loads(pickle.dumps(path))
        assert copied == path and hash(copied) == hash(path) and copied.rows == path.rows


def test_invalid_path_requests():
    rng = np.random.default_rng(0)
    with pytest.raises(InputError):
        assign_random_path(4, 5, 2, rng)
    with pytest.raises(InputError):
        assign_random_path(4, 0, 2, rng)
    with pytest.raises(InputError):
        assign_random_path(4, 2, 0, rng)
    with pytest.raises(InputError):
        assign_random_paths(4, 2, 2, -1, rng)
    assert assign_random_paths(4, 2, 2, 0, rng) == []
    with pytest.raises(InputError):
        Path(((1, 1),))
    with pytest.raises(InputError):
        Path(((2, 1),))


@pytest.mark.parametrize("row", [(True, 2), (0, np.True_), ("0", "1"), (0, 0.5), (0, 1.0)])
def test_path_entries_must_be_integers(row):
    with pytest.raises(InputError, match="path row 0 must hold integers"):
        Path((row,))


def test_path_stores_numpy_integers_as_int():
    path = Path(((np.int64(0), np.int32(2)), [np.uint8(1)]))
    assert path.rows == ((0, 2), (1,))
    assert all(type(m) is int for row in path.rows for m in row)


# ---------------------------------------------------------------------------
# task registration

def test_slices_are_cumulative():
    grid = ModuleGrid(2, 3, 4, 5, seed=0)
    t = [register_task(grid, 10) for _ in range(3)]
    assert t[0].slice == (0, 10)
    assert t[1].slice == (10, 20)
    assert t[2].slice == (20, 30)
    assert grid.c_total == 30


def test_first_task_slice():
    grid = ModuleGrid(1, 2, 4, 5, seed=0)
    task = register_task(grid, 4)
    assert task.slice == (0, 4)
    assert grid.c_total == 4
    assert grid.head_W.shape == (5, 4)


def test_per_task_norm_instances_accumulate():
    grid = ModuleGrid(3, 4, 4, 5, norm_mode="per-task", seed=0)
    for _ in range(5):
        register_task(grid, 3)
    for l, m in cells(grid):
        assert _norm_instances(grid, l, m) == [0, 1, 2, 3, 4]


def test_shared_mode_keeps_single_instance():
    grid = ModuleGrid(2, 3, 4, 5, norm_mode="shared", seed=0)
    register_task(grid, 3)
    register_task(grid, 4)
    for l, m in cells(grid):
        assert _norm_instances(grid, l, m) == [SHARED]


def _norm_instances(grid, l, m):
    """The norm keys addressable at cell (l, m), probed through get_param."""
    found = []
    for nk in [SHARED, *range(len(grid.tasks) + 1)]:
        try:
            grid.get_param(("norm", l, m, nk, "gamma"))
        except InputError:
            continue
        found.append(nk)
    return found


@pytest.mark.parametrize("d_in, d_hid", [(0, 4), (4, 0), (-1, 4), (4, -1)])
def test_grid_widths_below_one_rejected(d_in, d_hid):
    with pytest.raises(InputError, match="grid widths must be >= 1"):
        ModuleGrid(2, 2, d_in, d_hid, seed=0)


NOT_INTEGER_SIZES = {
    "float-modules": (lambda g, rng: ModuleGrid(2, 3.0, 4, 5), "n_modules"),
    "str-layers": (lambda g, rng: ModuleGrid("2", 3, 4, 5), "n_layers"),
    "bool-layers": (lambda g, rng: ModuleGrid(True, 3, 4, 5), "n_layers"),
    "float-width": (lambda g, rng: ModuleGrid(2, 3, 4.5, 5), "d_in"),
    "float-seed": (lambda g, rng: ModuleGrid(2, 3, 4, 5, seed=2.0), "seed"),
    "bool-seed": (lambda g, rng: ModuleGrid(2, 3, 4, 5, seed=True), "seed"),
    "float-c": (lambda g, rng: register_task(g, 2.0), "c"),
    "str-c": (lambda g, rng: register_task(g, "3"), "c"),
    "bool-c": (lambda g, rng: register_task(g, True), "c"),
    "float-N": (lambda g, rng: assign_random_paths(4, 2.0, 2, 1, rng), "N"),
    "float-k": (lambda g, rng: assign_random_paths(4, 2, 2, 1.0, rng), "k"),
    "bool-L": (lambda g, rng: assign_random_path(4, 2, True, rng), "L"),
}


@pytest.mark.parametrize("case", NOT_INTEGER_SIZES)
def test_a_size_that_is_not_an_integer_is_an_input_error(case):
    # a Python or numpy integer is a size; a bool, float or str is not
    grid = ModuleGrid(np.int64(1), 2, 4, 5, seed=0)
    rng = np.random.default_rng(0)
    call, name = NOT_INTEGER_SIZES[case]
    with pytest.raises(InputError, match=f"^{name} must be an integer, got "):
        call(grid, rng)
    assert grid.tasks == [] and grid.version == 0
    assert register_task(grid, np.int32(3)).c == 3
    assert len(assign_random_paths(np.int64(4), 2, 2, np.int64(3), rng)) == 3


def test_negative_seed_rejected():
    with pytest.raises(InputError, match="^seed must be >= 0, got -1$"):
        ModuleGrid(2, 2, 4, 5, seed=-1)


def test_class_count_below_two_rejected():
    grid = ModuleGrid(1, 2, 4, 5, seed=0)
    with pytest.raises(InputError):
        register_task(grid, 1)


# ---------------------------------------------------------------------------
# forward

def test_zeroed_blocks_propagate_to_head_bias():
    grid = make_grid(L=3, M=4, N=2, seed=1)
    task = grid.tasks[0]
    for (l, m) in task.path.modules():
        key = ("block", l, m, "W")
        grid.set_param(key, np.zeros_like(grid.get_param(key)))
    x = np.random.default_rng(0).normal(size=(5, grid.d_in))
    for mode in ("eval", "train"):
        logits, tape = forward_task(grid, task, x, mode=mode)
        s, e = task.slice
        np.testing.assert_array_equal(logits, np.tile(grid.head_b[s:e], (5, 1)))
        assert not tape.h_final.any()


def test_single_module_path_equals_plain_chain():
    # independent oracle: straight-line composition through the one block per layer
    grid = make_grid(L=3, M=3, N=1, seed=2, randomize_norms=True)
    task = grid.tasks[0]
    rng = np.random.default_rng(8)
    x = rng.normal(size=(7, grid.d_in))

    nk = grid.norm_key(task.id)
    h = x
    for l, row in enumerate(task.path.rows):
        W = grid.get_param(("block", l, row[0], "W"))
        gamma, beta, run_mean, run_var = (grid.get_param(("norm", l, row[0], nk, w))
                                          for w in NORM_PARAMS)
        z = h @ W
        zhat = (z - run_mean) / np.sqrt(run_var + NORM_EPS)
        h = np.maximum(gamma * zhat + beta, 0.0)
    s, e = task.slice
    expected = h @ grid.head_W[:, s:e] + grid.head_b[s:e]

    logits, _ = forward_task(grid, task, x, mode="eval")
    np.testing.assert_allclose(logits, expected, rtol=1e-12, atol=1e-14)


def test_disjoint_paths_are_bit_independent():
    grid = ModuleGrid(3, 4, 5, 8, seed=3)
    ta = register_task(grid, 3)
    tb = register_task(grid, 3)
    ta.path = Path(((0, 1),) * 3)
    tb.path = Path(((2, 3),) * 3)
    x = np.random.default_rng(1).normal(size=(6, 5))
    before, _ = forward_task(grid, ta, x, mode="eval")
    for (l, m) in tb.path.modules():
        for key, shift in ((("block", l, m, "W"), 5.0), (("norm", l, m, SHARED, "beta"), -2.0)):
            grid.set_param(key, grid.get_param(key) + shift)
    after, _ = forward_task(grid, ta, x, mode="eval")
    np.testing.assert_array_equal(before, after)


def test_off_slice_head_perturbation_invisible():
    grid = make_grid(seed=4)
    ta, tb = grid.tasks
    x = np.random.default_rng(2).normal(size=(4, grid.d_in))
    before, _ = forward_task(grid, ta, x, mode="eval")
    grid.set_param(("head", tb.id, "W"), grid.get_param(("head", tb.id, "W")) + 3.0)
    grid.set_param(("head", tb.id, "b"), grid.get_param(("head", tb.id, "b")) - 1.0)
    after, _ = forward_task(grid, ta, x, mode="eval")
    np.testing.assert_array_equal(before, after)


def test_eval_forward_is_side_effect_free():
    grid = make_grid(seed=5, randomize_norms=True)
    task = grid.tasks[0]
    x = np.random.default_rng(3).normal(size=(5, grid.d_in))
    stat_keys = [("norm", l, m, nk, which) for l, m in cells(grid) for nk in norm_keys(grid)
                 for which in ("run_mean", "run_var")]
    stats_before = [grid.get_param(key) for key in stat_keys]
    a, _ = forward_task(grid, task, x, mode="eval")
    b, _ = forward_task(grid, task, x, mode="eval")
    np.testing.assert_array_equal(a, b)
    for key, before in zip(stat_keys, stats_before):
        np.testing.assert_array_equal(grid.get_param(key), before)


def test_train_forward_updates_only_used_instances():
    grid = make_grid(L=2, M=4, N=2, norm_mode="per-task", seed=6)
    ta, tb = grid.tasks
    x = np.random.default_rng(4).normal(size=(6, grid.d_in))
    forward_task(grid, ta, x, mode="train")
    on_path = set(ta.path.modules())
    for l, m in cells(grid):
        # task b's instances never touched; task a's touched only on-path
        assert not grid.get_param(("norm", l, m, tb.id, "run_mean")).any()
        touched = grid.get_param(("norm", l, m, ta.id, "run_mean")).any() or \
            (grid.get_param(("norm", l, m, ta.id, "run_var")) != 1.0).any()
        assert touched == ((l, m) in on_path)


def test_forward_input_validation():
    grid = make_grid(seed=7)
    task = grid.tasks[0]
    with pytest.raises(InputError):
        forward_task(grid, task, np.zeros((3, grid.d_in + 1)))
    with pytest.raises(InputError):
        forward_task(grid, task, np.array([[np.nan] * grid.d_in]))
    other = ModuleGrid(2, 4, 6, 10, seed=9)
    with pytest.raises(InputError):
        forward_task(other, task, np.zeros((3, 6)))
    pathless = register_task(grid, 2)
    with pytest.raises(InputError):
        forward_task(grid, pathless, np.zeros((3, grid.d_in)))


@pytest.mark.parametrize("entry", ["path_index", "trainable_keys", "freeze_fingerprint",
                                   "forward_task", "freeze"])
def test_a_task_of_another_grid_is_rejected(entry):
    # the same shape, a colliding id and the same Path object: only the
    # registration tells the tasks apart, so the cached index must not answer
    grid, other = make_grid(seed=7), make_grid(seed=8)
    mine, foreign = grid.tasks[0], other.tasks[0]
    foreign.path = mine.path
    path_index(grid, mine)
    calls = {
        "path_index": lambda: path_index(grid, foreign),
        "trainable_keys": lambda: trainable_keys(grid, foreign),
        "freeze_fingerprint": lambda: freeze_fingerprint(grid, foreign),
        "forward_task": lambda: forward_task(grid, foreign, np.zeros((3, grid.d_in))),
        "freeze": lambda: freeze(grid, foreign),
    }
    with pytest.raises(InputError, match="task 0 is not registered on this grid"):
        calls[entry]()
    assert not grid.frozen and not grid.frozen_tasks


def test_freeze_of_a_task_the_grid_never_registered_freezes_nothing():
    grid, foreign = ModuleGrid(2, 4, 6, 10, seed=7), make_grid(seed=8).tasks[1]
    with pytest.raises(InputError, match="task 1 is not registered on this grid"):
        freeze(grid, foreign)
    assert not grid.frozen and not grid.frozen_tasks


def test_one_sample_training_batch_rejected():
    # batch norm of one sample: zero variance, zero W gradient, and running
    # variance pulled toward 0
    grid = make_grid(seed=7)
    task = grid.tasks[0]
    x = np.random.default_rng(0).normal(size=(1, grid.d_in))
    with pytest.raises(InputError):
        forward_task(grid, task, x, mode="train")
    logits, _ = forward_task(grid, task, x, mode="eval")
    assert logits.shape == (1, task.c)


# ---------------------------------------------------------------------------
# backward

def _loss_and_grads(grid, task, x, y, mode="train"):
    logits, tape = forward_task(grid, task, x, mode=mode)
    loss, dslice = softmax_xent_slice(logits, y)
    return loss, backward_task(grid, task, tape, dslice)


def test_zero_dlogits_gives_zero_gradients():
    grid = make_grid(seed=8)
    task = grid.tasks[0]
    x = np.random.default_rng(5).normal(size=(4, grid.d_in))
    _, tape = forward_task(grid, task, x, mode="train")
    grads = backward_task(grid, task, tape, np.zeros((4, task.c)))
    for g in grads.values():
        assert not g.any()


def test_gradient_keys_cover_exactly_the_task_surface():
    grid = make_grid(L=3, M=5, N=2, seed=9, norm_mode="per-task")
    task = grid.tasks[0]
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, grid.d_in))
    y = rng.integers(0, task.c, size=5)
    _, grads = _loss_and_grads(grid, task, x, y)
    expected = set()
    nk = grid.norm_key(task.id)
    for (l, m) in task.path.modules():
        expected |= {("block", l, m, "W"), ("norm", l, m, nk, "gamma"),
                     ("norm", l, m, nk, "beta")}
    expected |= {("head", task.id, "W"), ("head", task.id, "b")}
    assert set(grads) == expected


def test_gradients_match_finite_differences():
    # seeds chosen with pre-activations well clear of the ReLU kink, where
    # central differences are meaningful at h=1e-5
    for seed, norm_mode in ((0, "shared"), (7, "per-task")):
        grid = make_grid(L=2, M=3, N=2, d_in=4, d_hid=6, seed=seed,
                         norm_mode=norm_mode, randomize_norms=True)
        task = grid.tasks[0]
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(6, grid.d_in))
        y = rng.integers(0, task.c, size=6)
        for mode in ("train", "eval"):
            _, grads = _loss_and_grads(grid, task, x, y, mode=mode)
            keys = sorted(grads, key=repr)

            def f(plist):
                for k, p in zip(keys, plist):
                    grid.set_param(k, p)
                logits, _ = forward_task(grid, task, x, mode=mode)
                return softmax_xent_slice(logits, y)[0]

            err = finite_diff_check(f, [grid.get_param(k) for k in keys],
                                    [grads[k] for k in keys], h=1e-5)
            assert err < 1e-4, f"{norm_mode}/{mode}: rel err {err}"


def test_train_loss_invariant_to_an_input_shift():
    # batch statistics cancel a per-feature constant before the norm, which
    # is why a block has no bias: shifting every sample by one vector moves
    # each first-layer pre-activation by a constant
    grid = make_grid(L=2, M=3, N=2, seed=13, randomize_norms=True)
    task = grid.tasks[0]
    rng = np.random.default_rng(13)
    x = rng.normal(size=(6, grid.d_in))
    y = rng.integers(0, task.c, size=6)
    loss0, _ = _loss_and_grads(grid, task, x, y, mode="train")
    loss1, _ = _loss_and_grads(grid, task, x + rng.normal(size=grid.d_in), y, mode="train")
    assert abs(loss1 - loss0) < 1e-12


@pytest.mark.parametrize("write", ["set_param", "head_W", "head_b"])
def test_stale_tape_rejected(write):
    # every write between a forward and its backward either bumps the
    # version (set_param) or is refused (the read-only head views)
    grid = make_grid(seed=14)
    task = grid.tasks[0]
    x = np.random.default_rng(7).normal(size=(4, grid.d_in))
    _, tape = forward_task(grid, task, x, mode="train")
    dslice = np.zeros((4, task.c))
    if write == "set_param":
        key = ("head", task.id, "b")
        grid.set_param(key, grid.get_param(key) + 1.0)
        with pytest.raises(ContractError):
            backward_task(grid, task, tape, dslice)
        return
    arena = grid.arena.copy()
    s, e = task.slice
    with pytest.raises(ValueError, match="read-only"):
        getattr(grid, write)[..., s:e] += 1.0
    np.testing.assert_array_equal(grid.arena, arena)
    backward_task(grid, task, tape, dslice)


def test_tape_task_mismatch_rejected():
    grid = make_grid(seed=15)
    ta, tb = grid.tasks
    x = np.random.default_rng(8).normal(size=(4, grid.d_in))
    _, tape = forward_task(grid, ta, x, mode="train")
    with pytest.raises(ContractError):
        backward_task(grid, tb, tape, np.zeros((4, tb.c)))


@pytest.mark.parametrize("start", [1, 2])
def test_tape_of_a_resumed_eval_pass_rejected(start):
    # a resumed pass records only the layers from `start` on (start = L:
    # the head alone), which is not enough for a backward
    grid = make_grid(L=2, seed=17)
    task = grid.tasks[0]
    x = np.random.default_rng(10).normal(size=(4, grid.d_in))
    _, full = forward_task(grid, task, x, mode="eval")
    _, tape = forward_kernel(grid, path_index(grid, task), full.layer_sum(start - 1), False,
                             start=start)
    with pytest.raises(ContractError):
        backward_task(grid, task, tape, np.zeros((4, task.c)))


@pytest.mark.parametrize("case,match", [("another task", "belongs to task 1, not 0"),
                                        ("stale", "stale tape"), ("resumed", "resumed pass")])
def test_a_trainer_workspaces_tape_is_checked_as_its_last_pass(case, match):
    # the trainer's workspace is shared by the tasks of one pass shape, and
    # each pass through it stamps it anew
    grid = make_grid(L=2, seed=19, class_counts=(3, 3))
    start = 1 if case == "resumed" else 0
    grid.frozen |= {(0, m) for m in range(grid.n_modules)}     # a train pass may resume at 1
    ta, tb = grid.tasks
    index = path_index(grid, ta)
    shape = pass_shape(grid, index, 4, start)
    assert shape == pass_shape(grid, path_index(grid, tb), 4, start)
    ws = Workspace(grid, index, shape[0], True, start)
    x = np.random.default_rng(19).normal(size=shape[0])
    _, tape = forward_kernel(grid, index, x, True, start, ws=ws)
    if case == "another task":
        forward_kernel(grid, path_index(grid, tb), x, True, start, ws=ws)
        backward_task(grid, tb, tape, np.zeros((4, tb.c)))    # the tape is now tb's
    elif case == "stale":
        grid.set_param(("head", ta.id, "b"), np.ones(ta.c))
    with pytest.raises(ContractError, match=match):
        backward_task(grid, ta, tape, np.zeros((4, ta.c)))


def test_dslice_of_another_width_rejected():
    grid = make_grid(seed=18)
    task = grid.tasks[0]
    x = np.random.default_rng(11).normal(size=(4, grid.d_in))
    _, tape = forward_task(grid, task, x, mode="train")
    for shape in ((4, grid.c_total), (4, task.c + 1), (3, task.c), (4 * task.c,)):
        with pytest.raises(InputError):
            backward_task(grid, task, tape, np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_dslice_rejected(bad):
    grid = make_grid(seed=3)
    task = grid.tasks[0]
    x = np.random.default_rng(11).normal(size=(4, grid.d_in))
    _, tape = forward_task(grid, task, x, mode="train")
    dslice = np.zeros((4, task.c))
    dslice[2, 1] = bad
    with pytest.raises(InputError, match="non-finite"):
        backward_task(grid, task, tape, dslice)


def test_shared_module_couples_tasks():
    grid = ModuleGrid(2, 4, 5, 8, seed=16)
    ta = register_task(grid, 3)
    tb = register_task(grid, 3)
    ta.path = Path(((0, 1), (0, 1)))
    tb.path = Path(((1, 2), (2, 3)))  # shares (0, 1) with task a
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 5))
    before, _ = forward_task(grid, tb, x, mode="eval")
    key = ("block", 0, 1, "W")  # a task-a update of the shared module
    grid.set_param(key, grid.get_param(key) + 0.5)
    after, _ = forward_task(grid, tb, x, mode="eval")
    assert np.abs(after - before).max() > 0


# ---------------------------------------------------------------------------
# controlled paths and freezing

def test_controlled_paths_disjoint_setup():
    pa, pb = build_controlled_paths(5, 4, 2, shared_layers=())
    for ra, rb in zip(pa.rows, pb.rows):
        assert set(ra) == {0, 1}
        assert set(rb) == {2, 3}


def test_controlled_paths_single_shared_layer():
    pa, pb = build_controlled_paths(5, 4, 2, shared_layers={0})
    assert set(pa.rows[0]) & set(pb.rows[0]) == {0, 1}
    for l in range(1, 5):
        assert not set(pa.rows[l]) & set(pb.rows[l])


def test_controlled_paths_full_sharing():
    pa, pb = build_controlled_paths(5, 4, 2, shared_layers=range(5))
    assert pa == pb


def test_controlled_paths_require_m_equals_2n():
    with pytest.raises(InputError):
        build_controlled_paths(5, 6, 2)
    with pytest.raises(InputError):
        build_controlled_paths(3, 4, 2, shared_layers={7})


def test_nothing_frozen_after_construction():
    grid = make_grid(seed=17)
    for cell in cells(grid):
        assert cell not in grid.frozen


def test_freeze_marks_cells_and_excludes_from_training():
    grid = make_grid(L=2, M=4, N=2, seed=18)
    ta, tb = grid.tasks
    freeze(grid, ta)
    for cell in ta.path.modules():
        assert cell in grid.frozen
    keys = trainable_keys(grid, tb)
    frozen_cells = set(ta.path.modules())
    for key in keys:
        if key[0] == "block":
            assert (key[1], key[2]) not in frozen_cells


def param_hash(grid, key):
    """sha256 of one parameter's bytes."""
    return hashlib.sha256(grid.get_param(key).tobytes()).hexdigest()


def test_frozen_params_bit_stable_under_overlapping_training():
    from part import AdamState, adam_step

    grid = ModuleGrid(2, 4, 5, 8, seed=19)
    ta = register_task(grid, 3)
    tb = register_task(grid, 3)
    ta.path = Path(((0, 1), (0, 1)))
    tb.path = Path(((1, 2), (1, 2)))  # overlaps task a on module 1
    freeze(grid, ta)
    hashes = {k: param_hash(grid, k) for cell in ta.path.modules()
              for k in [("block", *cell, "W")] + [("norm", *cell, SHARED, w) for w in NORM_PARAMS]}
    rng = np.random.default_rng(10)
    states = {}
    for _ in range(100):
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 3, size=6)
        _, grads = _loss_and_grads(grid, tb, x, y)
        for key in trainable_keys(grid, tb):
            p = grid.get_param(key)
            st = states.get(key) or AdamState.for_param(p, lr=1e-2)
            p_new, st = adam_step(p, grads[key], st)
            states[key] = st
            grid.set_param(key, p_new)
    for key, h in hashes.items():
        assert param_hash(grid, key) == h
