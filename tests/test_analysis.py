import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path as FilePath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from part import analysis
from part import (
    DegenerateRepresentation,
    InputError,
    NumericError,
    average_cka_reports,
    balanced_sample,
    capture_activations,
    cka,
    expected_sharing_count,
    gen_synthetic_task,
    hsic,
    layerwise_cka_report,
    shared_layers_from_label,
    sharing_profile,
)
from part.analysis import ActivationSet
from part.net import (
    ModuleGrid,
    Path,
    assign_random_path,
    build_controlled_paths,
    freeze,
    path_index,
    register_task,
)

from conftest import CONSTANT_FLAG, assert_matrix_is_per_pair, make_grid, norm_keys, pair_cka


# ---------------------------------------------------------------------------
# oracles

def hsic_bruteforce(K, L):
    """Naive O(n^4) evaluation of tr(K H L H)/(n-1)^2 with explicit sums."""
    n = K.shape[0]
    H = np.eye(n) - np.ones((n, n)) / n
    total = 0.0
    for i in range(n):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    total += K[i, a] * H[a, b] * L[b, c] * H[c, i]
    return total / (n - 1) ** 2


def profile_bruteforce(paths, M, L):
    """Triple-loop recount of the usage histogram."""
    hist = {}
    for l in range(L):
        for m in range(M):
            t = 0
            for path in paths:
                if m in path.rows[l]:
                    t += 1
            hist[t] = hist.get(t, 0) + 1
    return hist


# ---------------------------------------------------------------------------
# sharing profiles

def test_full_paths_all_shared():
    paths = [Path(((0, 1, 2),) * 4), Path(((0, 1, 2),) * 4)]
    prof = sharing_profile(paths, 3, 4)
    assert prof.histogram == {2: 12}


def test_disjoint_paths_histogram():
    pa, pb = build_controlled_paths(5, 4, 2, shared_layers=())
    prof = sharing_profile([pa, pb], 4, 5)
    assert prof.histogram == {1: 2 * 2 * 5}
    assert sum(prof.histogram.values()) == 4 * 5


def test_profile_matches_bruteforce_recount():
    rng = np.random.default_rng(3)
    for _ in range(20):
        M, N, L, k = 7, 3, 4, 5
        paths = [assign_random_path(M, N, L, rng) for _ in range(k)]
        prof = sharing_profile(paths, M, L)
        assert prof.histogram == profile_bruteforce(paths, M, L)
        assert sum(prof.histogram.values()) == M * L
        # per-layer breakdown sums back to the total
        merged = {}
        for h in prof.per_layer:
            for t, c in h.items():
                merged[t] = merged.get(t, 0) + c
        assert merged == prof.histogram


def test_binomial_expectation_value():
    # closed form for M=12, N=4, L=8, k=10 at multiplicity 4
    assert expected_sharing_count(12, 4, 8, 10, 4) == pytest.approx(21.85032769394908)


def test_profile_rejects_inconsistent_paths():
    with pytest.raises(InputError):
        sharing_profile([Path(((0, 5),))], 4, 1)
    with pytest.raises(InputError):
        sharing_profile([Path(((0, 1),))], 4, 2)


def profile_loop(paths, M, L):
    """Per-cell counting loop, the reference for `sharing_profile`:
    (histogram, per_layer), dicts in the key order it must reproduce."""
    usage = np.zeros((L, M), dtype=np.int64)
    for path in paths:
        for (l, m) in path.modules():
            usage[l, m] += 1
    histogram, per_layer = {}, []
    for l in range(L):
        counts = np.bincount(usage[l], minlength=1)
        layer_hist = {t: int(c) for t, c in enumerate(counts) if c > 0}
        per_layer.append(layer_hist)
        for t, c in layer_hist.items():
            histogram[t] = histogram.get(t, 0) + c
    return histogram, per_layer


@st.composite
def path_sets(draw):
    M = draw(st.integers(1, 9))
    L = draw(st.integers(1, 6))
    rows = st.lists(st.integers(0, M - 1), min_size=1, max_size=M, unique=True)
    paths = draw(st.lists(
        st.lists(rows, min_size=L, max_size=L).map(
            lambda rs: Path(tuple(tuple(sorted(r)) for r in rs))),
        max_size=6))
    return paths, M, L


@settings(max_examples=60, deadline=None)
@given(path_sets())
def test_profile_equals_the_counting_loop(case):
    paths, M, L = case
    prof = sharing_profile(paths, M, L)
    histogram, per_layer = profile_loop(paths, M, L)
    assert list(prof.histogram.items()) == list(histogram.items())
    assert [list(h.items()) for h in prof.per_layer] == [list(h.items()) for h in per_layer]
    assert prof.n_tasks == len(paths)


def test_profile_errors_name_the_first_bad_path():
    bad_depth, bad_module = Path(((0,),)), Path(((0, 1), (2, 7, 9)))
    with pytest.raises(InputError, match=r"^path selects module 7 >= M=4$"):
        sharing_profile([bad_module, bad_depth], 4, 2)
    with pytest.raises(InputError, match=r"^path depth 1 != L=2$"):
        sharing_profile([bad_depth, bad_module], 4, 2)


@pytest.mark.parametrize("use", [path_index, freeze], ids=["path_index", "freeze"])
def test_grid_callers_name_the_bad_path_like_the_profile(use):
    # one check (Path.check) serves every caller, with the profile's messages
    for path, message in [(Path(((0,),)), r"^path depth 1 != L=2$"),
                          (Path(((0, 1), (2, 7, 9))), r"^path selects module 7 >= M=4$")]:
        grid = ModuleGrid(2, 4, 3, 5)
        task = register_task(grid, 2)
        task.path = path
        with pytest.raises(InputError, match=message):
            use(grid, task)
        assert not grid.frozen and not grid.frozen_tasks


# ---------------------------------------------------------------------------
# hsic / cka

def test_hsic_matches_bruteforce_oracle():
    rng = np.random.default_rng(11)
    for n in (3, 4, 6):
        X = rng.normal(size=(n, 3))
        Y = rng.normal(size=(n, 4))
        K, L = X @ X.T, Y @ Y.T
        assert hsic(K, L) == pytest.approx(hsic_bruteforce(K, L), abs=1e-10)


def test_hsic_annihilates_constants():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(5, 3))
    K = X @ X.T
    L = np.full((5, 5), 0.7)
    assert abs(hsic(K, L)) < 1e-12


def test_hsic_symmetry_exact():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(6, 2))
    Y = rng.normal(size=(6, 5))
    K, L = X @ X.T, Y @ Y.T
    assert hsic(K, L) == hsic(L, K)


def test_hsic_input_validation():
    with pytest.raises(InputError):
        hsic(np.eye(2), np.eye(2))  # n < 3
    with pytest.raises(InputError):
        hsic(np.eye(4), np.eye(5))
    asym = np.triu(np.ones((4, 4)))
    with pytest.raises(InputError):
        hsic(asym, np.eye(4))


def test_cka_self_similarity_is_one():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(40, 7))
    for kernel in ("linear", "rbf"):
        assert cka(X, X, kernel=kernel) == pytest.approx(1.0, abs=1e-9)


def test_cka_orthogonal_and_scaling_invariance():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(30, 6))
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    for kernel in ("linear", "rbf"):
        assert cka(X, X @ Q, kernel=kernel) == pytest.approx(1.0, abs=1e-9)
        assert cka(X, 3.7 * X, kernel=kernel) == pytest.approx(1.0, abs=1e-9)
        assert cka(X, -0.4 * X, kernel=kernel) == pytest.approx(1.0, abs=1e-9)


def test_cka_symmetry():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(25, 5))
    Y = rng.normal(size=(25, 8))
    for kernel in ("linear", "rbf"):
        assert cka(X, Y, kernel=kernel) == pytest.approx(cka(Y, X, kernel=kernel), abs=1e-12)


def test_independent_representations_score_low():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(1000, 16))
    Y = rng.normal(size=(1000, 16))
    assert cka(X, Y, kernel="linear") < 0.1
    # the biased estimator under a narrow rbf kernel carries a larger
    # small-sample offset (null sits near 0.107 at frac=0.5)
    assert cka(X, Y, kernel="rbf") < 0.15


def test_linear_cka_equals_frobenius_formula():
    rng = np.random.default_rng(18)
    X = rng.normal(size=(30, 5))
    Y = rng.normal(size=(30, 7))
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    frob = np.linalg.norm(Yc.T @ Xc) ** 2 / (
        np.linalg.norm(Xc.T @ Xc) * np.linalg.norm(Yc.T @ Yc))
    assert cka(Xc, Yc, kernel="linear") == pytest.approx(frob, abs=1e-9)


def test_constant_representation_is_flagged_not_zero():
    rng = np.random.default_rng(19)
    X = rng.normal(size=(10, 3))
    const = np.ones((10, 3))
    for kernel in ("linear", "rbf"):
        with pytest.raises(DegenerateRepresentation):
            cka(X, const, kernel=kernel)


CONSTANT_REPS = {
    "fill 0.1": np.full((400, 16), 0.1),
    "fill 7.7": np.full((400, 16), 7.7),
    "tiled row": np.tile(np.random.default_rng(22).uniform(0.5, 3.0, 16), (400, 1)),
}


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
@pytest.mark.parametrize("name", sorted(CONSTANT_REPS))
def test_constant_representation_raises_whatever_its_rounding(kernel, name):
    # centring these leaves ~1e-17 residues (their column means do not
    # round back to the row), and equal rows' squared distances are not
    # exactly 0, so neither a self-HSIC threshold nor the RBF median check
    # sees them: only the exact every-row-equals-row-0 check does
    const = CONSTANT_REPS[name]
    Y = np.random.default_rng(23).normal(size=const.shape)
    for X, Yb in ((const, Y), (Y, const)):
        with pytest.raises(DegenerateRepresentation, match=f"^{CONSTANT_FLAG}$"):
            cka(X, Yb, kernel=kernel)


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
@pytest.mark.parametrize("name", sorted(CONSTANT_REPS))
def test_constant_representation_is_flagged_in_a_report(kernel, name):
    const = CONSTANT_REPS[name][:60]
    sa, sb = _random_sets(60)
    sa[0].rep = const                       # task a's layer 0
    sb[1].per_module[3] = const             # task b's last module at layer 1
    report = layerwise_cka_report(sa, sb, kernel=kernel)
    assert report.layers[0].task_cka is None
    assert report.layers[0].task_cka_flag == CONSTANT_FLAG
    assert report.layers[1].task_cka is not None
    matrix = report.layers[1].matrix
    assert matrix[-1] == [None] * 6 and [row[-1] for row in matrix] == [None] * 6
    assert all(v is not None for row in matrix[:-1] for v in row[:-1])


def test_rbf_zero_median_of_a_varying_representation_is_still_flagged():
    # 4 of 5 rows equal: 6 of the 10 pairwise distances are zero, so the
    # median is zero although the representation is not constant
    X = np.ones((5, 3))
    X[4] = 2.0
    Y = np.random.default_rng(24).normal(size=(5, 3))
    with pytest.raises(DegenerateRepresentation, match="zero median pairwise distance"):
        cka(X, Y, kernel="rbf")
    assert cka(X, Y, kernel="linear") is not None


def gram_rbf_reference(X, frac, sigma):
    """The RBF Gram in its direct form, which `analysis._gram_rbf` must match
    bit for bit: np.median of the sqrt of the upper-triangle gather, negate
    then divide, and an unconditional blockwise (K + K.T) / 2."""
    sq = np.sum(X * X, axis=1)
    d2 = X @ X.T
    d2 *= 2.0
    for rows in analysis._blocks(X.shape[0]):
        np.subtract(sq[rows, None] + sq[None, :], d2[rows], out=d2[rows])
    np.maximum(d2, 0.0, out=d2)
    if sigma is None:
        n = X.shape[0]
        dist = d2[np.triu(np.ones((n, n), dtype=bool), k=1)]
        np.sqrt(dist, out=dist)
        med = float(np.median(dist, overwrite_input=True))
        if med == 0.0:
            raise DegenerateRepresentation(
                "zero median pairwise distance: representation is constant")
        sigma = frac * med
    if sigma <= 0:
        raise InputError(f"rbf sigma must be positive, got {sigma}")
    np.negative(d2, out=d2)
    d2 /= 2.0 * sigma * sigma
    np.exp(d2, out=d2)
    blocks = analysis._blocks(X.shape[0])
    for i, rows in enumerate(blocks):
        for cols in blocks[i:]:
            total = d2[rows, cols] + d2[cols, rows].T
            d2[rows, cols] = total
            d2[cols, rows] = total.T
    d2 /= 2.0
    return d2


@st.composite
def rbf_problem(draw):
    # n from 3 up, so the n(n-1)/2 upper-triangle count is odd and even;
    # rounded values and repeated rows make tied distances, and the
    # scale puts the distances far below and far above 1
    n = draw(st.integers(3, 64))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d))
    if draw(st.booleans()):
        X = np.round(X * draw(st.sampled_from([1.0, 3.0])))
    repeats = draw(st.integers(0, n - 1))
    if repeats:
        X[rng.integers(0, n, size=repeats)] = X[rng.integers(0, n, size=repeats)]
    if not np.any(X != X[0]):
        X[0] += 1.0
    X *= draw(st.sampled_from([1e-3, 1.0, 1e3]))
    frac = draw(st.sampled_from([0.25, 0.5, 1.0]))
    sigma = draw(st.one_of(st.none(), st.floats(1e-2, 1e2)))
    return X, frac, sigma


@settings(max_examples=40, deadline=None)
@given(rbf_problem())
def test_rbf_gram_matches_the_median_and_symmetrise_reference(problem):
    X, frac, sigma = problem
    try:
        ref = gram_rbf_reference(X, frac, sigma)
    except DegenerateRepresentation as e:      # most pairs are repeats
        with pytest.raises(DegenerateRepresentation, match=str(e)):
            analysis._gram_rbf(X, frac, sigma)
        return
    assert analysis._gram_rbf(X, frac, sigma).tobytes() == ref.tobytes()


def test_rbf_gram_constant_representation_message():
    const = np.full((7, 3), 2.5)
    with pytest.raises(DegenerateRepresentation) as new:
        analysis._gram_rbf(const, 0.5, None)
    with pytest.raises(DegenerateRepresentation) as ref:
        gram_rbf_reference(const, 0.5, None)
    assert str(new.value) == str(ref.value)


@pytest.mark.parametrize("sigma", [None, 1.0])
def test_rbf_gram_overflowing_rows_propagate_nan_like_the_reference(sigma):
    # two rows near 1e200: their squared norms overflow, inf - inf puts a
    # NaN into the upper triangle, and the median (hence sigma) is NaN.
    # NaN sign bits are not compared: negating before dividing flips them.
    # The NaN self-HSIC is a numeric failure
    X = np.random.default_rng(5).normal(size=(9, 3))
    X[[2, 6]] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        K, ref = analysis._gram_rbf(X, 0.5, sigma), gram_rbf_reference(X, 0.5, sigma)
        with pytest.raises(NumericError, match="rbf Gram overflowed"):
            cka(X, X, kernel="rbf", rbf_sigma=sigma)
    assert np.isnan(K[2, 6])
    if sigma is None:
        assert np.isnan(K).all()
    assert np.array_equal(K, ref, equal_nan=True)


@st.composite
def checked_reps(draw):
    # C-ordered, Fortran-ordered and strided views of one representation;
    # distinct random rows, so the RBF median is never zero
    n = draw(st.integers(3, 64))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        X = np.asfortranarray(X)
    elif layout == "strided":
        wide = np.zeros((2 * n, 3 * d))
        wide[::2, ::3] = X
        X = wide[::2, ::3]
    return X


@settings(max_examples=40, deadline=None)
@given(checked_reps(), st.one_of(st.none(), st.floats(1e-2, 1e2)))
def test_grams_of_checked_reps_are_symmetric_bit_for_bit(X, sigma):
    # nothing symmetrises or checks a Gram the package builds: this is
    # what guards numpy computing X @ X.T (RBF) and X^T X (the linear
    # feature Gram) of a C-contiguous X with syrk and mirroring the triangle
    # and an RBF Gram built in a report's slot (NaN-filled here: every
    # element is written before it is read) has the same bits as a fresh one
    (R,) = analysis._check_reps(X)
    assert R.flags.c_contiguous
    G = analysis._gram_linear(R - R.mean(axis=0))
    assert G.shape == (R.shape[1], R.shape[1])
    assert G.tobytes() == G.T.tobytes()
    slots = np.full((2, R.shape[0], R.shape[0]), np.nan)
    K = analysis._gram_rbf(R, 0.5, sigma)
    assert K.tobytes() == K.T.tobytes()
    assert analysis._gram_rbf(R, 0.5, sigma, out=slots[0]).tobytes() == K.tobytes()


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
def test_overflowing_gram_is_a_numeric_error(kernel):
    # finite rows at 1e200 pass the input check, but their squared norms
    # overflow: a non-finite self-HSIC, not a silent NaN or a wrong error
    X = np.random.default_rng(6).normal(size=(9, 3))
    X[[2, 6]] = 1e200
    sa, sb = _random_sets(9)
    sb[1].per_module[3][[2, 6]] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        for call in (lambda: cka(X, X[:, :2], kernel=kernel),
                     lambda: cka(np.arange(18.0).reshape(9, 2), X, kernel=kernel),
                     lambda: layerwise_cka_report(sa, sb, kernel=kernel)):
            with pytest.raises(NumericError, match=f"{kernel} Gram overflowed") as err:
                call()
            assert not isinstance(err.value, DegenerateRepresentation)


def test_cka_range_on_random_pairs():
    rng = np.random.default_rng(20)
    for _ in range(20):
        X = rng.normal(size=(15, 4))
        Y = 0.5 * X + 0.5 * rng.normal(size=(15, 4))
        for kernel in ("linear", "rbf"):
            v = cka(X, Y, kernel=kernel)
            assert -1e-9 <= v <= 1 + 1e-9


def test_cka_input_validation():
    rng = np.random.default_rng(21)
    with pytest.raises(InputError):
        cka(rng.normal(size=(5, 2)), rng.normal(size=(6, 2)))
    with pytest.raises(InputError):
        cka(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
    with pytest.raises(InputError):
        cka(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)), kernel="poly")


# ---------------------------------------------------------------------------
# activation capture

def _grid_with_val(seed=60, c=(4, 4), norm_mode="shared"):
    grid = make_grid(L=3, M=4, N=2, seed=seed, class_counts=c,
                     norm_mode=norm_mode, randomize_norms=True)
    rng = np.random.default_rng(seed)
    for task in grid.tasks:
        _, val = gen_synthetic_task(rng, task.c, 30, grid.d_in, 3.0)
        task.val_ds = val
    return grid


def test_capture_is_reproducible_on_a_snapshot():
    grid = _grid_with_val()
    task = grid.tasks[0]
    a = capture_activations(grid, task, 16)
    b = capture_activations(grid, task, 16)
    for la, lb in zip(a, b):
        np.testing.assert_array_equal(la.rep, lb.rep)
        for m in la.per_module:
            np.testing.assert_array_equal(la.per_module[m], lb.per_module[m])


def test_capture_per_module_sums_to_layer_rep():
    grid = _grid_with_val()
    sets = capture_activations(grid, grid.tasks[0], 16)
    for s in sets:
        total = sum(s.per_module.values())
        np.testing.assert_array_equal(total, s.rep)


def test_capture_rejects_oversized_request():
    grid = _grid_with_val()
    with pytest.raises(InputError):
        capture_activations(grid, grid.tasks[0], 10_000)


def test_balanced_sample_quotas():
    grid = _grid_with_val()
    ds = grid.tasks[0].val_ds
    X, y = balanced_sample(ds, 10)
    counts = np.bincount(y, minlength=4)
    assert counts.max() - counts.min() <= 1
    assert len(y) == 10
    with pytest.raises(InputError):
        balanced_sample(ds, 3)  # below one per class


# ---------------------------------------------------------------------------
# layerwise reports

def test_identical_sets_score_one_per_layer():
    grid = _grid_with_val()
    task = grid.tasks[0]
    sets = capture_activations(grid, task, 16)
    report = layerwise_cka_report(sets, sets, kernel="linear", setup="self")
    for lc in report.layers:
        assert lc.task_cka == pytest.approx(1.0, abs=1e-9)
        assert lc.shared_modules == sorted(sets[lc.layer].per_module)
        # all-pairs matrix is symmetric with unit diagonal
        M = np.array([[np.nan if v is None else v for v in row] for row in lc.matrix])
        np.testing.assert_allclose(M, M.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(M), 1.0, atol=1e-9)


def test_controlled_setup_flags_shared_modules():
    grid = make_grid(L=3, M=4, N=2, seed=61, class_counts=(3, 3),
                     randomize_norms=True)
    pa, pb = build_controlled_paths(3, 4, 2, shared_layers={1})
    grid.tasks[0].path, grid.tasks[1].path = pa, pb
    rng = np.random.default_rng(61)
    for task in grid.tasks:
        _, val = gen_synthetic_task(rng, task.c, 30, grid.d_in, 3.0)
        task.val_ds = val
    sa = capture_activations(grid, grid.tasks[0], 15)
    sb = capture_activations(grid, grid.tasks[1], 15)
    report = layerwise_cka_report(sa, sb, kernel="rbf", setup="layer 2")
    assert report.layers[0].shared_modules == []
    assert report.layers[1].shared_modules == [0, 1]
    assert report.layers[2].shared_modules == []
    assert report.setup == "layer 2"
    assert report.kernel == "rbf(frac=0.5)"


def test_degenerate_layer_is_flagged_in_report():
    grid = _grid_with_val(seed=62)
    task = grid.tasks[0]
    # zero the whole path: every representation becomes constant
    for (l, m) in task.path.modules():
        keys = [("block", l, m, "W")]
        keys += [("norm", l, m, nk, which) for nk in norm_keys(grid)
                 for which in ("gamma", "beta", "run_mean")]
        for key in keys:
            grid.set_param(key, np.zeros_like(grid.get_param(key)))
        for nk in norm_keys(grid):
            grid.set_param(("norm", l, m, nk, "run_var"), np.ones(grid.d_hid))
    sets = capture_activations(grid, task, 12)
    report = layerwise_cka_report(sets, sets, kernel="linear", setup="dead")
    for lc in report.layers:
        assert lc.task_cka is None
        assert lc.task_cka_flag is not None


def _random_sets(n, n_layers=2, seed=0):
    """Two tasks' layer representations, three modules each (p = 6)."""
    rng = np.random.default_rng(seed)
    sets = []
    for task_id, mods in ((0, (0, 1, 2)), (1, (1, 2, 3))):
        layers = []
        for l in range(n_layers):
            per_module = {m: rng.normal(size=(n, 5)) for m in mods}
            layers.append(ActivationSet(task_id=task_id, layer=l,
                                        rep=sum(per_module.values()), per_module=per_module))
        sets.append(layers)
    return sets


def test_report_rejects_layers_of_another_sample_count():
    # every layer's Grams share the report's n x n slots
    sa, sb = _random_sets(12)
    for sets in (sa, sb):
        s = sets[1]
        sets[1] = ActivationSet(task_id=s.task_id, layer=1, rep=s.rep[:9],
                                per_module={m: rep[:9] for m, rep in s.per_module.items()})
    with pytest.raises(InputError, match="different sample counts"):
        layerwise_cka_report(sa, sb, kernel="linear")


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
def test_report_builds_one_gram_per_representation(monkeypatch, kernel):
    built = []
    for name in ("_gram_linear", "_gram_rbf"):
        real = getattr(analysis, name)
        monkeypatch.setattr(analysis, name,
                            lambda X, *args, real=real, **buffers:
                            built.append(X) or real(X, *args, **buffers))
    sa, sb = _random_sets(12, n_layers=3)
    report = layerwise_cka_report(sa, sb, kernel=kernel)
    p = len(report.layers[0].labels)
    assert p == 6
    assert len(built) == len(report.layers) * (2 + p)


@st.composite
def slot_problem(draw):
    """Two tasks' random layer representations: per layer, 1-4 modules per
    task (so p is odd or even), and maybe one constant task or module
    representation."""
    n = draw(st.integers(3, 24))
    d = draw(st.integers(1, 4))
    layers = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4),
                                     st.sampled_from([None, "task", "module"])),
                           min_size=1, max_size=3))
    kernel, sigma = draw(st.sampled_from([("linear", None), ("rbf", None), ("rbf", 0.7),
                                          ("rbf", 3.0)]))
    return n, d, layers, kernel, sigma, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(slot_problem())
@example((5, 2, [(2, 1, "module"), (1, 1, None), (3, 2, "task")], "rbf", None, 0))
@example((4, 3, [(1, 2, "task"), (4, 3, "module")], "linear", None, 1))
@example((6, 1, [(2, 3, None), (1, 2, "module")], "rbf", 0.7, 2))
def test_reused_slots_hold_no_stale_data(problem):
    # every layer's RBF Grams reuse one set of slots, NaN-filled before the
    # report: each entry must equal the pair taken alone in fresh memory
    # (conftest.pair_cka), bit for bit
    n, d, layers, kernel, sigma, seed = problem
    rng = np.random.default_rng(seed)
    set_a, set_b = [], []
    for l, (count_a, count_b, constant) in enumerate(layers):
        for task_id, count, out in ((0, count_a, set_a), (1, count_b, set_b)):
            per_module = {m: rng.normal(size=(n, d)) * rng.uniform(0.1, 5.0)
                          for m in range(count)}
            if constant == "module" and task_id == 1:
                per_module[0] = np.full((n, d), 0.25)
            rep = sum(per_module.values())
            if constant == "task" and task_id == 0:
                rep = np.full((n, d), -1.5)
            out.append(ActivationSet(task_id=task_id, layer=l, rep=rep,
                                     per_module=per_module))
    allocated = []

    def nan_slots(p, n):
        allocated.append(p)
        return np.full((p, n, n), np.nan)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_gram_slots", nan_slots)
        report = layerwise_cka_report(set_a, set_b, kernel=kernel, rbf_sigma=sigma)
    # the linear kernel works on features and takes no slots
    assert allocated == ([max(2, *(a + b for a, b, _ in layers))] if kernel == "rbf" else [])
    for la, lb, lc in zip(set_a, set_b, report.layers):
        assert (lc.task_cka, lc.task_cka_flag) == pair_cka(la.rep, lb.rep, kernel, 0.5, sigma)
        reps = [*la.per_module.values(), *lb.per_module.values()]
        assert_matrix_is_per_pair(lc.matrix, reps, kernel, 0.5, sigma)


def gram_cka_reference(X, Y, kernel, sigma):
    """(CKA, flag) of one pair by the n x n Gram formula, independent of the
    package's: K = X X^T or the direct RBF form, centred out of place,
    hsic(K, L) = sum(K * L) / (n-1)^2 as one product and pairwise sum."""
    n = X.shape[0]
    grams = []
    for R in (X, Y):
        if (R == R[0]).all():
            return None, CONSTANT_FLAG
        try:
            K = R @ R.T if kernel == "linear" else gram_rbf_reference(R, 0.5, sigma)
        except DegenerateRepresentation as e:
            return None, str(e)
        grams.append(K - K.mean(axis=0, keepdims=True) - K.mean(axis=1, keepdims=True)
                     + K.mean())
    Kx, Ky = grams
    hxx, hyy, hxy = (float(np.sum(A * B) / (n - 1) ** 2) for A, B in
                     ((Kx, Kx), (Ky, Ky), (Kx, Ky)))
    if hxx <= 1e-300 or hyy <= 1e-300:
        return None, "numerically constant representation: self-HSIC is zero"
    return hxy / math.sqrt(hxx * hyy), None


@st.composite
def gram_problem(draw):
    """p representations of n samples and d features (d > n too), each
    scaled and shifted, some constant (a fill or a tiled row), under either
    kernel with a median or an absolute sigma."""
    n = draw(st.integers(3, 40))
    d = draw(st.integers(1, 48))
    p = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reps = []
    for _ in range(p):
        kind = draw(st.sampled_from(["normal", "normal", "normal", "fill", "row"]))
        if kind == "fill":
            reps.append(np.full((n, d), draw(st.sampled_from([0.1, 7.7, -1.5]))))
        elif kind == "row":
            reps.append(np.tile(rng.uniform(0.5, 3.0, d), (n, 1)))
        else:
            reps.append(rng.normal(size=(n, d)) * rng.uniform(0.1, 5.0)
                        + rng.uniform(-2.0, 2.0, d))
    kernel, sigma = draw(st.sampled_from([("linear", None), ("rbf", None), ("rbf", 0.7),
                                          ("rbf", 3.0), ("rbf", 20.0)]))
    return reps, kernel, sigma


@settings(max_examples=60, deadline=None)
@given(gram_problem())
@example(([np.full((5, 3), 0.1), np.arange(15.0).reshape(5, 3)], "linear", None))
@example(([np.array([[0.0], [1e-170], [0.0]]), np.eye(3, 2)], "linear", None))  # underflow
@example(([np.arange(12.0).reshape(3, 4) ** 2, np.tile([1.0, 2.0, 3.0, 4.0], (3, 1)),
           np.eye(3, 4)], "rbf", None))
def test_report_entries_match_the_gram_formula(problem):
    # the package takes linear HSIC from centred features and RBF pair sums
    # by einsum; the Gram formula gives the same numbers up to rounding
    reps, kernel, sigma = problem
    per_module = dict(enumerate(reps))
    sa = [ActivationSet(task_id=0, layer=0, rep=reps[0], per_module=per_module)]
    sb = [ActivationSet(task_id=1, layer=0, rep=reps[1], per_module={})]
    lc = layerwise_cka_report(sa, sb, kernel=kernel, rbf_sigma=sigma).layers[0]
    value, flag = gram_cka_reference(reps[0], reps[1], kernel, sigma)
    assert lc.task_cka_flag == flag
    assert (lc.task_cka is None) == (value is None)
    if value is not None:
        assert abs(lc.task_cka - value) <= 1e-12
    for i, X in enumerate(reps):
        for j, Y in enumerate(reps):
            value = gram_cka_reference(X, Y, kernel, sigma)[0]
            assert (lc.matrix[i][j] is None) == (value is None)
            if value is not None:
                assert abs(lc.matrix[i][j] - value) <= 1e-12


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
def test_report_peak_memory_stays_below_one_layer_of_grams(kernel):
    # the report holds one set of p slots for all layers: each Gram, its
    # pair products and its RBF temporaries go into them, and the last
    # Gram's pair products into the other Gram's slot, so no product
    # temporary joins the p Grams. Measured at n = 300: linear 6.10, rbf
    # 6.63 n^2 float64s (the rbf median's upper triangle next to the slots)
    n, p = 300, 6
    layerwise_cka_report(*_random_sets(4), kernel=kernel)   # numpy's lazy imports
    sa, sb = _random_sets(n)
    tracemalloc.start()
    try:
        layerwise_cka_report(sa, sb, kernel=kernel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (p + 0.75) * n * n * 8


def test_linear_report_peak_memory_stays_below_one_gram():
    # linear CKA works on centred n x d features and d x d products: no
    # n x n array is built at all
    n = 300
    layerwise_cka_report(*_random_sets(4), kernel="linear")
    sa, sb = _random_sets(n)
    tracemalloc.start()
    try:
        layerwise_cka_report(sa, sb, kernel="linear")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
def test_cka_takes_gram_slots_only_for_rbf(monkeypatch, kernel):
    allocated = []
    real = analysis._gram_slots
    monkeypatch.setattr(analysis, "_gram_slots",
                        lambda p, n: allocated.append(p) or real(p, n))
    rng = np.random.default_rng(25)
    cka(rng.normal(size=(20, 3)), rng.normal(size=(20, 4)), kernel=kernel)
    assert allocated == ([2] if kernel == "rbf" else [])


THREADS_SCRIPT = """
import hashlib, json, sys
import numpy as np
from part.analysis import ActivationSet, layerwise_cka_report
rng = np.random.default_rng(26)
sets = []
for task_id, mods in ((0, (0, 1, 2)), (1, (2, 3, 4))):
    per_module = {m: rng.normal(size=(400, 16)) for m in mods}
    sets.append([ActivationSet(task_id, 0, sum(per_module.values()), per_module)])
reports = {k: layerwise_cka_report(*sets, kernel=k).layers[0] for k in ("linear", "rbf")}
doc = {k: [lc.task_cka, lc.matrix] for k, lc in reports.items()}
print(hashlib.sha256(json.dumps(doc).encode()).hexdigest())
"""


def test_report_bits_do_not_depend_on_the_blas_thread_count():
    # the pair sums are einsum, which does not go through BLAS; the BLAS
    # products (Grams, X^T Y) split no dot product across threads
    root = FilePath(__file__).resolve().parent.parent
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(root / "src"))
        result = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        digests.add(result.stdout)
    assert len(digests) == 1


def test_average_cka_reports_elementwise_mean():
    grid = _grid_with_val(seed=63)
    ta, tb = grid.tasks
    sa = capture_activations(grid, ta, 12)
    sb = capture_activations(grid, tb, 12)
    r1 = layerwise_cka_report(sa, sb, kernel="linear", setup="x")
    # a second "run": same shapes, different values via scaled reps
    sa2 = capture_activations(grid, ta, 12)
    for s in sa2:
        s.rep = s.rep + 0.05 * np.random.default_rng(0).normal(size=s.rep.shape)
    r2 = layerwise_cka_report(sa2, sb, kernel="linear", setup="x")
    avg = average_cka_reports([r1, r2])
    for l in range(len(avg.layers)):
        expect = np.mean([r1.layers[l].task_cka, r2.layers[l].task_cka])
        assert avg.layers[l].task_cka == pytest.approx(expect, abs=1e-12)
        i, j = 0, 1
        expect_m = np.mean([r1.layers[l].matrix[i][j], r2.layers[l].matrix[i][j]])
        assert avg.layers[l].matrix[i][j] == pytest.approx(expect_m, abs=1e-12)


def test_heatmap_csv_shape_and_clamping():
    grid = _grid_with_val(seed=64)
    ta, tb = grid.tasks
    sa = capture_activations(grid, ta, 12)
    sb = capture_activations(grid, tb, 12)
    report = layerwise_cka_report(sa, sb, kernel="linear", setup="csv")
    text = report.heatmap_csv(0)
    lines = text.strip().split("\n")
    assert lines[0].startswith("# shared_modules:")
    header = lines[1].split(",")
    assert header[0] == ""
    assert len(header) - 1 == len(report.layers[0].labels)
    for line in lines[2:]:
        cells = line.split(",")[1:]
        for cell in cells:
            v = float(cell)
            assert np.isnan(v) or 0.0 <= v <= 1.0


# ---------------------------------------------------------------------------
# setup labels

def test_setup_label_parsing():
    assert shared_layers_from_label("no layer", 5) == ()
    assert shared_layers_from_label("layer 1", 5) == (0,)
    assert shared_layers_from_label("layer 3", 5) == (2,)
    assert shared_layers_from_label("layer 123", 5) == (0, 1, 2)
    assert shared_layers_from_label("layer 12345", 5) == (0, 1, 2, 3, 4)
    with pytest.raises(InputError):
        shared_layers_from_label("layer 6", 5)
    with pytest.raises(InputError):
        shared_layers_from_label("all layers", 5)
