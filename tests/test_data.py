import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from part import CsvParseError, InputError
from part.data import (
    BatchPlan,
    Dataset,
    _standardize,
    gen_synthetic_task,
    load_csv,
    next_batches,
    oversample_to_equal,
    standardize_pair,
    write_csv,
)


def linear_probe_accuracy(train: Dataset, val: Dataset) -> float:
    """Independent oracle: least-squares one-hot regression, argmax readout."""
    X = np.hstack([train.features, np.ones((train.n, 1))])
    T = np.eye(train.c)[train.labels]
    W, *_ = np.linalg.lstsq(X, T, rcond=None)
    Xv = np.hstack([val.features, np.ones((val.n, 1))])
    pred = np.argmax(Xv @ W, axis=1)
    return float(np.mean(pred == val.labels))


# ---------------------------------------------------------------------------
# synthetic generation

def test_wide_margin_task_is_linearly_separable():
    rng = np.random.default_rng(0)
    train, val = gen_synthetic_task(rng, c=2, n_per_class=100, d=6, margin=8.0)
    assert linear_probe_accuracy(train, val) >= 0.99


def test_tiny_margin_task_is_at_chance():
    rng = np.random.default_rng(1)
    train, val = gen_synthetic_task(rng, c=4, n_per_class=100, d=6, margin=0.01)
    acc = linear_probe_accuracy(train, val)
    assert 0.10 <= acc <= 0.40  # 4-class chance is 0.25


def test_same_seed_gives_identical_datasets():
    a_train, a_val = gen_synthetic_task(np.random.default_rng(7), 3, 40, 5, 4.0)
    b_train, b_val = gen_synthetic_task(np.random.default_rng(7), 3, 40, 5, 4.0)
    np.testing.assert_array_equal(a_train.features, b_train.features)
    np.testing.assert_array_equal(a_train.labels, b_train.labels)
    np.testing.assert_array_equal(a_val.features, b_val.features)
    np.testing.assert_array_equal(a_val.labels, b_val.labels)


def test_split_is_stratified_80_20():
    train, val = gen_synthetic_task(np.random.default_rng(2), 3, 50, 4, 5.0)
    assert train.n == 3 * 40
    assert val.n == 3 * 10
    for k in range(3):
        assert (train.labels == k).sum() == 40
        assert (val.labels == k).sum() == 10


def test_train_split_is_standardized():
    train, _ = gen_synthetic_task(np.random.default_rng(3), 2, 80, 5, 6.0)
    np.testing.assert_allclose(train.features.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(train.features.std(axis=0), 1.0, atol=1e-12)


def reference_standardize(train, val):
    """`_standardize` with numpy's own mean and std."""
    mean, std = np.mean(train, axis=0), np.std(train, axis=0)
    std = np.where(std > 0, std, 1.0)
    return (train - mean) / std, (val - mean) / std


def reference_gen_synthetic_task(rng, c, n_per_class, d, margin, name):
    """`gen_synthetic_task` with one draw per class and per-class splits:
    the draws the generator must make, in the order it must make them."""
    means = rng.normal(size=(c, d))
    dmin = min(np.linalg.norm(means[i] - means[j]) for i in range(c) for j in range(i + 1, c))
    means *= margin / dmin
    X = np.concatenate([means[k] + rng.normal(size=(n_per_class, d)) for k in range(c)])
    y = np.repeat(np.arange(c), n_per_class)
    n_val = max(1, round(0.2 * n_per_class))
    train_idx, val_idx = [], []
    for k in range(c):
        kidx = rng.permutation(np.flatnonzero(y == k))
        val_idx.append(kidx[:n_val])
        train_idx.append(kidx[n_val:])
    train_idx, val_idx = np.concatenate(train_idx), np.concatenate(val_idx)
    train_X, val_X = reference_standardize(X[train_idx], X[val_idx])
    return ((train_X, y[train_idx], f"{name}-train"), (val_X, y[val_idx], f"{name}-val"))


@settings(max_examples=60, deadline=None)
@given(c=st.integers(2, 8), n_per_class=st.integers(5, 60), d=st.integers(2, 10),
       margin=st.floats(0.01, 50.0), seed=st.integers(0, 2**63 - 1))
def test_synthetic_task_equals_per_class_draws_bit_for_bit(c, n_per_class, d, margin, seed):
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    got = gen_synthetic_task(rng, c, n_per_class, d, margin, name="t")
    want = reference_gen_synthetic_task(twin, c, n_per_class, d, margin, name="t")
    for ds, (features, labels, name) in zip(got, want):
        assert ds.features.tobytes() == features.tobytes()
        assert ds.labels.dtype == np.int64 and np.array_equal(ds.labels, labels)
        assert (ds.name, ds.c) == (name, c)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("n, d, constant", [
    (9, 1, None), (10, 1, None), (300, 1, None), (300, 1, 0), (1, 3, None),
    (2, 4, 1), (40, 3, 2), (257, 6, 0)])
def test_standardize_takes_numpys_mean_and_std(n, d, constant):
    # a lone column is one contiguous run, which numpy sums pairwise; a wide
    # offset makes another summation order show in the low bits
    rng = np.random.default_rng(n * d)
    train, val = 1e6 + 1e3 * rng.normal(size=(n, d)), 1e6 + 1e3 * rng.normal(size=(5, d))
    if constant is not None:
        train[:, constant] = 7.25
    for got, want in zip(_standardize(train, val), reference_standardize(train, val)):
        assert got.tobytes() == want.tobytes()


def test_degenerate_parameters_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(InputError):
        gen_synthetic_task(rng, c=1, n_per_class=20, d=4, margin=1.0)
    with pytest.raises(InputError):
        gen_synthetic_task(rng, c=2, n_per_class=20, d=1, margin=1.0)
    with pytest.raises(InputError):
        gen_synthetic_task(rng, c=2, n_per_class=20, d=4, margin=0.0)
    with pytest.raises(InputError, match="^n_per_class must be >= 5, got 4$"):
        gen_synthetic_task(rng, c=2, n_per_class=4, d=4, margin=1.0)


@pytest.mark.parametrize("sizes, name", [
    ((2.0, 10, 3), "c"), ((True, 10, 3), "c"), (("3", 10, 3), "c"),
    ((2, 10.0, 3), "n_per_class"), ((2, np.float64(10), 3), "n_per_class"),
    ((2, False, 3), "n_per_class"), ((2, 10, 3.0), "d"), ((2, 10, True), "d")])
def test_synthetic_sizes_that_are_not_integers_are_input_errors(sizes, name):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(InputError, match=f"^{name} must be an integer, got "):
        gen_synthetic_task(rng, *sizes, 1.0)
    assert rng.bit_generator.state == state


def test_numpy_integer_synthetic_sizes_give_the_python_int_bits():
    got = gen_synthetic_task(np.random.default_rng(4), np.int32(3), np.int64(12), np.uint8(4), 2.0)
    want = gen_synthetic_task(np.random.default_rng(4), 3, 12, 4, 2.0)
    for a, b in zip(got, want):
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.labels, b.labels) and a.labels.dtype == b.labels.dtype
        assert type(a.c) is int and a.c == b.c


@settings(max_examples=60, deadline=None)
@given(c=st.integers(2, 8), n_per_class=st.integers(5, 60), d=st.integers(2, 10),
       margin=st.floats(0.01, 50.0), seed=st.integers(0, 2**63 - 1))
def test_synthetic_splits_pass_the_checked_constructor_unchanged(c, n_per_class, d, margin,
                                                                 seed):
    # the splits skip Dataset's checks; each passes them, and the checked
    # constructor stores the same fields
    for ds in gen_synthetic_task(np.random.default_rng(seed), c, n_per_class, d, margin):
        checked = Dataset(features=ds.features, labels=ds.labels, c=ds.c, name=ds.name)
        assert ds.features.dtype == np.float64 and ds.labels.dtype == np.int64
        assert type(ds.c) is int
        for field in ("features", "labels"):
            got, want = getattr(ds, field), getattr(checked, field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert (type(checked.c), checked.c, checked.name) == (int, ds.c, ds.name)


def test_synthetic_splits_skip_the_dataset_checks(monkeypatch):
    def refuse(self):
        raise AssertionError("Dataset checks ran")

    monkeypatch.setattr(Dataset, "__post_init__", refuse)
    train, val = gen_synthetic_task(np.random.default_rng(3), 3, 10, 4, 2.0)
    assert (train.n, val.n) == (24, 6)


@pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
@pytest.mark.parametrize("margin", [1e308])
def test_a_margin_that_gives_non_finite_features_is_refused(margin):
    with pytest.raises(InputError, match="^dataset 'synthetic-train' has non-finite features$"):
        gen_synthetic_task(np.random.default_rng(0), 3, 10, 4, margin)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("margin", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_margin_is_refused_before_any_draw(margin):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(InputError, match=f"^margin must be finite, got {margin}$"):
        gen_synthetic_task(rng, 3, 10, 4, margin)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("features, labels, c, message", [
    ([1.0, 2.0], [0, 1], 2, r"dataset 'd' features must be 2-D, got shape \(2,\)"),
    ([[1.0], [2.0]], [0, 1, 1], 2, "dataset 'd' labels must be one per sample"),
    (np.empty((0, 4)), np.empty(0, int), 0, "dataset 'd' needs at least one class, got c=0"),
    ([[1.0], [np.inf]], [0, 1], 2, "dataset 'd' has non-finite features"),
    ([[1.0], [2.0]], [0, 1], 3, "dataset 'd' has fewer samples than classes"),
    ([[1.0], [2.0]], [0, 2], 2, r"labels outside \[0,2\) in dataset 'd'"),
    ([[1.0], [2.0], [3.0]], [0, 0, 2], 3, "dataset 'd' is missing classes: expected 3, saw 2"),
    ([[1.0], [2.0], [3.0]], [0.5, 1, 0], 2,
     "dataset 'd' labels must be integers, got dtype float64"),
    ([[1.0], [2.0]], [False, True], 2, "dataset 'd' labels must be integers, got dtype bool"),
    ([[1.0], [2.0]], [0, 1], 2.0, "dataset 'd' class count must be an int, got 2.0"),
    ([[1.0], [2.0]], [0, 1], True, "dataset 'd' class count must be an int, got True"),
], ids=["1-D", "label-count", "no-class", "non-finite", "few-samples", "label-range",
        "missing-class", "float-labels", "bool-labels", "float-c", "bool-c"])
def test_malformed_dataset_rejected(features, labels, c, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        Dataset(features=np.array(features), labels=np.array(labels), c=c, name="d")


@pytest.mark.parametrize("c", [np.int64(2), np.int32(2), np.uint8(2)])
def test_a_numpy_integer_class_count_is_stored_as_int(c):
    ds = Dataset(features=np.array([[1.0], [2.0]]), labels=np.array([0, 1]), c=c, name="d")
    assert type(ds.c) is int and ds.c == 2


# ---------------------------------------------------------------------------
# oversampling

def _blob(rng, n, c=2, d=3, name="ds"):
    labels = np.arange(n) % c
    return Dataset(features=rng.normal(size=(n, d)), labels=labels, c=c, name=name)


def test_oversample_of_nothing_is_an_input_error():
    with pytest.raises(InputError, match="^no datasets to oversample$"):
        oversample_to_equal([], np.random.default_rng(0))


def test_oversample_to_max_size():
    rng = np.random.default_rng(4)
    out = oversample_to_equal([_blob(rng, 100), _blob(rng, 250), _blob(rng, 250)], rng)
    assert [ds.n for ds in out] == [250, 250, 250]


def test_oversample_keeps_equal_inputs_unchanged():
    rng = np.random.default_rng(5)
    inputs = [_blob(rng, 60), _blob(rng, 60)]
    out = oversample_to_equal(inputs, rng)
    assert out[0] is inputs[0]
    assert out[1] is inputs[1]


def test_oversample_originals_are_prefix_and_padding_from_original():
    rng = np.random.default_rng(6)
    small = _blob(rng, 10)
    big = _blob(rng, 50)
    out_small, out_big = oversample_to_equal([small, big], rng)
    np.testing.assert_array_equal(out_small.features[:10], small.features)
    np.testing.assert_array_equal(out_small.labels[:10], small.labels)
    assert out_big is big
    # every padding row equals some original row
    for row in out_small.features[10:]:
        assert any(np.array_equal(row, orig) for orig in small.features)


def test_oversample_preserves_class_proportions_on_average():
    # Monte-Carlo: sizes [10, 1000], mean class proportions over 100 seeds
    base_rng = np.random.default_rng(7)
    small = _blob(base_rng, 10)
    orig_p = np.bincount(small.labels, minlength=2) / small.n
    props = []
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        big = _blob(rng, 1000)
        out_small, _ = oversample_to_equal([small, big], rng)
        props.append(np.bincount(out_small.labels, minlength=2) / out_small.n)
    mean_p = np.mean(props, axis=0)
    assert np.all(np.abs(mean_p - orig_p) <= 0.05)


# ---------------------------------------------------------------------------
# CSV round-trip

def test_minimal_csv_loads(tmp_path):
    p = tmp_path / "mini.csv"
    p.write_text("label,f0,f1\n0,1.5,-2.0\n1,0.25,3.0\n", encoding="utf-8")
    ds = load_csv(p)
    assert ds.n == 2
    assert ds.c == 2
    np.testing.assert_array_equal(ds.features, [[1.5, -2.0], [0.25, 3.0]])


def test_label_gap_rejected(tmp_path):
    p = tmp_path / "gap.csv"
    p.write_text("label,f0\n0,1.0\n2,2.0\n", encoding="utf-8")
    with pytest.raises(CsvParseError, match="non-contiguous"):
        load_csv(p)


def test_roundtrip_write_then_load(tmp_path, rng):
    labels = np.arange(20) % 3
    ds = Dataset(features=rng.normal(size=(20, 4)), labels=labels, c=3, name="rt")
    p = tmp_path / "rt.csv"
    write_csv(p, ds)
    back = load_csv(p, name="rt")
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.c == ds.c



@st.composite
def csv_dataset(draw):
    """Any finite features (signed zeros, subnormals and extremes included)
    and labels covering every class."""
    c = draw(st.integers(1, 4))
    n = draw(st.integers(c, 8))
    d = draw(st.integers(1, 4))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=n * d, max_size=n * d))
    order = draw(st.permutations(range(n)))
    return Dataset(features=np.array(values).reshape(n, d),
                   labels=[i % c for i in order], c=c, name="rt")


@settings(max_examples=25, deadline=None)
@given(csv_dataset())
def test_csv_roundtrip_keeps_every_bit(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rt.csv"
        write_csv(path, ds)
        back = load_csv(path)
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labels.tolist() == ds.labels.tolist()
    assert (back.c, back.name) == (ds.c, "rt")

def test_csv_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("label,f0\n0,1.0\n1,zebra\n", encoding="utf-8")
    with pytest.raises(CsvParseError) as exc:
        load_csv(p)
    assert exc.value.line == 3

    p2 = tmp_path / "empty.csv"
    p2.write_text("", encoding="utf-8")
    with pytest.raises(CsvParseError, match="missing header"):
        load_csv(p2)

    p3 = tmp_path / "header.csv"
    p3.write_text("labels,f0\n0,1.0\n", encoding="utf-8")
    with pytest.raises(CsvParseError):
        load_csv(p3)


@pytest.mark.parametrize("text, line, message", [
    ("label\n0\n", 1, "no feature columns"),
    ("label,f1\n0,1.0\n", 1, "header must be label,f0"),
    ("label,f0\n0,1.0\n1,2.0,3.0\n", 3, "expected 2 cells, got 3"),
    ("label,f0\n0,1.0\none,2.0\n", 3, "non-integer label 'one'"),
    ("label,f0\n\n", 2, "file has no samples"),
    ("label,f0\n0,1.0\n-1,2.0\n", 1, "negative label"),
], ids=["no-features", "header", "cell-count", "label-text", "no-samples", "negative-label"])
def test_malformed_csv_is_a_parse_error_naming_its_line(tmp_path, text, line, message):
    p = tmp_path / "bad.csv"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(CsvParseError, match=f"^{re.escape(str(p))}:{line}: {message}$") as exc:
        load_csv(p)
    assert exc.value.line == line


def test_failed_csv_write_keeps_the_old_file(tmp_path, rng, monkeypatch):
    from part import checkpoint

    target = tmp_path / "train.csv"
    write_csv(target, _blob(rng, 10))
    before = target.read_bytes()

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.os, "replace", boom)
    with pytest.raises(OSError):
        write_csv(target, _blob(rng, 12))
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["train.csv"]


def test_missing_file_is_input_error():
    with pytest.raises(InputError):
        load_csv("/nonexistent/never.csv")


# ---------------------------------------------------------------------------
# batching

def test_batch_sizes_and_cursor(rng):
    ds = _blob(rng, 10)
    plan = BatchPlan.for_dataset(ds, 4, rng)
    batches = next_batches(ds, plan, 3)
    assert [len(b) for b in batches] == [4, 4, 2]
    assert plan.cursor == 10


def test_exhausted_plan_yields_nothing(rng):
    ds = _blob(rng, 6)
    plan = BatchPlan.for_dataset(ds, 3, rng)
    next_batches(ds, plan, 2)
    assert next_batches(ds, plan, 5) == []


def test_epoch_covers_every_index_once(rng):
    ds = _blob(rng, 23)
    plan = BatchPlan.for_dataset(ds, 5, rng)
    seen = np.concatenate(next_batches(ds, plan, 100))
    assert sorted(seen.tolist()) == list(range(23))


@pytest.mark.parametrize("n, batch_size", [(9, 8), (13, 4), (17, 2), (3, 2), (25, 3)])
def test_one_sample_tail_joins_the_batch_before_it(rng, n, batch_size):
    # batch norm of a single sample has zero variance: n = 1 (mod batch_size)
    # must not leave a size-1 batch, and still use every sample once
    ds = _blob(rng, n)
    plan = BatchPlan.for_dataset(ds, batch_size, rng)
    batches = [b for _ in range(plan.n_batches) for b in next_batches(ds, plan, 1)]
    assert len(batches) == plan.n_batches == n // batch_size
    assert min(len(b) for b in batches) >= 2
    assert len(batches[-1]) == (batch_size + 1 if n > batch_size else n)
    assert sorted(np.concatenate(batches).tolist()) == list(range(n))
    assert next_batches(ds, plan, 1) == []


def test_batch_size_below_two_rejected(rng):
    with pytest.raises(InputError):
        BatchPlan.for_dataset(_blob(rng, 10), 1, rng)


def test_plan_must_belong_to_dataset(rng):
    ds = _blob(rng, 10)
    other = _blob(rng, 12)
    plan = BatchPlan.for_dataset(ds, 4, rng)
    with pytest.raises(InputError):
        next_batches(other, plan, 1)


def test_standardize_pair_uses_train_statistics(rng):
    train = _blob(rng, 40, d=4)
    val = _blob(rng, 20, d=4)
    st, sv = standardize_pair(train, val)
    np.testing.assert_allclose(st.features.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(st.features.std(axis=0), 1.0, atol=1e-12)
    mean, std = train.features.mean(axis=0), train.features.std(axis=0)
    np.testing.assert_allclose(sv.features, (val.features - mean) / std)
