"""Datasets: synthetic task generation, CSV round-trip, oversampling, batching.

CSV format: header ``label,f0,f1,...,f{d-1}``, one sample per row, labels
contiguous integers from 0, decimal floats, UTF-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from .checkpoint import write_atomic
from .errors import CsvParseError, InputError
from .net import _check_integers, _is_integer


@dataclass
class Dataset:
    """Immutable-by-convention classification dataset."""

    features: np.ndarray
    labels: np.ndarray
    c: int
    name: str = ""

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise InputError(f"dataset {self.name!r} labels must be integers, "
                             f"got dtype {self.labels.dtype}")
        self.labels = self.labels.astype(np.int64, copy=False)
        if self.features.ndim != 2:
            raise InputError(f"dataset {self.name!r} features must be 2-D, "
                             f"got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise InputError(f"dataset {self.name!r} labels must be one per sample")
        if not _is_integer(self.c):
            raise InputError(f"dataset {self.name!r} class count must be an int, got {self.c!r}")
        self.c = int(self.c)
        if self.c < 1:
            raise InputError(f"dataset {self.name!r} needs at least one class, got c={self.c}")
        if not np.all(np.isfinite(self.features)):
            raise InputError(f"dataset {self.name!r} has non-finite features")
        if self.n < self.c:
            raise InputError(f"dataset {self.name!r} has fewer samples than classes")
        if self.labels.min() < 0 or self.labels.max() >= self.c:
            raise InputError(f"labels outside [0,{self.c}) in dataset {self.name!r}")
        present = np.count_nonzero(np.bincount(self.labels))
        if present != self.c:
            raise InputError(f"dataset {self.name!r} is missing classes: "
                             f"expected {self.c}, saw {present}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def _standardize(train: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both feature arrays shifted/scaled by train's per-feature mean and
    std; constant features get std 1 so they pass through unscaled.

    The statistics take the sums `ndarray.mean` and `.std` take, so they
    are theirs bit for bit: the mean is the axis-0 sum over n, the std the
    sqrt of the centred squares' axis-0 sum over n."""
    n = train.shape[0]
    mean = train.sum(axis=0) / n
    centred = train - mean
    std = np.sqrt((centred * centred).sum(axis=0) / n)
    std = np.where(std > 0, std, 1.0)
    return centred / std, (val - mean) / std


def standardize_pair(train: Dataset, val: Dataset) -> tuple[Dataset, Dataset]:
    """Shift/scale both splits by the train split's per-feature mean and std.

    Constant features get std 1 so they pass through unscaled.
    """
    features = _standardize(train.features, val.features)
    return tuple(Dataset(features=f, labels=ds.labels.copy(), c=ds.c, name=ds.name)
                 for f, ds in zip(features, (train, val)))


def gen_synthetic_task(rng: np.random.Generator, c: int, n_per_class: int,
                       d: int, margin: float, name: str = "synthetic"):
    """Gaussian-cluster classification task; returns (train, val) datasets.

    Class means are random Gaussian draws rescaled so the closest pair of
    means sits exactly `margin` apart (within-class std is 1), making the
    separation guarantee deterministic. Split is 80/20 stratified by
    class; both splits are standardized with train statistics.

    The draws from `rng`, in stream order, on which every pinned output
    depends: the (c, d) means; every class's samples in one (c,
    n_per_class, d) normal draw, class after class; then one permutation
    of each class's samples, class after class, whose first
    round(0.2 * n_per_class) entries (at least 1) go to val. Each split
    lists its samples class by class, in permutation order.
    """
    c, n_per_class, d = _check_integers(c=c, n_per_class=n_per_class, d=d)
    if c < 2:
        raise InputError(f"need c >= 2, got {c}")
    if d < 2:
        raise InputError(f"need d >= 2, got {d}")
    if margin <= 0:
        raise InputError(f"need margin > 0, got {margin}")
    if n_per_class < 5:
        raise InputError(f"need n_per_class >= 5 for a stratified split, got {n_per_class}")

    means = rng.normal(size=(c, d))
    # np.linalg.norm of a vector is sqrt(x.dot(x)), and sqrt is monotone
    dmin = math.sqrt(min(diff.dot(diff) for i in range(c) for diff in means[i] - means[i + 1:]))
    means *= margin / dmin

    # class k's samples are X's rows k*n_per_class .. (k+1)*n_per_class, and
    # row k of `perm` holds those row numbers shuffled; its first n_val
    # columns go to val
    X = (means[:, None, :] + rng.normal(size=(c, n_per_class, d))).reshape(c * n_per_class, d)
    perm = rng.permuted(np.arange(c * n_per_class).reshape(c, n_per_class), axis=1)
    n_val = max(1, round(0.2 * n_per_class))
    train_X, val_X = _standardize(X[perm[:, n_val:].ravel()], X[perm[:, :n_val].ravel()])
    classes = np.arange(c, dtype=np.int64)
    return (Dataset(features=train_X, labels=np.repeat(classes, n_per_class - n_val), c=c,
                    name=f"{name}-train"),
            Dataset(features=val_X, labels=np.repeat(classes, n_val), c=c, name=f"{name}-val"))


def oversample_to_equal(datasets: list[Dataset], rng: np.random.Generator) -> list[Dataset]:
    """Resample every dataset up to the max size with uniform replacement.

    Originals stay as a prefix; already-max-size datasets are returned as
    the same objects.
    """
    if not datasets:
        raise InputError("no datasets to oversample")
    target = max(ds.n for ds in datasets)
    out = []
    for ds in datasets:
        pad = target - ds.n
        if pad == 0:
            out.append(ds)
            continue
        extra = rng.integers(0, ds.n, size=pad)
        out.append(Dataset(
            features=np.concatenate([ds.features, ds.features[extra]]),
            labels=np.concatenate([ds.labels, ds.labels[extra]]),
            c=ds.c, name=ds.name,
        ))
    return out


def write_csv(path, ds: Dataset) -> None:
    """Write `ds` in the CSV format above, atomically (see `write_atomic`)."""
    header = "label," + ",".join(f"f{j}" for j in range(ds.d))
    lines = [header]
    for i in range(ds.n):
        row = ",".join(repr(float(v)) for v in ds.features[i])
        lines.append(f"{int(ds.labels[i])},{row}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def load_csv(path, name: str = "") -> Dataset:
    path = FsPath(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise CsvParseError(path, 1, "missing header")
        cols = [c.strip() for c in header.rstrip("\n").split(",")]
        if not cols or cols[0] != "label":
            raise CsvParseError(path, 1, "header must start with 'label'")
        d = len(cols) - 1
        if d < 1:
            raise CsvParseError(path, 1, "no feature columns")
        expected = ["label"] + [f"f{j}" for j in range(d)]
        if cols != expected:
            raise CsvParseError(path, 1, f"header must be {','.join(expected)}")
        feats, labels = [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != d + 1:
                raise CsvParseError(path, lineno, f"expected {d + 1} cells, got {len(cells)}")
            try:
                lab = int(cells[0])
            except ValueError:
                raise CsvParseError(path, lineno, f"non-integer label {cells[0]!r}") from None
            try:
                row = [float(v) for v in cells[1:]]
            except ValueError:
                raise CsvParseError(path, lineno, "non-numeric feature cell") from None
            labels.append(lab)
            feats.append(row)
    if not labels:
        raise CsvParseError(path, 2, "file has no samples")
    y = np.asarray(labels, dtype=np.int64)
    if y.min() < 0:
        raise CsvParseError(path, 1, "negative label")
    c = int(y.max()) + 1
    present = set(np.unique(y).tolist())
    if present != set(range(c)):
        missing = sorted(set(range(c)) - present)
        raise CsvParseError(path, 1, f"non-contiguous labels: missing {missing}")
    return Dataset(features=np.asarray(feats), labels=y, c=c, name=name or path.stem)


@dataclass
class BatchPlan:
    """One epoch's traversal order over a dataset."""

    batch_size: int
    order: np.ndarray
    cursor: int = 0

    @classmethod
    def for_dataset(cls, ds: Dataset, batch_size: int, rng: np.random.Generator) -> "BatchPlan":
        if batch_size < 2:
            raise InputError(f"batch_size must be >= 2 (batch norm), got {batch_size}")
        return cls(batch_size=batch_size, order=rng.permutation(ds.n))

    @property
    def n_batches(self) -> int:
        """Batches per epoch: a one-sample tail joins the batch before it."""
        full, tail = divmod(len(self.order), self.batch_size)
        return max(1, full + (tail > 1))


def next_batches(ds: Dataset, plan: BatchPlan, count: int) -> list[np.ndarray]:
    """Up to `count` consecutive index blocks of the epoch permutation.

    The final block of an epoch may be short, but never one sample out of
    several (batch norm of one sample has zero variance): a one-sample tail
    joins the block before it. An exhausted plan yields [].
    """
    if len(plan.order) != ds.n:
        raise InputError("batch plan does not belong to this dataset")
    batches = []
    for _ in range(count):
        if plan.cursor >= ds.n:
            break
        stop = min(plan.cursor + plan.batch_size, ds.n)
        if ds.n - stop == 1:
            stop = ds.n
        batches.append(plan.order[plan.cursor:stop])
        plan.cursor = stop
    return batches
