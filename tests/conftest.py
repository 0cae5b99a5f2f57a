import ctypes
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from part import DegenerateRepresentation, ModuleGrid, assign_random_path, register_task
from part.net import SHARED
from part.data import Dataset, gen_synthetic_task


# the OpenBLAS kernel the golden and bench-shape hashes were taken under;
# another kernel rounds matrix products differently
PINNED_CORE = "SkylakeX"
NUMPY_LIBS = Path(np.__file__).resolve().parents[1] / "numpy.libs"


def blas_core(libs=NUMPY_LIBS):
    """The core name of numpy's bundled OpenBLAS in `libs` ("SkylakeX", say):
    the kernel it chose for this CPU, read through ctypes from
    `scipy_openblas_get_corename64_` of the library numpy has loaded. None
    where no library there has that symbol."""
    for path in sorted(Path(libs).glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def pin_message() -> str:
    """The failure message of a hash pin: the kernel this process loaded
    against the one the pins were taken under."""
    return f"OpenBLAS core {blas_core()}; the pins were taken under {PINNED_CORE}"


def make_grid(L=2, M=4, N=2, d_in=6, d_hid=10, norm_mode="shared", seed=0,
              class_counts=(3, 2), rng=None, randomize_norms=False):
    """Small grid with registered tasks and random paths, ready to forward."""
    rng = rng or np.random.default_rng(seed)
    grid = ModuleGrid(L, M, d_in, d_hid, norm_mode=norm_mode, seed=seed)
    for c in class_counts:
        task = register_task(grid, c)
        task.path = assign_random_path(M, N, L, rng)
    if randomize_norms:
        randomize_norm_instances(grid, rng)
    return grid


def randomize_norm_instances(grid, rng):
    """Random gamma, beta and running statistics for every norm instance,
    drawn in arena order."""
    d = grid.d_hid
    for l, m in cells(grid):
        for nk in norm_keys(grid):
            grid.set_param(("norm", l, m, nk, "gamma"), rng.uniform(0.5, 1.5, d))
            grid.set_param(("norm", l, m, nk, "beta"), rng.normal(0.0, 0.3, d))
            grid.set_param(("norm", l, m, nk, "run_mean"), rng.normal(0.0, 0.5, d))
            grid.set_param(("norm", l, m, nk, "run_var"), rng.uniform(0.5, 2.0, d))


def cells(grid):
    """Every (layer, module) cell of the grid, layer-major."""
    return itertools.product(range(grid.n_layers), range(grid.n_modules))


def norm_keys(grid):
    """The norm instances each cell holds, in arena order."""
    return [SHARED] if grid.norm_mode == "shared" else [t.id for t in grid.tasks]


def make_dataset(rng, n=30, d=6, c=3, name="ds"):
    """Quick labelled blob dataset with every class present."""
    labels = np.arange(n) % c
    feats = rng.normal(size=(n, d)) + labels[:, None]
    return Dataset(features=feats, labels=labels, c=c, name=name)


def attach_synthetic(grid, rng, n_per_class=30, margin=6.0):
    """Give every registered task its own synthetic train/val pair."""
    for task in grid.tasks:
        train, val = gen_synthetic_task(rng, task.c, n_per_class, grid.d_in,
                                        margin, name=f"task{task.id}")
        task.train_ds = train
        task.val_ds = val
    return grid


# A per-pair copy of the CKA arithmetic of `part.analysis._cka_matrix`,
# in fresh memory: an all-pairs matrix must hold these bits in every entry.

CONSTANT_FLAG = "constant representation: every sample is identical"


def rbf_gram(X, frac, sigma):
    """The RBF Gram in its direct form, with the bits of `_gram_rbf`."""
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    if sigma is None:
        iu = np.triu_indices(X.shape[0], k=1)
        med = float(np.median(np.sqrt(d2[iu])))
        if med == 0.0:
            raise DegenerateRepresentation(
                "zero median pairwise distance: representation is constant")
        sigma = frac * med
    K = np.exp(-d2 / (2.0 * sigma * sigma))
    return (K + K.T) / 2.0


def centred_gram(K):
    """H K H out of place, with the bits of `_center`."""
    return K - K.mean(axis=0, keepdims=True) - K.mean(axis=1, keepdims=True) + K.mean()


def pair_cka(X, Y, kernel, frac=0.5, sigma=None):
    """(CKA, flag) of the pair (X, Y), taken in that order. Linear: from
    column-centred features, hsic(X, Y) = sum(C * C) / (n-1)^2 with
    C = X^T Y; RBF: from two centred Grams, sum(Kx * Ky) / (n-1)^2. Both
    sums by einsum. A flag is the first of X's and Y's."""
    n = X.shape[0]

    def prepare(R):
        """(centred features or Gram, self-HSIC, flag) of one representation."""
        if (R == R[0]).all():
            return None, None, CONSTANT_FLAG
        if kernel == "linear":
            F = R - R.mean(axis=0)
            G = F.T @ F
        else:
            try:
                F = G = centred_gram(rbf_gram(R, frac, sigma))
            except DegenerateRepresentation as e:
                return None, None, str(e)
        h = float(np.einsum("ij,ij->", G, G) / (n - 1) ** 2)
        if h <= 1e-300:
            return None, None, "numerically constant representation: self-HSIC is zero"
        return F, h, None

    (Fx, hx, flag_x), (Fy, hy, flag_y) = prepare(X), prepare(Y)
    if flag_x or flag_y:
        return None, flag_x or flag_y
    if Y is X:
        hxy = hx
    elif kernel == "linear":
        C = Fx.T @ Fy
        hxy = float(np.einsum("ij,ij->", C, C) / (n - 1) ** 2)
    else:
        hxy = float(np.einsum("ij,ij->", Fx, Fy) / (n - 1) ** 2)
    return hxy / math.sqrt(hx * hy), None


def assert_matrix_is_per_pair(matrix, reps, kernel, frac=0.5, sigma=None):
    """Every entry of an all-pairs matrix, bit for bit: entry (i, j) and
    (j, i) are both the pair taken in index order."""
    for i, X in enumerate(reps):
        for j, Y in enumerate(reps):
            first, second = (X, Y) if i <= j else (Y, X)
            assert matrix[i][j] == pair_cka(first, second, kernel, frac, sigma)[0]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
