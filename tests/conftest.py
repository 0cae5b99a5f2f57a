import itertools

import numpy as np
import pytest

from part import ModuleGrid, assign_random_path, register_task
from part.net import SHARED
from part.data import Dataset, gen_synthetic_task


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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
