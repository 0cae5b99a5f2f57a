"""
Per-task normalization instances for heterogeneous tasks
========================================================

When tasks with different input statistics share the same modules, a
single set of batch-norm running statistics has to average over both
distributions. Giving every task its own normalization instance inside
each shared module lets the block weights stay shared while the
statistics stay task-specific. Here two deliberately mismatched tasks
share every module on their paths; we look at how far apart their
per-task running statistics drift, and what happens if a task is
evaluated through the other task's statistics.
"""

import numpy as np

from part import (
    ModuleGrid,
    TrainConfig,
    build_controlled_paths,
    gen_synthetic_task,
    oversample_to_equal,
    register_task,
    train_parallel,
    validate,
)

SEED = 5
rng = np.random.default_rng(SEED)

grid = ModuleGrid(n_layers=3, n_modules=4, d_in=8, d_hid=16,
                  norm_mode="per-task", seed=SEED)
path_a, path_b = build_controlled_paths(3, 4, 2, shared_layers=range(3))
assert path_a == path_b  # full sharing: every module serves both tasks

# two tasks with very different class structure: a tight 2-class problem
# and a spread-out 5-class problem
task_shapes = [(2, 10.0), (5, 3.0)]
for i, (c, margin) in enumerate(task_shapes):
    task = register_task(grid, c)
    task.path = path_a
    train, val = gen_synthetic_task(rng, c, 80, 8, margin, name=f"t{i}")
    task.train_ds, task.val_ds = train, val

# a norm instance is addressed by key: ("norm", layer, module, task id, tensor)
instances = [grid.get_param(("norm", 0, 0, t.id, "gamma")) for t in grid.tasks]
print(f"per-task mode: every block now holds {len(instances)} norm instances, "
      f"one per registered task")

trains = oversample_to_equal([t.train_ds for t in grid.tasks], rng)
for t, tr in zip(grid.tasks, trains):
    t.train_ds = tr

cfg = TrainConfig(epochs=15, batch_size=16, batch_set_size=4, lr0=2e-3,
                  lr_halve_epochs=(9, 13), seed=SEED)
train_parallel(grid, grid.tasks, cfg)

# the two tasks imprinted different statistics on the same shared block
gap = np.abs(grid.get_param(("norm", 1, 0, 0, "run_mean"))
             - grid.get_param(("norm", 1, 0, 1, "run_mean")))
print(f"\nshared block (layer 1, module 0): mean running-stat gap between "
      f"the two tasks' instances: {gap.mean():.3f} (max {gap.max():.3f})")

acc = [validate(grid, t) for t in grid.tasks]
print(f"accuracy with each task on its own statistics: "
      f"{acc[0]:.3f} / {acc[1]:.3f}")

# evaluate each task through the OTHER task's statistics: the shared
# affine weights are identical, only the normalization swaps
for l in range(grid.n_layers):
    for m in range(grid.n_modules):
        for name in ("gamma", "beta", "run_mean", "run_var"):
            key_a, key_b = ("norm", l, m, 0, name), ("norm", l, m, 1, name)
            a, b = grid.get_param(key_a), grid.get_param(key_b)
            grid.set_param(key_a, b)
            grid.set_param(key_b, a)
acc_swapped = [validate(grid, t) for t in grid.tasks]
print(f"accuracy with statistics swapped between tasks:  "
      f"{acc_swapped[0]:.3f} / {acc_swapped[1]:.3f}")
print("\nthe gap is what a single shared instance would have to average over;"
      "\nper-task instances absorb it while the blocks stay fully shared.")
