"""
Verifying the backward pass with finite differences
===================================================

The path-restricted backward pass returns gradients for exactly the
blocks on the task's path, the norm instances the task used, and the
task's head-slice columns. Here we check those gradients against central
finite differences of the loss, and then corrupt one tensor's gradient to
show the check actually has teeth.
"""

import numpy as np

from part import (
    ModuleGrid,
    assign_random_path,
    backward_task,
    finite_diff_check,
    forward_task,
    register_task,
    softmax_xent_slice,
)

rng = np.random.default_rng(3)
grid = ModuleGrid(n_layers=2, n_modules=3, d_in=5, d_hid=8, seed=3)
task = register_task(grid, 3)
task.path = assign_random_path(3, 2, 2, rng)

x = rng.normal(size=(6, 5))
y = rng.integers(0, 3, size=6)

# forward in eval mode (running statistics fixed): the task's own logits,
# its loss and the loss gradient over those logits, then the
# path-restricted backward
logits, tape = forward_task(grid, task, x, mode="eval")
loss, dslice = softmax_xent_slice(logits, y)
grads = backward_task(grid, task, tape, dslice)
print(f"loss {loss:.6f}, gradient tensors: {len(grads)}")

keys = sorted(grads, key=repr)


def loss_of(params):
    for k, p in zip(keys, params):
        grid.set_param(k, p)
    lg, _ = forward_task(grid, task, x, mode="eval")
    return softmax_xent_slice(lg, y)[0]


err = finite_diff_check(loss_of, [grid.get_param(k) for k in keys],
                        [grads[k] for k in keys], h=1e-5)
print(f"max relative error, analytic vs central differences: {err:.2e}")

# sabotage one gradient by 10 percent: the detector must trip
bad = {k: g.copy() for k, g in grads.items()}
bad[("head", task.id, "W")] *= 1.1
err_bad = finite_diff_check(loss_of, [grid.get_param(k) for k in keys],
                            [bad[k] for k in keys], h=1e-5)
print(f"same check with a 10% corrupted head gradient: {err_bad:.2e}")
assert err < 1e-6 < err_bad
print("the oracle accepts the real gradients and flags the corrupted ones.")
