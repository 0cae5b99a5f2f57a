"""A public call that takes a size or an epoch list refuses a non-integer or
out-of-range one with an InputError (exit 2 through the CLI), before any
draw from an rng or any change to its arguments' state."""

import numpy as np
import pytest

from part import (
    InputError,
    TrainConfig,
    balanced_sample,
    build_controlled_paths,
    capture_activations,
    expected_sharing_count,
    gen_synthetic_task,
    sharing_profile,
)
from part.config import parse_config
from part.data import BatchPlan, next_batches
from part.experiment import profile_sharing_trials
from part.training import EpochScheduler

from conftest import make_grid

BAD_SIZES = {
    "sample-float": (lambda s: balanced_sample(s["ds"], 8.0, s["rng"]),
                     "n must be an integer, got 8.0"),
    "sample-fraction": (lambda s: balanced_sample(s["ds"], 10.5, s["rng"]),
                        "n must be an integer, got 10.5"),
    "capture-fraction": (lambda s: capture_activations(s["grid"], s["grid"].tasks[0], 10.5,
                                                       s["rng"]),
                         "n must be an integer, got 10.5"),
    "controlled-float-L": (lambda s: build_controlled_paths(3.0, 4, 2),
                           "L must be an integer, got 3.0"),
    "controlled-zero-L": (lambda s: build_controlled_paths(0, 4, 2),
                          "L must be >= 1, got 0"),
    "controlled-float-layer": (lambda s: build_controlled_paths(3, 4, 2, shared_layers=(1.5,)),
                               r"shared layers must be integers in \[0,3\), got \[1.5\]"),
    "controlled-bool-layer": (lambda s: build_controlled_paths(3, 4, 2, shared_layers=(True,)),
                              r"shared layers must be integers in \[0,3\), got \[True\]"),
    "profile-float-M": (lambda s: sharing_profile(list(build_controlled_paths(2)), 4.0, 2),
                        "M must be an integer, got 4.0"),
    "plan-fraction": (lambda s: BatchPlan.for_dataset(s["ds"], 4.5, s["rng"]),
                      "batch_size must be an integer, got 4.5"),
    "batches-fraction": (lambda s: next_batches(s["ds"], s["plan"], 2.5),
                         "count must be an integer, got 2.5"),
    "batches-negative": (lambda s: next_batches(s["ds"], s["plan"], -3),
                         "count must be >= 0, got -3"),
    "scheduler-zero-set": (lambda s: EpochScheduler(remaining={0: 3}, batch_set_size=0,
                                                    rng=s["rng"]),
                           "batch_set_size must be >= 1, got 0"),
    "halve-str": (lambda s: TrainConfig(lr_halve_epochs=("a",)),
                  r"lr_halve_epochs\[0\] must be an integer, got 'a'"),
    "halve-float": (lambda s: TrainConfig(lr_halve_epochs=(1.5, 2.5)),
                    r"lr_halve_epochs\[0\] must be an integer, got 1.5"),
    "halve-bool": (lambda s: TrainConfig(lr_halve_epochs=(True,)),
                   r"lr_halve_epochs\[0\] must be an integer, got True"),
    "halve-not-positive": (lambda s: TrainConfig(lr_halve_epochs=(-5, 0)),
                           r"lr_halve_epochs\[0\] must be >= 1, got -5"),
    "train-negative-seed": (lambda s: TrainConfig(seed=-1), "seed must be >= 0, got -1"),
    "train-float-seed": (lambda s: TrainConfig(seed=1.5), "seed must be an integer, got 1.5"),
    "train-batch-of-one": (lambda s: TrainConfig(batch_size=1), "batch_size must be >= 2, got 1"),
    "sharing-N-over-M": (lambda s: expected_sharing_count(4, 6, 2, 3, 1),
                         "need N <= M, got N=6, M=4"),
    "trials-bool": (lambda s: profile_sharing_trials(s["cfg"], trials=True),
                    "trials must be an integer, got True"),
}

CONFIG = {"seed": 3, "grid": {"n_layers": 2, "n_modules": 4, "path_width": 2,
                              "d_in": 6, "d_hid": 10},
          "tasks": [{"type": "synthetic", "c": 3, "n_per_class": 30, "margin": 6.0}]}


@pytest.mark.parametrize("case", BAD_SIZES)
def test_a_bad_size_is_an_input_error_before_any_draw(case):
    grid = make_grid(seed=3, class_counts=(3,))
    ds = gen_synthetic_task(np.random.default_rng(3), 3, 20, grid.d_in, 3.0)[1]
    grid.tasks[0].val_ds = ds
    rng = np.random.default_rng(4)
    state = {"grid": grid, "ds": ds, "rng": rng, "cfg": parse_config(CONFIG),
             "plan": BatchPlan.for_dataset(ds, 4, np.random.default_rng(5))}
    before = rng.bit_generator.state
    call, message = BAD_SIZES[case]
    with pytest.raises(InputError, match=f"^{message}$"):
        call(state)
    assert rng.bit_generator.state == before
    assert state["plan"].cursor == 0


def test_numpy_integer_sizes_are_still_sizes():
    grid = make_grid(seed=3, class_counts=(3,))
    ds = gen_synthetic_task(np.random.default_rng(3), 3, 20, grid.d_in, 3.0)[1]
    grid.tasks[0].val_ds = ds
    assert len(balanced_sample(ds, np.int64(6))[1]) == 6
    assert capture_activations(grid, grid.tasks[0], np.int32(6))[0].rep.shape[0] == 6
    plan = BatchPlan.for_dataset(ds, np.int64(4), np.random.default_rng(5))
    assert [len(b) for b in next_batches(ds, plan, np.int64(2))] == [4, 4]
    assert TrainConfig(lr_halve_epochs=(np.int64(2),)).lr_halve_epochs == (2,)
    assert build_controlled_paths(np.int64(2))[1].rows == ((2, 3), (2, 3))
    assert expected_sharing_count(4, 2, 1, 2, 2) == 1.0
