"""The names the benchmark's tracer rebinds still exist in the package.

`perfbench/tracer.py` times `part` from outside by rebinding module
functions and `ModuleGrid` methods, and silently skips a name it no longer
finds. Renaming or deleting one of them would leave its benchmark metrics
at 0; the first test fails first. The second runs the wrapped loss and
backward once each on task-width arrays and reads the tracer's counts.
The third runs a CKA report under the tracer, whose Gram counter keys on
the positional arguments: Gram buffers must be passed by keyword.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from part import analysis, experiment, forward_task, training
from part.net import ModuleGrid

from conftest import make_grid
from test_analysis import _random_sets

ROOT = Path(__file__).resolve().parents[1]


def test_every_name_the_tracer_rebinds_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    tracer = importlib.import_module("perfbench.tracer")
    tables = [(training, tracer._TRAINING), (analysis, tracer._ANALYSIS),
              (experiment, tracer._EXPERIMENT), (ModuleGrid, tracer._GRID),
              (analysis, tracer._GRAM_FUNCTIONS)]
    # the tracer looks each name up in its owner's own namespace
    missing = [f"{owner.__name__}.{name}"
               for owner, names in tables for name in names if name not in vars(owner)]
    assert not missing


def test_the_tracer_wraps_the_task_width_loss_and_backward(monkeypatch):
    # the tracer counts the backward's flops from (grid, task, tape) and the
    # loss from its calls alone: both must still wrap the task-width API
    monkeypatch.syspath_prepend(str(ROOT))
    tracer_module = importlib.import_module("perfbench.tracer")
    grid = make_grid(seed=19)
    task = grid.tasks[0]
    rng = np.random.default_rng(19)
    n = 5
    x = rng.normal(size=(n, grid.d_in))
    y = rng.integers(0, task.c, size=n)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        logits, tape = forward_task(grid, task, x, mode="train")
        _, dslice = training.softmax_xent_slice(logits, y)
        training.backward_task(grid, task, tape, dslice)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert metrics["numerics.softmax_xent_slice.calls"] == 1
    assert metrics["net.backward_task.calls"] == 1
    assert metrics["net.backward_task.flops"] == 2 * tracer_module.matmul_flops(grid, task, n)


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
def test_the_tracer_counts_every_gram_of_a_report(monkeypatch, kernel):
    monkeypatch.syspath_prepend(str(ROOT))
    tracer_module = importlib.import_module("perfbench.tracer")
    sa, sb = _random_sets(10, n_layers=3)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        report = analysis.layerwise_cka_report(sa, sb, kernel=kernel)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    p = len(report.layers[0].labels)
    assert metrics["analysis.gram.built"] == len(report.layers) * (2 + p)
    assert metrics["analysis.gram.distinct"] == metrics["analysis.gram.built"]
