"""The names the benchmark's tracer rebinds still exist in the package.

`perfbench/tracer.py` times `part` from outside by rebinding module
functions and `ModuleGrid` methods, and silently skips a name it no longer
finds. Renaming or deleting one of them would leave its benchmark metrics
at 0; this test fails first.
"""

import importlib
from pathlib import Path

from part import analysis, experiment, training
from part.net import ModuleGrid

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
