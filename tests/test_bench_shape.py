"""The benchmark's own training operations, pinned bit for bit.

`perfbench/workloads.py` trains the 8-task suite at a shape no golden case
uses (4 x 6 grid, path width 3, d_hid 16, batches of 16, 10 epochs). One
`run_op` of `parallel8` and of `sequential8` at seed 1 must give the
report and checkpoint fingerprints pinned here, so a change to the
training hot path that moves a bit at that shape fails Tier-1, not only
the benchmark's fingerprint comparison. The module is imported the way
`tests/test_tracer_names.py` imports the tracer.
"""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PINS = {
    "parallel8": {
        "report": "d887ff6c49b64ac04c2370ffe56a2f372e9de183328a9b858fd6fbacc6ad9d2b",
        "checkpoint": "bc7e98f33de31f3ca5ed074b9b9259b333783acff2f4937528f2bd05202105d9"},
    "sequential8": {
        "report": "e2b2f666d0129d250fc82cebe9431dbeeede667356846b5f17fcf69eff2b3dc9",
        "checkpoint": "9d1a1b79c90c6cbfef3dc9fcf8372ecd2ef215e6841c8f9125daee839bd37b84"},
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_a_bench_operation_keeps_its_fingerprints(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    op = workloads.run_op(workloads.WORKLOADS[name], 1, tmp_path)
    assert op.errors == []
    assert op.fingerprint == PINS[name]
