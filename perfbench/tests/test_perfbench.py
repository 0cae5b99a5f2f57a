"""Tests of the benchmark itself: tracer, counts, output checks, contract.

Run with `python -m pytest perfbench/tests -q` from the repository root.
Workloads are shrunk (fewer epochs, a smaller capture) so the suite stays
quick; the shapes and the code paths are the benchmark's own.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import part.analysis
import part.experiment
import part.training
from part.net import ModuleGrid
from perfbench import run, tracer, workloads
from perfbench.tracer import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parents[2]
TIME_METRICS = {name for name, unit, _ in PER_LAYER if unit == "s"}


@pytest.fixture
def small(monkeypatch):
    """One-epoch suite and a 40-sample, 1-epoch analyze set-up; one epoch
    does not reach the full runs' accuracy floors, so those are dropped."""
    monkeypatch.setitem(workloads.SUITE_TRAIN, "epochs", 1)
    monkeypatch.setitem(workloads.ANALYZE_TRAIN, "epochs", 1)
    monkeypatch.setattr(workloads, "CAPTURE_N", 40)
    for name, w in workloads.WORKLOADS.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, replace(w, val_acc_floor=0.0))


def traced_op(name, tmp_path, seed=3):
    tr = Tracer()
    tr.install()
    try:
        op = workloads.run_op(workloads.WORKLOADS[name], seed, tmp_path, tr)
    finally:
        tr.uninstall()
    return op, tr


def test_install_rebinds_and_uninstall_restores():
    before = {(mod, attr): getattr(mod, attr)
              for mod, table in ((part.training, tracer._TRAINING),
                                 (part.analysis, tracer._ANALYSIS),
                                 (part.experiment, tracer._EXPERIMENT),
                                 (ModuleGrid, tracer._GRID))
              for attr in table}
    tr = Tracer()
    tr.install()
    try:
        assert all(getattr(mod, attr) is not fn for (mod, attr), fn in before.items())
        with pytest.raises(RuntimeError):
            tr.install()
    finally:
        tr.uninstall()
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in before.items())
    assert part.analysis._gram_rbf.__name__ == "_gram_rbf"


def test_removed_function_reports_zero(monkeypatch, small, tmp_path):
    # parallel training never calls freeze_fingerprint, so removing it
    # leaves the run intact and only its metrics go to 0
    monkeypatch.delattr(part.training, "freeze_fingerprint")
    op, tr = traced_op("parallel8", tmp_path)
    metrics = tr.metrics()
    assert not op.errors
    assert metrics["training.freeze_fingerprint.calls"] == 0
    assert metrics["training.freeze_fingerprint.self_s"] == 0
    assert metrics["training.validate.calls"] > 0


@pytest.mark.parametrize("name", ["parallel8", "sequential8"])
def test_training_counts_repeat_and_spans_add_up(name, small, tmp_path):
    first, tr1 = traced_op(name, tmp_path / "a")
    second, tr2 = traced_op(name, tmp_path / "b")
    m1, m2 = tr1.metrics(), tr2.metrics()
    counts1 = {k: v for k, v in m1.items() if k not in TIME_METRICS}
    counts2 = {k: v for k, v in m2.items() if k not in TIME_METRICS}
    assert counts1 == counts2
    assert first.fingerprint == second.fingerprint

    batches = 8 * 20    # 8 tasks, 320 training samples each, batch 16, 1 epoch
    assert m1["net.forward_task.train.calls"] == batches
    assert m1["data.next_batches.batches"] == batches
    assert m1["numerics.adam_step.calls"] == m1["net.trainable_keys.keys"]
    assert m1["net.set_param.calls"] == m1["numerics.adam_step.calls"]
    # 12 path blocks x (W, b, gamma, beta) plus the task's two head tensors
    if name == "parallel8":
        assert m1["numerics.adam_step.calls"] == 50 * batches
        assert m1["net.get_param.calls"] == m1["numerics.adam_step.calls"]
        assert m1["net.get_param.bytes"] == m1["net.set_param.bytes"]
        assert m1["training.freeze_fingerprint.calls"] == 0
    else:
        # frozen tensors drop out; each freeze fingerprint reads the 50 tensors
        assert m1["numerics.adam_step.calls"] < 50 * batches
        assert m1["training.freeze_fingerprint.calls"] == 8
        assert m1["net.get_param.calls"] == m1["numerics.adam_step.calls"] + 8 * 50
    assert m1["net.backward_task.flops"] == 2 * m1["net.forward_task.train.flops"]
    assert m1["analysis.cka.calls"] == 0

    # the run's named self times plus the tracer's bookkeeping make up the run
    run_span = tr1.names.index("bench.run")
    run_s = next(end - start for nid, start, end, _ in tr1.spans if nid == run_span)
    setup_only = {"experiment.build_experiment.self_s", "data.gen_synthetic_task.self_s",
                  "data.oversample_to_equal.self_s"}
    named = sum(v for k, v in m1.items() if k in TIME_METRICS and k not in setup_only)
    assert named == pytest.approx(run_s, rel=0.02)


def test_analyze_gram_counts(small, tmp_path):
    op, tr = traced_op("analyze", tmp_path)
    m = tr.metrics()
    assert not op.errors
    assert m["numerics.adam_step.calls"] == 0      # set-up training is not traced
    assert m["analysis.layerwise_cka_report.calls"] == 2
    # per report and layer: 2 task reps + 6 module reps, 1 + 21 cka calls
    assert m["analysis.cka.calls"] == 2 * 4 * 22
    assert m["analysis.hsic.calls"] == 3 * m["analysis.cka.calls"]
    assert m["analysis.gram.built"] == 2 * m["analysis.cka.calls"]
    assert m["analysis.gram.distinct"] == 2 * 4 * 8
    assert m["analysis.gram.useful_ratio"] == pytest.approx(64 / 352)
    assert m["analysis.layerwise_cka_report.entries"] == op.work == 2 * 4 * (1 + 36)
    assert m["checkpoint.load_checkpoint.bytes"] == 2 * m["checkpoint.save_checkpoint.bytes"]


def test_check_cka_flags_bad_reports():
    good = {"layers": [{"layer": 0, "task_cka": 0.5,
                        "matrix": [[1.0, 0.25], [0.25, 1.0]]}]}
    assert workloads.check_cka(good) == []
    assert workloads.cka_entries(good) == 5
    for matrix, task in (([[1.0, 0.25], [0.5, 1.0]], 0.5),
                         ([[0.9, 0.25], [0.25, 1.0]], 0.5),
                         ([[1.0, None], [None, 1.0]], 0.5),
                         ([[1.0, 0.25], [0.25, 1.0]], math.inf),
                         ([[1.0, 0.25], [0.25, 1.0]], None)):
        bad = {"layers": [{"layer": 0, "task_cka": task, "matrix": matrix}]}
        assert workloads.check_cka(bad)


def test_check_report_floor_and_finiteness():
    doc = {"final": [{"task": 0, "val_acc": 0.9}, {"task": 1, "val_acc": 0.7}],
           "epochs": [{"per_task": [{"loss": 0.3, "val_acc": 0.9},
                                    {"loss": None, "val_acc": 0.7}]}]}
    assert workloads.check_report(doc, 0.75) == []
    assert workloads.check_report(doc, 0.8)
    doc["epochs"][0]["per_task"][0]["loss"] = math.nan
    assert workloads.check_report(doc, 0.75)


def test_report_fingerprint_ignores_wallclock(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"wallclock_s": 1.0, "seed": 1}))
    b.write_text(json.dumps({"seed": 1, "wallclock_s": 2.5}, indent=2))
    assert workloads.report_fingerprint(a) == workloads.report_fingerprint(b)


@pytest.mark.parametrize("trace", [0, 1])
def test_main_prints_the_contract_line(trace, small, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(["--workload", "sequential8", "--seed", "5", "--seconds", "0.1",
                     "--trace", str(trace)])
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] == 1 + run.MIN_OPS
    spec = PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {s[0]: s[1] for s in spec}
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())
    assert (tmp_path / f"result-sequential8-seed5-trace{trace}.json").is_file()


def test_failed_operations_are_counted(small, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    real = workloads.run_op
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise ValueError("injected failure")
        op = real(*args, **kwargs)
        if len(calls) == 3:
            op.fingerprint["report"] = "0" * 64
        return op

    monkeypatch.setattr(workloads, "run_op", flaky)
    code = run.main(["--workload", "parallel8", "--seed", "2", "--seconds", "0.1",
                     "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert (last["correct"], last["attempted"], last["failed"]) == (False, 4, 2)


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == PER_LAYER


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "parallel8",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
