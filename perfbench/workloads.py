"""The benchmark's workloads: inputs, one timed operation, and output checks.

Every operation goes through the public functions that `part train` and
`part analyze` call, looked up on the `part.experiment` module at call time
so that the tracer's rebindings see them. An operation builds its inputs
afresh (set-up), runs the workload's main call (run), and returns timings,
fingerprints of the written artifacts and the results of the output checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

GRID = {"n_layers": 4, "n_modules": 6, "path_width": 3, "d_in": 8, "d_hid": 16}

# the acceptance suite's 8-task training settings (tests/test_acceptance.py,
# SUITE_CFG) with fewer epochs, so one run holds several operations
SUITE_EPOCHS = 10
SUITE_TRAIN = {"epochs": SUITE_EPOCHS, "batch_size": 16, "batch_set_size": 4, "lr0": 2e-3,
               "lr_halve_epochs": [10, 14, 18, 21, 24, 27]}

# the controlled-sharing checkpoint that `analyze` reads: a short run, enough
# to move the representations away from initialisation
ANALYZE_TRAIN = {"epochs": 2, "batch_size": 16, "batch_set_size": 4, "lr0": 2e-3,
                 "lr_halve_epochs": [10]}
KERNELS = ("rbf", "linear")
CAPTURE_N = 400


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str                 # "parallel" | "sequential" | "analyze"
    val_acc_floor: float      # correctness: mean final accuracy must exceed it
    reference: str            # the reference kernel (run.REFERENCES) its run is scaled by


WORKLOADS = {w.name: w for w in (
    Workload("parallel8",
             "8 tasks trained together: every path tensor trainable on every batch, "
             "so the optimizer and forward/backward dominate",
             "parallel", 0.80, "small"),
    Workload("sequential8",
             "the same 8 tasks trained one after another with freezing: fewer trainable "
             "tensors, 8x the validation, freeze fingerprints hashed",
             "sequential", 0.50, "small"),
    Workload("analyze",
             "controlled-sharing CKA report on a 2-task checkpoint with both kernels: "
             "analysis dominates, training layers idle",
             "analyze", 0.80, "memory"),
)}


def suite_doc(seed: int, mode: str) -> dict:
    return {
        "seed": seed, "mode": mode, "norm_mode": "shared", "grid": GRID,
        "tasks": [{"type": "synthetic", "c": 4, "n_per_class": 100, "margin": 5.0,
                   "name": f"t{i}"} for i in range(8)],
        "train": SUITE_TRAIN,
    }


def analyze_doc(seed: int, kernel: str) -> dict:
    return {
        "seed": seed, "mode": "parallel", "norm_mode": "shared", "grid": GRID,
        "tasks": [{"type": "synthetic", "c": 4, "n_per_class": 500, "margin": 5.0,
                   "name": f"t{i}"} for i in range(2)],
        "controlled_sharing": "layer 13",
        "train": ANALYZE_TRAIN,
        "analysis": {"cka": True, "sharing": True, "pair": [0, 1], "capture_n": CAPTURE_N,
                     "kernel": kernel, "rbf_frac": 0.5},
    }


@dataclass
class OpResult:
    setup_s: float = 0.0
    run_s: float = 0.0
    calls: int = 0                  # operations in the failed_ops sense
    work: int = 0                   # training samples, or CKA output entries
    val_acc_mean: float = math.nan
    fingerprint: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def report_fingerprint(path) -> str:
    """sha256 of report.json without its wall-clock field, canonically dumped."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    doc.pop("wallclock_s", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


def check_report(doc: dict, floor: float) -> list[str]:
    """Every loss and accuracy finite; mean final accuracy above the floor."""
    errors = []
    values = [row["val_acc"] for row in doc["final"]]
    for epoch in doc["epochs"]:
        for pt in epoch["per_task"]:
            values.append(pt["val_acc"])
            if pt["loss"] is not None:
                values.append(pt["loss"])
    if not all(math.isfinite(v) for v in values):
        errors.append("report has a non-finite loss or accuracy")
    mean = sum(row["val_acc"] for row in doc["final"]) / len(doc["final"])
    if not mean > floor:
        errors.append(f"mean final accuracy {mean:.4f} is not above the floor {floor}")
    return errors


def check_cka(doc: dict) -> list[str]:
    """Every CKA value finite, each module matrix symmetric with unit diagonal."""
    errors = []
    for layer in doc["layers"]:
        where = f"cka layer {layer['layer']}"
        task = layer["task_cka"]
        if task is None or not math.isfinite(task):
            errors.append(f"{where}: task CKA is {task}")
        m = layer["matrix"]
        p = len(m)
        for i in range(p):
            for j in range(p):
                v = m[i][j]
                if v is None or not math.isfinite(v):
                    errors.append(f"{where}: entry ({i},{j}) is {v}")
                elif v != m[j][i]:
                    errors.append(f"{where}: matrix not symmetric at ({i},{j})")
            if m[i][i] is not None and abs(m[i][i] - 1.0) > 1e-9:
                errors.append(f"{where}: diagonal ({i},{i}) is {m[i][i]}")
    return errors


def cka_entries(doc: dict) -> int:
    """Task-curve values plus module-matrix entries in one CKA report."""
    return sum(1 + len(layer["matrix"]) ** 2 for layer in doc["layers"])


def run_op(workload: Workload, seed: int, work_dir: Path, tracer=None) -> OpResult:
    """One set-up plus one run of the workload; artifacts go to work_dir."""
    from part import config, experiment

    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    pause = tracer.pause if tracer is not None else nullcontext
    work_dir.mkdir(parents=True, exist_ok=True)
    op = OpResult()
    if workload.mode == "analyze":
        ckpt = work_dir / experiment.CHECKPOINT_NAME
        t0 = time.perf_counter()
        with span("bench.setup"):
            cfgs = {k: config.parse_config(analyze_doc(seed, k)) for k in KERNELS}
            grid = experiment.build_experiment(cfgs[KERNELS[0]])
            with pause():
                report = experiment.train_parallel(grid, grid.tasks, cfgs[KERNELS[0]].train)
            experiment.save_checkpoint(grid, ckpt)
        t1 = time.perf_counter()
        with span("bench.run"):
            for kernel in KERNELS:
                experiment.analyze_checkpoint(ckpt, cfgs[kernel], work_dir / kernel)
        t2 = time.perf_counter()
        op.calls = len(KERNELS)
        op.val_acc_mean = report.mean_final_accuracy()
        op.errors += check_report(report.to_json_dict(), workload.val_acc_floor)
        op.fingerprint["checkpoint"] = sha256_file(ckpt)
        for kernel in KERNELS:
            path = work_dir / kernel / "analysis" / "cka_report.json"
            doc = json.loads(path.read_text(encoding="utf-8"))
            op.errors += check_cka(doc)
            op.work += cka_entries(doc)
            op.fingerprint[f"cka_report_{kernel}"] = sha256_file(path)
    else:
        t0 = time.perf_counter()
        with span("bench.setup"):
            cfg = config.parse_config(suite_doc(seed, workload.mode))
            grid = experiment.build_experiment(cfg)
        t1 = time.perf_counter()
        with span("bench.run"):
            train = getattr(experiment, f"train_{workload.mode}")
            report = train(grid, grid.tasks, cfg.train, config_hash=cfg.config_hash())
            experiment.write_report(report, work_dir / experiment.REPORT_NAME)
            experiment.save_checkpoint(grid, work_dir / experiment.CHECKPOINT_NAME)
        t2 = time.perf_counter()
        op.calls = 1
        op.work = cfg.train.epochs * sum(t.train_ds.n for t in grid.tasks)
        op.val_acc_mean = report.mean_final_accuracy()
        report_path = work_dir / experiment.REPORT_NAME
        op.errors += check_report(json.loads(report_path.read_text(encoding="utf-8")),
                                  workload.val_acc_floor)
        op.fingerprint["report"] = report_fingerprint(report_path)
        op.fingerprint["checkpoint"] = sha256_file(work_dir / experiment.CHECKPOINT_NAME)
    op.setup_s = t1 - t0
    op.run_s = t2 - t1
    return op
