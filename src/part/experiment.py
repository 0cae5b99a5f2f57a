"""Config-driven experiment orchestration.

Builds the full runtime state (datasets, grid, paths) deterministically
from an ExperimentConfig, runs the configured learning procedure, and
writes the run artifacts (report.json, checkpoint, analysis outputs).
The CLI is a thin wrapper over these functions.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path as FsPath

import numpy as np

from .analysis import (
    capture_activations,
    expected_sharing_count,
    layerwise_cka_report,
    shared_layers_from_label,
    sharing_profile,
)
from .checkpoint import load_checkpoint, save_checkpoint, write_atomic, write_json
from .config import ExperimentConfig
from .data import gen_synthetic_task, load_csv, oversample_to_equal, standardize_pair, write_csv
from .errors import ConfigError, InputError
from .net import ModuleGrid, assign_random_paths, build_controlled_paths, register_tasks
from .training import (
    STREAM_ANALYSIS,
    STREAM_DATA,
    STREAM_OVERSAMPLE,
    STREAM_PATHS,
    SCHEDULES,
    RunReport,
    derive_rng,
    train,
    # not called here: perfbench calls the train_* wrappers through this module
    train_parallel,  # noqa: F401
    train_sequential,  # noqa: F401
    train_single,  # noqa: F401
    validate,
)

CHECKPOINT_NAME = "checkpoint.part"
REPORT_NAME = "report.json"


def _synthetic_pairs(cfg: ExperimentConfig) -> dict:
    """(train, val) of each synthetic task, by its index in the config,
    drawn in config order from the data stream (CSV tasks draw nothing)."""
    data_rng = derive_rng(cfg.seed, STREAM_DATA)
    return {i: gen_synthetic_task(data_rng, tc.c, tc.n_per_class, cfg.grid.d_in, tc.margin,
                                  name=tc.name)
            for i, tc in enumerate(cfg.tasks) if tc.kind == "synthetic"}


def build_datasets(cfg: ExperimentConfig):
    """(train, val) per task, standardized, trains oversampled to equal size."""
    synthetic = _synthetic_pairs(cfg)
    trains, vals = [], []
    for i, tc in enumerate(cfg.tasks):
        if i in synthetic:
            train, val = synthetic[i]
        else:
            train = load_csv(tc.train_csv, name=f"{tc.name}-train")
            val = load_csv(tc.val_csv, name=f"{tc.name}-val")
            if train.c != val.c:
                raise ConfigError(f"tasks[{i}]",
                                  f"train has {train.c} classes, val has {val.c}")
            if train.d != cfg.grid.d_in or val.d != cfg.grid.d_in:
                raise ConfigError(f"tasks[{i}]",
                                  f"CSV feature width {train.d} != grid d_in {cfg.grid.d_in}")
            train, val = standardize_pair(train, val)
        trains.append(train)
        vals.append(val)
    ovs_rng = derive_rng(cfg.seed, STREAM_OVERSAMPLE)
    trains = oversample_to_equal(trains, ovs_rng)
    return list(zip(trains, vals))


def build_experiment(cfg: ExperimentConfig) -> ModuleGrid:
    """Grid with all tasks registered, paths assigned, datasets attached."""
    pairs = build_datasets(cfg)
    g = cfg.grid
    grid = ModuleGrid(g.n_layers, g.n_modules, g.d_in, g.d_hid,
                      norm_mode=cfg.norm_mode, seed=cfg.seed)
    if cfg.controlled_sharing is not None:
        shared = shared_layers_from_label(cfg.controlled_sharing, g.n_layers)
        paths = list(build_controlled_paths(g.n_layers, g.n_modules,
                                            g.path_width, shared))
    else:
        path_rng = derive_rng(cfg.seed, STREAM_PATHS)
        paths = assign_random_paths(g.n_modules, g.path_width, g.n_layers,
                                    len(cfg.tasks), path_rng)
    tasks = register_tasks(grid, [train.c for train, _ in pairs], [tc.name for tc in cfg.tasks])
    for task, (train, val), path in zip(tasks, pairs, paths):
        task.train_ds, task.val_ds, task.path = train, val, path
    return grid


def attach_datasets(grid: ModuleGrid, cfg: ExperimentConfig) -> None:
    """Rebuild the config's datasets onto a checkpoint-loaded grid. The
    config must describe the checkpoint: its grid shape, norm mode, seed
    (which the datasets are drawn from), task count and class counts."""
    g = cfg.grid
    for name, value in (("n_layers", g.n_layers), ("n_modules", g.n_modules),
                        ("d_in", g.d_in), ("d_hid", g.d_hid),
                        ("norm_mode", cfg.norm_mode), ("seed", cfg.seed)):
        if getattr(grid, name) != value:
            raise InputError(f"checkpoint has {name} {getattr(grid, name)!r}, "
                             f"config gives {value!r}")
    if len(grid.tasks) != len(cfg.tasks):
        raise InputError(f"checkpoint has {len(grid.tasks)} tasks, "
                         f"config defines {len(cfg.tasks)}")
    pairs = build_datasets(cfg)
    for task, (train, val) in zip(grid.tasks, pairs):
        if task.c != train.c:
            raise InputError(f"task {task.id}: checkpoint has {task.c} classes, "
                             f"config data has {train.c}")
        task.train_ds = train
        task.val_ds = val


def run_experiment(cfg: ExperimentConfig, out_dir=None, log=None) -> RunReport:
    """Train per cfg.mode, write report.json and a checkpoint, return the report."""
    out = FsPath(out_dir if out_dir is not None else cfg.out_dir)
    grid = build_experiment(cfg)
    out.mkdir(parents=True, exist_ok=True)
    report = train(grid, cfg.mode, SCHEDULES[cfg.mode](grid.tasks, cfg.single_task_index),
                   grid.tasks, cfg.train, config_hash=cfg.config_hash(), log=log)
    write_report(report, out / REPORT_NAME)
    save_checkpoint(grid, out / CHECKPOINT_NAME)
    return report


def write_report(report: RunReport, path) -> None:
    write_json(path, report.to_json_dict())


def load_report(path) -> RunReport:
    try:
        report = RunReport.from_json_dict(json.loads(FsPath(path).read_text(encoding="utf-8")))
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise InputError(f"cannot read report {path}: {e!r}") from None
    problem = _report_problem(report)
    if problem:
        raise InputError(f"malformed report {path}: {problem}")
    return report


def _report_problem(report: RunReport):
    """What `compare_reports` would trip over in a loaded report, or None."""
    for field in ("tasks", "final"):
        rows = getattr(report, field)
        if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
            return f"{field!r} must be a list of objects"
    for row in report.final:
        task, acc = row.get("task"), row.get("val_acc")
        if type(task) is not int:
            return f"final task {task!r} is not an integer"
        if type(acc) not in (int, float) or not math.isfinite(acc):
            return f"final val_acc {acc!r} of task {task} is not a finite number"
    ids, finals = [row.get("id") for row in report.tasks], [row["task"] for row in report.final]
    if finals != ids:
        return f"final rows cover tasks {finals}, not one per task {ids} in order"
    if len(set(ids)) < len(ids):
        return f"tasks rows repeat an id: {ids}"
    return None


def generate_data_files(cfg: ExperimentConfig, out_dir=None) -> list[str]:
    """Materialize every synthetic task's splits as CSV under out/data/, as
    generated: not oversampled, and without reading the CSV tasks."""
    out = FsPath(out_dir if out_dir is not None else cfg.out_dir) / "data"
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for i, (train, val) in _synthetic_pairs(cfg).items():
        for split, ds in (("train", train), ("val", val)):
            path = out / f"{cfg.tasks[i].name}_{split}.csv"
            write_csv(path, ds)
            written.append(str(path))
    return written


def evaluate_checkpoint(ckpt_path, cfg: ExperimentConfig) -> list[dict]:
    grid = load_checkpoint(ckpt_path)
    attach_datasets(grid, cfg)
    return [{"task": t.id, "name": t.name, "val_acc": validate(grid, t)}
            for t in grid.tasks]


def analyze_checkpoint(ckpt_path, cfg: ExperimentConfig, out_dir=None) -> dict:
    """capture_activations + layerwise CKA + sharing profile, per toggles.

    Writes cka_report.json, per-layer heatmap CSVs, and
    sharing_profile.json into out/analysis/, each atomically; returns the
    artifact index.
    """
    grid = load_checkpoint(ckpt_path)
    attach_datasets(grid, cfg)
    out = FsPath(out_dir if out_dir is not None else cfg.out_dir) / "analysis"
    out.mkdir(parents=True, exist_ok=True)
    artifacts: dict = {"out_dir": str(out)}

    if cfg.analysis.sharing:
        profile = sharing_profile([t.path for t in grid.tasks],
                                  grid.n_modules, grid.n_layers)
        path = out / "sharing_profile.json"
        write_json(path, profile.to_json_dict())
        artifacts["sharing_profile"] = str(path)

    if cfg.analysis.cka:
        a_id, b_id = cfg.analysis.pair
        rng = derive_rng(cfg.seed, STREAM_ANALYSIS)
        set_a = capture_activations(grid, grid.tasks[a_id], cfg.analysis.capture_n, rng)
        set_b = capture_activations(grid, grid.tasks[b_id], cfg.analysis.capture_n, rng)
        setup = cfg.controlled_sharing if cfg.controlled_sharing is not None else "random"
        report = layerwise_cka_report(set_a, set_b, kernel=cfg.analysis.kernel,
                                      rbf_frac=cfg.analysis.rbf_frac,
                                      rbf_sigma=cfg.analysis.rbf_sigma, setup=setup)
        path = out / "cka_report.json"
        write_json(path, asdict(report))
        artifacts["cka_report"] = str(path)
        heatmaps = []
        for l in range(len(report.layers)):
            hpath = out / f"cka_heatmap_layer{l}.csv"
            write_atomic(hpath, report.heatmap_csv(l).encode("utf-8"))
            heatmaps.append(str(hpath))
        artifacts["heatmaps"] = heatmaps
    return artifacts


def profile_sharing_trials(cfg: ExperimentConfig, trials: int = 1) -> dict:
    """Monte-Carlo sharing profile over `trials` random path assignments,
    with the binomial expectation per multiplicity alongside."""
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    g = cfg.grid
    k = len(cfg.tasks)
    rng = derive_rng(cfg.seed, STREAM_PATHS)
    sums = np.zeros(k + 1)
    for _ in range(trials):
        paths = assign_random_paths(g.n_modules, g.path_width, g.n_layers, k, rng)
        profile = sharing_profile(paths, g.n_modules, g.n_layers)
        for t, count in profile.histogram.items():
            sums[t] += count
    return {
        "trials": trials,
        "n_tasks": k,
        "mean_histogram": {str(t): sums[t] / trials for t in range(k + 1)},
        "expected_histogram": {
            str(t): expected_sharing_count(g.n_modules, g.path_width, g.n_layers, k, t)
            for t in range(k + 1)
        },
    }


def compare_reports(a: RunReport, b: RunReport) -> dict:
    """Per-task and mean accuracy deltas (A minus B) for matching task lists,
    of two reports `load_report` accepted (one `final` row per task, in
    `tasks` order)."""
    if a.tasks != b.tasks:
        raise InputError("reports cover different task lists; nothing to compare")
    rows = []
    for ta, tb in zip(a.final, b.final):
        rows.append({
            "task": ta["task"],
            "acc_a": ta["val_acc"],
            "acc_b": tb["val_acc"],
            "delta": ta["val_acc"] - tb["val_acc"],
        })
    mean_a = float(np.mean([r["acc_a"] for r in rows]))
    mean_b = float(np.mean([r["acc_b"] for r in rows]))
    return {
        "mode_a": a.mode,
        "mode_b": b.mode,
        "tasks": rows,
        "mean_a": mean_a,
        "mean_b": mean_b,
        "mean_delta": mean_a - mean_b,
    }
