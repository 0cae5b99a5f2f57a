"""Experiment configuration: one JSON document fully determines a run.

Shape:

    {
      "seed": 7,
      "mode": "parallel",                  # a key of training.SCHEDULES
      "norm_mode": "shared",               # shared | per-task
      "out_dir": "runs/demo",
      "grid": {"n_layers": 4, "n_modules": 6, "path_width": 3,
               "d_in": 8, "d_hid": 16},
      "tasks": [
        {"type": "synthetic", "c": 4, "n_per_class": 50, "margin": 6.0},
        {"type": "csv", "train": "data/t1_train.csv", "val": "data/t1_val.csv"}
      ],
      "train": {"epochs": 30, "batch_size": 16, "batch_set_size": 10,
                "lr0": 0.001, "lr_halve_epochs": [20, 30, 40]},
      "single_task_index": 0,
      "controlled_sharing": null,          # or a setup label like "layer 123"
      "analysis": {"cka": true, "sharing": true, "pair": [0, 1],
                   "capture_n": 200, "kernel": "rbf", "rbf_frac": 0.5,
                   "rbf_sigma": null}
    }

The config hash covers everything except out_dir. A key that no field
reads is refused, naming it (a `ConfigError`, exit 2).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path as FsPath

from .errors import ConfigError
from .training import SCHEDULES, TrainConfig

NORM_MODES = ("shared", "per-task")


@dataclass
class GridConfig:
    n_layers: int
    n_modules: int
    path_width: int
    d_in: int
    d_hid: int


@dataclass
class TaskConfig:
    kind: str                      # "synthetic" | "csv"
    name: str
    c: int = 0                     # synthetic only; csv infers from file
    n_per_class: int = 0
    margin: float = 0.0
    train_csv: str = ""
    val_csv: str = ""


@dataclass
class AnalysisConfig:
    cka: bool = True
    sharing: bool = True
    pair: tuple[int, int] = (0, 1)
    capture_n: int = 200
    kernel: str = "rbf"
    rbf_frac: float = 0.5
    rbf_sigma: float | None = None


@dataclass
class ExperimentConfig:
    seed: int
    mode: str
    norm_mode: str
    out_dir: str
    grid: GridConfig
    tasks: list[TaskConfig]
    train: TrainConfig
    single_task_index: int = 0
    controlled_sharing: str | None = None
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)

    def __post_init__(self):
        if self.train.seed != self.seed:
            raise ConfigError("train.seed",
                              f"must equal the run seed {self.seed}, got {self.train.seed}")

    def canonical_dict(self) -> dict:
        """Every field but out_dir, and train.seed, which repeats seed."""
        d = asdict(self)
        del d["out_dir"], d["train"]["seed"]
        return d

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _is_a(v, typ) -> bool:
    """isinstance(v, typ), except that a bool is no int and an int is a
    float; `typ` may be a tuple of types."""
    if isinstance(typ, tuple):
        return any(_is_a(v, t) for t in typ)
    if isinstance(v, bool):
        return typ is bool
    return isinstance(v, (int, float) if typ is float else typ)


def _name(typ) -> str:
    if isinstance(typ, tuple):
        return " or ".join(map(_name, typ))
    return "null" if typ is type(None) else typ.__name__


def _get(d: dict, key: str, typ, where: str = "", default=MISSING, items=None):
    """d[key], taken out of `d`, a section's own copy (`_no_more` refuses
    what is left), checked to be a `typ` (see `_is_a`) and, for a list, to
    hold only `items`; `default` if the key is absent, and an error if it is
    absent with no default. A float must be finite (JSON parsing takes NaN
    and Infinity). The value comes back as the file has it (an int read as
    a float stays an int), so the check leaves the hash alone."""
    name = f"{where}.{key}" if where else key
    if key not in d:
        if default is MISSING:
            raise ConfigError(name, "missing")
        return default
    v = d.pop(key)
    if not _is_a(v, typ):
        raise ConfigError(name, f"expected {_name(typ)}, got {_name(type(v))}")
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(name, f"must be finite, got {v}")
    for x in v if items is not None else ():
        if not _is_a(x, items):
            raise ConfigError(name, f"expected a list of {_name(items)}, got an item {x!r}")
    return v


def _no_more(d: dict, where: str = "") -> None:
    """ConfigError for the first key of a section that no `_get` took out."""
    for key in d:
        raise ConfigError(f"{where}.{key}" if where else key, "unknown field")


# `_get`'s (type, item type) check for each annotation of a section's fields
_CHECKS = {"int": (int, None), "float": (float, None), "bool": (bool, None), "str": (str, None),
           "float | None": ((float, type(None)), None),
           "tuple[int, ...]": (list, int), "tuple[int, int]": (list, int)}


def _section(d: dict, where: str, cls, skip=(), **defaults) -> dict:
    """The fields of dataclass `cls` but `skip`, read from section `d` by
    `_get` as each annotation says (a list comes back as a tuple), with
    `defaults` before the class's own; then `_no_more`."""
    d, out = dict(d), {}
    for f in fields(cls):
        if f.name not in skip:
            typ, items = _CHECKS[f.type]
            v = _get(d, f.name, typ, where, defaults.get(f.name, f.default), items)
            out[f.name] = v if items is None else tuple(v)
    _no_more(d, where)
    return out


def _parse_task(i: int, d: dict) -> TaskConfig:
    where, d = f"tasks[{i}]", dict(d)
    kind = _get(d, "type", str, where)
    name = _get(d, "name", str, where, f"task{i}")
    if kind == "synthetic":
        c = _get(d, "c", int, where)
        if c < 2:
            raise ConfigError(f"{where}.c", f"class count must be >= 2, got {c}")
        n_per_class = _get(d, "n_per_class", int, where)
        if n_per_class < 5:
            raise ConfigError(f"{where}.n_per_class", f"must be >= 5, got {n_per_class}")
        margin = float(_get(d, "margin", float, where))
        if margin <= 0:
            raise ConfigError(f"{where}.margin", f"must be positive, got {margin}")
        task = TaskConfig(kind=kind, name=name, c=c, n_per_class=n_per_class, margin=margin)
    elif kind == "csv":
        task = TaskConfig(kind=kind, name=name,
                          train_csv=_get(d, "train", str, where),
                          val_csv=_get(d, "val", str, where))
    else:
        raise ConfigError(f"{where}.type", f"must be 'synthetic' or 'csv', got {kind!r}")
    _no_more(d, where)
    return task


def parse_config(doc: dict) -> ExperimentConfig:
    doc = dict(doc)
    seed = _get(doc, "seed", int)
    if seed < 0:
        raise ConfigError("seed", f"must be >= 0, got {seed}")
    mode = _get(doc, "mode", str, default="parallel")
    if mode not in SCHEDULES:
        raise ConfigError("mode", f"must be one of {tuple(SCHEDULES)}, got {mode!r}")
    norm_mode = _get(doc, "norm_mode", str, default="shared")
    if norm_mode not in NORM_MODES:
        raise ConfigError("norm_mode", f"must be one of {NORM_MODES}, got {norm_mode!r}")
    out_dir = _get(doc, "out_dir", str, default="runs/out")

    grid = GridConfig(**_section(_get(doc, "grid", dict), "grid", GridConfig))
    if grid.n_layers < 1:
        raise ConfigError("grid.n_layers", "must be >= 1")
    if not (1 <= grid.path_width <= grid.n_modules):
        raise ConfigError("grid.path_width",
                          f"need 1 <= path_width <= n_modules, got "
                          f"{grid.path_width} vs {grid.n_modules}")
    if grid.d_in < 2:
        raise ConfigError("grid.d_in", f"must be >= 2, got {grid.d_in}")
    if grid.d_hid < 1:
        raise ConfigError("grid.d_hid", f"must be >= 1, got {grid.d_hid}")

    raw_tasks = _get(doc, "tasks", list, items=dict)
    if not raw_tasks:
        raise ConfigError("tasks", "at least one task is required")
    tasks = [_parse_task(i, t) for i, t in enumerate(raw_tasks)]

    t = _section(_get(doc, "train", dict, default={}), "train", TrainConfig, skip=("seed",))
    try:
        train = TrainConfig(**t, seed=seed)
    except ValueError as e:
        raise ConfigError("train", str(e)) from None
    if train.batch_size < 2:
        raise ConfigError("train.batch_size",
                          f"must be >= 2 (batch norm of one sample), got {train.batch_size}")

    single_task_index = _get(doc, "single_task_index", int,
                             default=ExperimentConfig.single_task_index)
    if not (0 <= single_task_index < len(tasks)):
        raise ConfigError("single_task_index",
                          f"must index a task in [0,{len(tasks)}), got {single_task_index}")

    controlled = _get(doc, "controlled_sharing", (str, type(None)),
                      default=ExperimentConfig.controlled_sharing)
    if controlled is not None:
        if len(tasks) != 2:
            raise ConfigError("controlled_sharing", "controlled setups need exactly 2 tasks")
        if grid.n_modules != 2 * grid.path_width:
            raise ConfigError("controlled_sharing",
                              "controlled setups need n_modules = 2 * path_width")

    a = _get(doc, "analysis", dict, default={})
    analysis = AnalysisConfig(**_section(a, "analysis", AnalysisConfig,
                                         pair=(0, 1) if len(tasks) >= 2 else (0, 0)))
    if len(analysis.pair) != 2 or not all(0 <= p < len(tasks) for p in analysis.pair):
        raise ConfigError("analysis.pair",
                          f"must name two registered tasks, got {analysis.pair}")
    if analysis.kernel not in ("linear", "rbf"):
        raise ConfigError("analysis.kernel",
                          f"must be 'linear' or 'rbf', got {analysis.kernel!r}")
    if analysis.capture_n < 3:
        raise ConfigError("analysis.capture_n", "must be >= 3")
    if analysis.rbf_frac <= 0:
        raise ConfigError("analysis.rbf_frac", f"must be positive, got {analysis.rbf_frac}")
    if analysis.rbf_sigma is not None and analysis.rbf_sigma <= 0:
        raise ConfigError("analysis.rbf_sigma", f"must be positive, got {analysis.rbf_sigma}")
    _no_more(doc)

    return ExperimentConfig(seed=seed, mode=mode, norm_mode=norm_mode, out_dir=out_dir,
                            grid=grid, tasks=tasks, train=train,
                            single_task_index=single_task_index,
                            controlled_sharing=controlled, analysis=analysis)


def load_config(path) -> ExperimentConfig:
    p = FsPath(path)
    if not p.exists():
        raise ConfigError("(file)", f"no such config file: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError("(file)", f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError("(file)", "top-level JSON value must be an object")
    return parse_config(doc)
