"""Parallel multi-task training on a module-grid network.

A desk-scale laboratory for training several classification tasks at once
on one network whose layers are grids of dense modules. Each task gets a
random path (N modules per layer); overlapping paths share and co-train
modules. Includes the sequential-freezing and single-task baselines and a
CKA suite for comparing learned representations across tasks.
"""

from .analysis import (
    ActivationSet,
    CkaReport,
    SharingProfile,
    average_cka_reports,
    balanced_sample,
    capture_activations,
    cka,
    expected_sharing_count,
    hsic,
    layerwise_cka_report,
    shared_layers_from_label,
    sharing_profile,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import AnalysisConfig, ExperimentConfig, GridConfig, TaskConfig, load_config, parse_config
from .data import (
    BatchPlan,
    Dataset,
    gen_synthetic_task,
    load_csv,
    next_batches,
    oversample_to_equal,
    standardize_pair,
    write_csv,
)
from .errors import (
    ConfigError,
    ContractError,
    CsvParseError,
    DegenerateRepresentation,
    InputError,
    NumericError,
)
from .net import (
    ModuleGrid,
    Path,
    TaskSpec,
    assign_random_path,
    assign_random_paths,
    backward_task,
    build_controlled_paths,
    forward_task,
    freeze,
    register_task,
    trainable_keys,
)
from .numerics import AdamState, adam_step, finite_diff_check, softmax_xent_slice
from .training import (
    SCHEDULES,
    EpochScheduler,
    Phase,
    RunReport,
    TrainConfig,
    derive_rng,
    schedule_round,
    train,
    train_parallel,
    train_sequential,
    train_single,
    validate,
)

__version__ = "0.1.0"
