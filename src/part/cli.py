"""Command-line entry points.

Exit codes: 0 success, 2 invalid config or input, 3 numeric failure at
runtime, 1 internal contract violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path as FsPath

from .checkpoint import write_json
from .config import load_config
from .errors import ContractError, InputError, NumericError
from .experiment import (
    CHECKPOINT_NAME,
    REPORT_NAME,
    analyze_checkpoint,
    compare_reports,
    evaluate_checkpoint,
    generate_data_files,
    load_report,
    profile_sharing_trials,
    run_experiment,
)
from .training import SCHEDULES


def _cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    written = generate_data_files(cfg, args.out)
    for path in written:
        print(f"wrote {path}")
    if not written:
        print("no synthetic tasks in config; nothing to write")
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.mode:
        cfg.mode = args.mode
    report = run_experiment(cfg, out_dir=args.out, log=print)
    out = FsPath(args.out if args.out is not None else cfg.out_dir)
    print(f"final mean val_acc {report.mean_final_accuracy():.4f}")
    print(f"wrote {out / REPORT_NAME} and {out / CHECKPOINT_NAME}")
    return 0


def _cmd_eval(args) -> int:
    cfg = load_config(args.config)
    rows = evaluate_checkpoint(args.ckpt, cfg)
    for row in rows:
        print(f"task {row['task']} ({row['name']}): val_acc {row['val_acc']:.4f}")
    mean = sum(r["val_acc"] for r in rows) / len(rows)
    print(f"mean val_acc {mean:.4f}")
    return 0


def _cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    artifacts = analyze_checkpoint(args.ckpt, cfg, out_dir=args.out)
    for key, value in artifacts.items():
        if key == "heatmaps":
            for h in value:
                print(f"wrote {h}")
        elif key != "out_dir":
            print(f"wrote {value}")
    return 0


def _cmd_profile_sharing(args) -> int:
    cfg = load_config(args.config)
    result = profile_sharing_trials(cfg, trials=args.trials)
    if args.out:
        write_json(args.out, result)
        print(f"wrote {args.out}")
    print(json.dumps(result, sort_keys=True, indent=2))
    return 0


def _cmd_compare(args) -> int:
    a = load_report(args.report_a)
    b = load_report(args.report_b)
    result = compare_reports(a, b)
    print(f"A={result['mode_a']}  B={result['mode_b']}")
    for row in result["tasks"]:
        print(f"task {row['task']}: A {row['acc_a']:.4f}  B {row['acc_b']:.4f}  "
              f"delta {row['delta']:+.4f}")
    print(f"mean: A {result['mean_a']:.4f}  B {result['mean_b']:.4f}  "
          f"delta {result['mean_delta']:+.4f}")
    write_json(args.out, result)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="part",
        description="Parallel multi-task training on a module grid, with "
                    "sequential/single baselines and CKA analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write synthetic task CSVs")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override config out_dir")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="run a training experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=SCHEDULES, default=None, help="override config mode")
    p.add_argument("--out", default=None, help="override config out_dir")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="validate every task from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze", help="CKA + sharing analysis of a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override config out_dir")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("profile-sharing", help="sharing profile of random path draws")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out", default=None, help="also write the JSON here")
    p.set_defaults(func=_cmd_profile_sharing)

    p = sub.add_parser("compare", help="per-task accuracy deltas of two reports")
    p.add_argument("report_a")
    p.add_argument("report_b")
    p.add_argument("--out", default="compare.json")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as e:   # OSError: an unreadable or unwritable path
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except ContractError as e:
        print(f"internal contract violation: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
