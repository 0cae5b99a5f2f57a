"""Repo benchmark: time `part`'s training and analysis workloads end to end.

    python3 perfbench/run.py --workload parallel8 --seed 1 --seconds 30 --trace 0

Runs one workload (see `workloads.py` and README.md) in this process:
one untimed warm-up operation, then operations until `--seconds` would be
exceeded (at least three). Each operation is checked (finite outputs,
accuracy floor, CKA matrix properties) and fingerprinted; an operation
that raises, fails a check, or whose fingerprint differs from its
siblings' counts as failed.

With `--trace 0` the last stdout line holds the end-to-end metrics
(medians over the timed operations; times at reference speed, see
`end_to_end`). With `--trace 1` the operations
alternate between traced and untraced ones and the last line holds the
per-layer metrics of the traced ones. Human-readable lines, the
environment and the fingerprints come before it; the same record is
written to `.bench_out/` in the checkout, with the spans of the last
traced operation.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BASELINE = Path(__file__).resolve().parent / "baseline.json"

# (metric, unit, better, bound): what BENCHMARK.json lists as end_to_end
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("val_acc_mean", "fraction", "higher", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
MIN_OPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Cap OpenBLAS at the CPUs this process may use; must run before numpy
    is imported. OpenBLAS otherwise sizes its pool from the host's cores."""
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    n = int(current) if current.isdigit() and int(current) > 0 else nproc()
    os.environ["OPENBLAS_NUM_THREADS"] = str(min(n, nproc()))


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    maps = Path("/proc/self/maps").read_text()
    libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps)))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "part").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def pinned_status(workload: str, seed: int, fingerprint: dict) -> str:
    """Compare with the fingerprints pinned in baseline.json, if any."""
    if not BASELINE.is_file():
        return "no baseline"
    pinned = json.loads(BASELINE.read_text())["fingerprints"].get(workload, {}).get(str(seed))
    if pinned is None:
        return "seed not pinned"
    return "match" if pinned == fingerprint else "DIFFERS from baseline.json"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _small_kernel() -> None:
    """Python and tiny numpy ops, like the training path: 16x16 products,
    elementwise ops, dict updates."""
    import numpy as np

    a = np.full((16, 16), 0.5)
    b = np.eye(16)
    sums = {}
    for i in range(20000):
        c = np.maximum(a @ b * 0.5 + 0.1, 0.0)
        sums[i % 64] = c.sum()


def _memory_kernel() -> None:
    """Elementwise passes over 400x400 arrays with fresh temporaries, like
    the HSIC checks and centring that dominate `analyze`."""
    import numpy as np

    x = np.linspace(-1.0, 1.0, 400 * 16).reshape(400, 16)
    k = x @ x.T
    for _ in range(25):
        np.allclose(k, k.T, atol=1e-10)
        c = k - k.mean(axis=0, keepdims=True) - k.mean(axis=1, keepdims=True) + k.mean()
        float(np.sum(c * c))


# Reference kernels: fixed work that no change to `part` can speed up or
# slow down, with each one's time on the machine the benchmark was defined
# on (a 2-vCPU Xeon virtual machine) in a quiet spell.
REFERENCES = {"small": (_small_kernel, 0.1), "memory": (_memory_kernel, 0.06)}


def reference_times(names) -> dict[str, float]:
    """Seconds the named reference kernels take now."""
    times = {}
    for name in names:
        t0 = time.perf_counter()
        REFERENCES[name][0]()
        times[name] = time.perf_counter() - t0
    return times


@dataclass
class Sample:
    """One operation of a run."""

    timed: bool                  # False for the warm-up
    traced: bool
    ref_before: dict             # reference kernel times just before
    ref_after: dict | None = None  # and just after (the next one's before)
    op: object = None            # OpResult; None if the operation raised
    layer: dict | None = None    # per-layer metrics of a traced operation

    def scale(self, reference: str) -> float:
        """Factor from wall time to time at the reference kernel's speed."""
        measured = (self.ref_before[reference] + self.ref_after[reference]) / 2
        return REFERENCES[reference][1] / measured


def measure(workload, seed: int, seconds: float, trace: bool, work_root: Path) -> dict:
    from perfbench.tracer import Tracer
    from perfbench.workloads import run_op

    tracer = Tracer() if trace else None
    # only the kernels this workload is scaled by, so that no other kernel's
    # arrays count towards its peak memory
    references = sorted({"small", workload.reference})
    samples: list[Sample] = []
    failed = attempted = 0
    start = None      # set after the warm-up operation
    while True:
        timed = start is not None
        # trace mode alternates traced and untraced timed operations
        traced = trace and timed and sum(s.timed for s in samples) % 2 == 0
        work_dir = work_root / f"op{len(samples)}"
        t0 = time.perf_counter()
        sample = Sample(timed, traced, reference_times(references))
        if traced:
            tracer.reset()
            tracer.install()
        try:
            sample.op = run_op(workload, seed, work_dir, tracer if traced else None)
            if traced:
                sample.layer = tracer.metrics()
        except Exception:   # a failed operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            calls = 2 if workload.mode == "analyze" else 1
            failed += calls
            attempted += calls
        finally:
            if traced:
                tracer.uninstall()
            shutil.rmtree(work_dir, ignore_errors=True)
        if sample.op is not None:
            attempted += sample.op.calls
            if sample.op.errors:
                failed += sample.op.calls
                for err in sample.op.errors:
                    print(f"operation {len(samples)}: {err}", file=sys.stderr)
        samples.append(sample)
        last = time.perf_counter() - t0
        if start is None:
            start = time.perf_counter()
        elif (sum(s.timed for s in samples) >= MIN_OPS
              and time.perf_counter() - start + last > seconds):
            break

    for sample, after in zip(samples, samples[1:]):
        sample.ref_after = after.ref_before
    samples[-1].ref_after = reference_times(references)

    done = [s for s in samples if s.op is not None]
    keys = collections.Counter(json.dumps(s.op.fingerprint, sort_keys=True) for s in done)
    reference = json.loads(keys.most_common(1)[0][0]) if keys else {}
    for s in done:
        if s.op.fingerprint != reference and not s.op.errors:
            failed += s.op.calls
            print("an operation's fingerprint differs from its siblings'", file=sys.stderr)
    if trace and tracer.spans:
        OUT.mkdir(exist_ok=True)
        tracer.save_spans(OUT / f"spans-{workload.name}-seed{seed}.npz")
    return {"samples": samples, "timed": [s for s in done if s.timed], "failed": failed,
            "attempted": attempted, "fingerprint": reference}


def end_to_end(result: dict, workload) -> tuple[dict, dict]:
    """End-to-end metrics over the timed operations, plus the derived
    throughputs and counts printed for people (not part of the metrics).

    Times are given at reference speed: wall time times a reference
    kernel's nominal time over the mean of its times just before and just
    after the operation. On a shared virtual machine the CPU slows by up
    to 2x for minutes at a time; a kernel doing the same kind of work slows
    with it, so the scaled times stay steady where wall times do not.
    Set-up is training-path work on every workload and is scaled by the
    small kernel; the run by the workload's own kernel. Wall times go to
    the record for comparison."""
    samples = result["timed"]
    setup = [s.op.setup_s * s.scale("small") for s in samples]
    run = [s.op.run_s * s.scale(workload.reference) for s in samples]
    ref = next((s.op for s in samples if s.op.fingerprint == result["fingerprint"]),
               samples[0].op)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(run),
        "val_acc_mean": ref.val_acc_mean,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    rate_name = "cka_entries_per_s" if workload.mode == "analyze" else "train_samples_per_s"
    extra = {
        rate_name: ref.work / metrics["run_s"],
        "failed_ops": result["failed"] / result["attempted"],
        "run_s_quartiles": quartiles(run),
        "wall_run_s_median": statistics.median(s.op.run_s for s in samples),
        "wall_setup_s_median": statistics.median(s.op.setup_s for s in samples),
        "reference_s_median": {name: statistics.median(s.ref_before[name] for s in samples)
                               for name in samples[0].ref_before},
        "samples": len(samples),
    }
    return metrics, extra


def per_layer(result: dict) -> tuple[dict, list[str]]:
    """Medians of the traced operations' self times (wall time); counts
    must repeat exactly across traced operations."""
    from perfbench.tracer import PER_LAYER

    traced = [s for s in result["timed"] if s.traced]
    plain = [s.op.run_s for s in result["timed"] if not s.traced]
    errors = []
    metrics = {}
    for name, unit, _ in PER_LAYER:
        values = [s.layer[name] for s in traced]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                errors.append(f"count {name} differs between traced operations: {values}")
            metrics[name] = values[0]
    traced_run = statistics.median(s.op.run_s for s in traced)
    metrics["bench.run.traced_s"] = traced_run
    metrics["bench.trace_overhead_s"] = traced_run - statistics.median(plain)
    return metrics, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "part" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'part'} is missing", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path[:0] = [str(SRC), str(ROOT)]
    import part
    if SRC.resolve() not in Path(part.__file__).resolve().parents:
        print(f"imported part from {part.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from perfbench.tracer import PER_LAYER
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)

    work_root = OUT / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    if not result["timed"] or (args.trace and not any(s.traced for s in result["timed"])):
        print("no operation completed; nothing to report", file=sys.stderr)
        return 1

    correct = result["failed"] == 0
    pinned = pinned_status(workload.name, args.seed, result["fingerprint"])
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(result['timed'])} timed operations after 1 warm-up, "
          f"{result['failed']} of {result['attempted']} calls failed")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("fingerprint: " + json.dumps(result["fingerprint"], sort_keys=True)
          + f" ({pinned})")
    if args.trace:
        metrics, errors = per_layer(result)
        for err in errors:
            print(err, file=sys.stderr)
        correct = correct and not errors
        units = {name: unit for name, unit, _ in PER_LAYER}
        record_extra = {}
    else:
        metrics, extra = end_to_end(result, workload)
        units = {name: unit for name, unit, _, _ in END_TO_END}
        for name in ("train_samples_per_s", "cka_entries_per_s"):
            if name in extra:
                print(f"{name} {extra[name]:.6g} 1/s")
        print(f"failed_ops {extra['failed_ops']:.6g} ratio "
              f"({result['failed']}/{result['attempted']})")
        print(f"run_s quartiles {extra['run_s_quartiles'][0]:.6g} "
              f"{extra['run_s_quartiles'][1]:.6g} s over {extra['samples']} operations; "
              f"wall-time medians: run {extra['wall_run_s_median']:.6g} s, "
              f"set-up {extra['wall_setup_s_median']:.6g} s, "
              "reference kernels " + ", ".join(
                  f"{name} {t:.4g} s (nominal {REFERENCES[name][1]} s)"
                  for name, t in extra["reference_s_median"].items()))
        record_extra = extra
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "fingerprint": result["fingerprint"],
        "pinned": pinned, "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics, "extra": record_extra,
        "operations": [{"timed": s.timed, "traced": s.traced, "ref_before_s": s.ref_before,
                        "ref_after_s": s.ref_after, "setup_s": s.op.setup_s,
                        "run_s": s.op.run_s}
                       for s in result["samples"] if s.op is not None],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
