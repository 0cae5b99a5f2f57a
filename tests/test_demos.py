"""The quick demos run to completion against the current package.

Each runs as its own process with `src` on the import path. Demo 05
(about 5 s) is the only one that runs RBF CKA end to end; its stdout is
pinned by sha256, taken before the single-partition median bandwidth, so
the bandwidth and the Gram it gives cannot drift unnoticed. Demo 03
(about 26 s) is left out to keep the suite fast.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_05_STDOUT_SHA256 = "8308dc0603c1215c0113a22e7b684f91e3a8875bdecd05dfe3225549e4b42ada"


def _run_demo(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("demo", ["01_paths_and_sharing", "02_gradient_verification",
                                  "04_per_task_norm_instances"])
def test_demo_runs(demo):
    _run_demo(demo)


def test_demo_05_controlled_sharing_cka_stdout_is_pinned():
    stdout = _run_demo("05_controlled_sharing_cka")
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == DEMO_05_STDOUT_SHA256
