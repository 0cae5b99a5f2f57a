"""The quick demos run to completion against the current package.

Each runs as its own process with `src` on the import path. Demos 03
(about 26 s) and 05 (about 7 s) are left out to keep the suite fast.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_paths_and_sharing", "02_gradient_verification",
                                  "04_per_task_norm_instances"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
