import json
import os
import subprocess
import sys
from pathlib import Path

import part

SRC = Path(part.__file__).resolve().parents[1]


def test_importing_part_loads_only_numpy_and_the_standard_library():
    # the runtime is numpy-only: scipy, hypothesis and the rest are for
    # tests and benches. Site .pth files can load modules (certifi,
    # _distutils_hack) at interpreter start-up, before any import, so only
    # what `import part` adds to sys.modules is checked
    code = ("import json, sys; before = set(sys.modules); import part; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    added = json.loads(done.stdout)
    assert "part" in added and "numpy" in added
    allowed = {"part", "numpy"} | sys.stdlib_module_names
    assert [m for m in added if m.split(".")[0] not in allowed] == []
