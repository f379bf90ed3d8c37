"""The job service and the sweep definitions import nothing heavy.

``repro serve`` imports both in its parent process, and every forked
attempt inherits what the parent has loaded.  numpy and the numeric
kernels must stay out until a worker that needs them runs, so a cold
cluster job does not pay for them.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_service_and_sweeps_leave_numpy_and_kernels_unloaded():
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    probe = (
        "import sys\n"
        "import repro.service, repro.engine.sweeps\n"
        "print(sorted({'numpy', 'repro.kernels'} & set(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert result.stdout.strip() == "[]"
