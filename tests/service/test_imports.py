"""No module imports numpy, and a forked attempt imports nothing.

``repro serve`` and every CLI engine load the workers' models in the
parent process, so each forked attempt inherits them: a cold job pays
for its own work, never for imports.  Both checks run in a fresh
interpreter, so modules this test session already loaded cannot hide
an import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def run_probe(probe: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    env.pop("REPRO_CACHE_DIR", None)
    return subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_no_module_imports_numpy():
    probe = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['numpy'] = None  # any 'import numpy' now fails\n"
        "import repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if info.name != 'repro.__main__':\n"
        "        importlib.import_module(info.name)\n"
        "from repro.cli import main\n"
        "sys.exit(main(['fig7', '--no-cache']))\n"
    )
    result = run_probe(probe)
    assert result.returncode == 0, result.stderr
    assert "unroll" in result.stdout


def test_forked_attempts_import_nothing(tmp_path):
    points = {
        "squares": {"x": 3},
        "sleepy": {"duration_s": 0},
        "chaos-squares": {"x": 2, "state_dir": str(tmp_path / "chaos")},
        "cluster-elapsed": {"app": "linpack", "cores": 2, "num_nodes": 2},
        "cluster-energy": {"app": "linpack", "cores": 2, "num_nodes": 2},
        "magicfilter": {
            "machine": "Intel Xeon X5550", "unroll": 4, "shape": [8, 8, 8],
        },
        "page-alloc": {
            "machine": "Intel Xeon X5550", "array_bytes": 1 << 16,
        },
        "trace-analysis": {"num_ranks": 2},
    }
    probe = (
        "import asyncio, json, sys\n"
        # What `repro serve` loads before its first fork.
        "import repro.cli, repro.metrics, repro.service\n"
        "from repro.engine.engine import run_attempt\n"
        "from repro.service.scenarios import SCENARIOS\n"
        f"points = json.loads({json.dumps(json.dumps(points))})\n"
        "assert set(points) == set(SCENARIOS), sorted(SCENARIOS)\n"
        "async def ignore(summary):\n"
        "    pass\n"
        "def newly_imported(worker):\n"
        "    def run(params):\n"
        "        before = set(sys.modules)\n"
        "        worker(params)\n"
        "        return sorted(set(sys.modules) - before)\n"
        "    return run\n"
        "report = {}\n"
        "for name, scenario in SCENARIOS.items():\n"
        "    _, point = scenario.build(points[name])\n"
        "    report[name], _, _ = asyncio.run(run_attempt(\n"
        "        newly_imported(scenario.worker), point, 1, timeout_s=120,\n"
        "        deadline=None, label=name,\n"
        "        metrics=repro.metrics.MetricsRegistry(), scope='probe',\n"
        "        on_progress=ignore if scenario.progress else None))\n"
        "print(json.dumps(report))\n"
    )
    result = run_probe(probe)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert sorted(report) == sorted(points)
    assert report == {name: [] for name in points}
