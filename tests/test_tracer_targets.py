"""Every entry point the end-to-end benchmark's tracer wraps exists.

``e2ebench/tracer.py`` wraps each attribute its ``TARGETS`` table
names as the module is imported, and raises ``KeyError`` on one that
is gone, so renaming one fails every traced benchmark run.  This reads
the table without running the tracer and resolves each entry the way
its ``wrap_module`` does.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "e2ebench" / "tracer.py"


def tracer_targets() -> dict:
    spec = importlib.util.spec_from_file_location("e2ebench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_resolves():
    for module_name, entries in tracer_targets().items():
        module = importlib.import_module(module_name)
        for path, layer in entries:
            where = f"{module_name}.{path} ({layer})"
            if path.startswith("*"):
                # Module-level functions with the suffix, defined there.
                assert any(
                    name.endswith(path[1:]) and callable(value)
                    and getattr(value, "__module__", None) == module_name
                    for name, value in vars(module).items()
                ), where
            else:
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                assert attr in vars(owner), where
