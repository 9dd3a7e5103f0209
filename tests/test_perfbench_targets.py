"""The benchmark's tracer still finds every entry point it wraps.

``perfbench/tracing.py`` replaces module attributes by name; a name the
solver no longer has is reported as absent, and the traced run loses that
layer.  This reads the benchmark's target list without changing it.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "name, module, path", tracing.TARGETS, ids=[t[0] for t in tracing.TARGETS]
)
def test_target_resolves(name, module, path):
    assert tracing._resolve(module, path) is not None, f"{name}: {module}.{path}"

