"""The benchmark's tracer still finds every entry point it wraps, and its
counters still find every field they read.

``perfbench/tracing.py`` replaces module attributes by name; a name the
solver no longer has is reported as absent, and the traced run loses that
layer.  ``perfbench/run.py``'s ``certificate_counters`` reads fields of a
traced solve's certificates; a field that is gone is reported as absent
too.  This reads the benchmark's code without changing it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from mwss import Graph, solve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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



def _load_run():
    """``perfbench/run.py`` as a module; it imports its siblings by name."""
    sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


run = _load_run()


@pytest.mark.parametrize(
    "workload",
    [
        run.workloads.strip_large(seed=1, nodes=800),
        run.workloads.pricing_batch(seed=5, nodes=800, vectors=4),
    ],
    ids=["strip", "pricing"],
)
def test_certificate_counters_find_every_field(workload):
    counters, absent = {}, set()
    for weights in workload.weight_vectors:
        g = Graph(workload.graph.n, workload.edges, weights)
        run.certificate_counters(solve(g, collect_trace=True), counters, absent)
    assert absent == set()
    # the per-component fields were read, not summed over no components
    assert counters["solver.route_pipeline"] > 0
    assert counters["decomposition.removal_size"] > 0
