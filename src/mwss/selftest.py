"""In-process invariant sweep backing the ``selftest`` subcommand.

A compact version of the acceptance suite: seeded instances are run
through the claw and net detectors and the solver against the oracle,
and every pipeline component that the solve produces is held to the
invariants of ``mwss.checks``.  One line per check; exit code 1 when any
check fails.
"""

from __future__ import annotations

import json
import sys

from .checks import (
    CanonicalState,
    canonical_violation,
    component_detail,
    interval_violation,
    strip_partition_violation,
    strip_violation,
)
from .generators import GenSpec, gen_rejection, gen_strip_instance
from .oracle import oracle_mwss
from .patterns import find_claw, find_net
from .solver import solve


def _instances(instances: int, seed: int):
    out = []
    half = instances // 2
    for i in range(half):
        spec = GenSpec(
            seed=seed * 100_003 + i,
            mode="rejection",
            nodes=6 + (i % 15),
            weights=("unit", "random", "ties")[i % 3],
        )
        out.append(gen_rejection(spec))
    for i in range(instances - half):
        spec = GenSpec(
            seed=seed * 77_003 + i,
            mode="strip",
            nodes=8 + (i % 24),
            clique_min=1,
            clique_max=4,
            density=(0.3, 0.5, 0.8)[i % 3],
            weights=("unit", "random", "ties")[i % 3],
        )
        out.append(gen_strip_instance(spec))
    return out


def run_selftest(instances: int = 60, seed: int = 0, out=sys.stdout) -> int:
    """Print one ok/FAIL line per check; ``instances`` must be at least 1."""
    graphs = _instances(instances, seed)
    failures = 0

    def report(name: str, bad: int, detail: str = ""):
        nonlocal failures
        status = "ok" if bad == 0 else "FAIL"
        line = f"{status} {name}"
        if detail:
            line += f" ({detail})"
        print(line, file=out)
        failures += bad

    bad = sum(find_claw(g) is not None or find_net(g) is not None for g in graphs)
    report("detectors-clean", bad, f"{len(graphs)} instances")

    bad = 0
    details = []
    for g in graphs:
        solution = solve(g, collect_trace=True)
        if solution.value != oracle_mwss(g)[0]:
            bad += 1
        details.extend(component_detail(d) for d in solution.certificates["details"] if d)
    report("solve-equals-oracle", bad)

    bad = sum(
        canonical_violation(CanonicalState(d.graph, d.stable_set), d.canonical_steps) is not None
        for d in details
    )
    report("canonical-fixpoint", bad, f"{len(details)} pipeline components")

    bad = sum(interval_violation(d.graph, d.interval, d.order) is not None for d in details)
    report("post-transform-interval", bad)

    decs = [(d.graph, d.decomposition) for d in details]
    bad = sum(strip_violation(g, dec) is not None for g, dec in decs)
    report("strips-square-semi-homogeneous", bad)

    bad = sum(strip_partition_violation(g, dec.strips, dec.removal) is not None for g, dec in decs)
    report("strips-partition", bad)

    sample = graphs[0]
    payloads = []
    for _ in range(2):
        s = solve(sample)
        payloads.append(json.dumps({"value": s.value, "set": list(s.nodes)}))
    report("determinism", 0 if payloads[0] == payloads[1] else 1)

    print(("PASS" if failures == 0 else "FAIL") + f" selftest ({len(graphs)} instances)", file=out)
    return 0 if failures == 0 else 1
