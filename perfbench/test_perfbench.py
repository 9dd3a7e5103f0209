"""Tests of the benchmark itself: references, tracing, counters, output.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import tracing
import workloads
from mwss import Graph, find_claw, find_net, find_stable4, oracle_mwss, solve

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("k", range(2, 9))
def test_nested_cliques_are_claw_and_net_free_with_exact_reference(k):
    for seed in range(5):
        w = workloads.alpha3_dense(seed, k=k)
        g = w.graph
        assert find_claw(g) is None and find_net(g) is None
        assert find_stable4(g) is None
        chain = reference.chain_for(w)
        expected = oracle_mwss(g)[0]
        assert chain.optimum(g.weights) == expected == solve(g).value


@pytest.mark.parametrize("seed", range(6))
def test_strip_chain_is_recovered_and_reference_is_exact(seed):
    w = workloads.pricing_batch(seed, nodes=40, vectors=4)
    chain = reference.chain_for(w)
    for weights in (w.graph.weights,) + w.weight_vectors:
        g = Graph(w.graph.n, w.edges, weights)
        value, nodes = oracle_mwss(g)
        assert chain.optimum(weights) == value
        assert chain.is_stable(nodes)


def test_pricing_weights_are_mostly_non_positive():
    w = workloads.pricing_batch(3, nodes=400, vectors=20)
    weights = [x for vector in w.weight_vectors for x in vector]
    share = sum(1 for x in weights if x <= 0) / len(weights)
    assert 0.65 < share < 0.75


def test_chain_rejects_a_chain_that_does_not_fit():
    edges = [(0, 1), (1, 2), (2, 3)]  # a path: cliques {0,1}, {2,3} with 1-2 between
    reference.Chain(4, [[0, 1], [2, 3]], edges)
    with pytest.raises(reference.ChainError):
        reference.Chain(4, [[0, 2], [1, 3]], edges)  # cliques not complete
    with pytest.raises(reference.ChainError):
        reference.Chain(4, [[0, 1], [2], [3]], edges + [(0, 3)])  # skips a clique
    with pytest.raises(reference.ChainError):
        reference.Chain(4, [[0, 1], [2]], edges)  # node 3 uncovered


def test_chain_stability_check():
    chain = reference.Chain(4, [[0, 1], [2, 3]], [(0, 1), (1, 2), (2, 3)])
    assert chain.is_stable((0, 2)) and chain.is_stable((1, 3))
    assert not chain.is_stable((1, 2))
    assert not chain.is_stable((0, 1))
    assert not chain.is_stable((0, 7))


def test_layer_times_total_self_and_count():
    spans = [
        ["call", -1, 0.0, 10.0],
        ["a", 0, 1.0, 5.0],
        ["b", 1, 2.0, 3.0],
        ["a", 2, 2.2, 2.7],  # nested under an "a": not added to a's total
        ["b", 0, 6.0, 8.0],
    ]
    times = tracing.layer_times(spans)
    assert times["call"] == pytest.approx([10.0, 4.0, 1])
    assert times["a"] == pytest.approx([4.0, 3.0 + 0.5, 2])
    assert times["b"] == pytest.approx([3.0, 0.5 + 2.0, 2])


def test_tracer_restores_wrapped_names_and_reports_absent_ones():
    import mwss.solver

    original = mwss.solver.remove_twins
    init = Graph.__init__
    targets = tracing.TARGETS + (("gone", "mwss.solver", "no_such_function"),)
    tracer = tracing.Tracer(targets)
    with tracer:
        assert mwss.solver.remove_twins is not original
        Graph(3, [(0, 1)])
    assert mwss.solver.remove_twins is original and Graph.__init__ is init
    assert tracer.absent == ["gone"]
    assert [s[0] for s in tracer.spans] == ["graph.build"]


def test_absent_span_does_not_fail_a_traced_run(monkeypatch):
    monkeypatch.setattr(
        tracing, "TARGETS", tracing.TARGETS + (("gone", "mwss.solver", "missing"),)
    )
    checker, metrics = run.run_traced(workloads.alpha3_dense(1, k=6))
    assert checker.failed == 0 and not checker.problems
    assert metrics["trace.absent"][0] == 1


def _traced(w):
    checker, metrics = run.run_traced(w)
    assert checker.failed == 0 and not checker.problems
    assert checker.attempted == 2 * w.trace_calls
    assert set(metrics) == set(run.per_layer_units())
    return {name: value for name, (value, _) in metrics.items()}


@pytest.mark.parametrize(
    "build",
    [
        functools.partial(workloads.strip_large, 5, nodes=3000),
        functools.partial(workloads.pricing_batch, 5, nodes=1000, vectors=6),
        functools.partial(workloads.alpha3_dense, 5, k=20),
    ],
    ids=["strip", "pricing", "alpha3"],
)
def test_traced_counters_repeat_exactly(build):
    first, second = _traced(build()), _traced(build())
    for name in run.COUNTERS:
        assert first[name] == second[name], name
    for span in tracing.SPAN_NAMES:
        calls = run.span_metric_names(span)[2]
        assert first[calls] == second[calls], calls
    assert first["trace.absent"] == 0
    # Layer spans plus the solve's own time make up the traced solve time.
    assert 0.0 < first["trace.covered_share"] <= 1.0
    assert first["solver.self_s"] >= 0.0


def test_routes_match_the_workload_design():
    strip = _traced(workloads.strip_large(2, nodes=3000))
    assert strip["solver.route_pipeline"] == 1 and strip["solver.route_alpha3"] == 0
    assert strip["solver.alpha3_calls"] == 0
    dense = _traced(workloads.alpha3_dense(2, k=20))
    assert dense["solver.route_alpha3"] == 1 and dense["solver.route_pipeline"] == 0
    assert dense["graph.twin_steps"] == 0
    pricing = _traced(workloads.pricing_batch(2, nodes=1000, vectors=4))
    assert pricing["solver.route_alpha3"] > 0 and pricing["solver.route_pipeline"] > 0
    assert pricing["graph.components"] > 4 * 5


def test_untraced_round_reports_every_end_to_end_metric():
    workload = workloads.pricing_batch(4, nodes=600, vectors=3)
    workload = dataclasses.replace(workload, min_calls=8)
    result = run.measure_round(lambda: workload, seconds=0.0, memory=True)
    outcome, metrics = run.summarize([json.loads(json.dumps(result))])
    assert outcome.failed == 0 and not outcome.problems
    calls = -(-8 // workloads.ROUNDS["pricing_batch"])
    assert outcome.attempted == workload.mem_calls + calls == len(result["call"]) + 11
    assert [name for name, _ in run.END_TO_END] == list(metrics)
    assert all(value > 0 for value, _ in metrics.values())


def test_interleaved_meets_each_minimum_and_shares_time():
    ran = []

    def probe(name):
        return lambda: ran.append(name) or 1.0

    probes = {"a": (probe("a"), 0.6, 3), "b": (probe("b"), 0.2, 1), "c": (probe("c"), 0.2, 2)}
    samples, _ = run.interleaved(probes, seconds=0.0)
    assert {k: len(v) for k, v in samples.items()} == {"a": 3, "b": 1, "c": 2}
    assert ran[0] == "a" and set(ran[:3]) == {"a", "b", "c"}


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.BUILDERS)


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "alpha3_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_seed_same_inputs():
    a = workloads.pricing_batch(9, nodes=300, vectors=3)
    b = workloads.pricing_batch(9, nodes=300, vectors=3)
    assert a.graph == b.graph and a.weight_vectors == b.weight_vectors
    assert workloads.alpha3_dense(9, k=10).graph == workloads.alpha3_dense(9, k=10).graph
    rng = random.Random(0)
    edges, chain = workloads.nested_cliques(4, rng)
    assert len(edges) == 3 * 6 + 2 * (4 * 5 // 2)
