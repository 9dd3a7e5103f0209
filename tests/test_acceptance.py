"""Acceptance suite: one test per criterion, exact tolerances, one
printed pass line each (run with ``pytest -s`` to see them live).

Criterion sizes follow the stated populations: 5000 mixed instances for
the oracle-equivalence and invariant sweeps, 1000 for weight
preservation, the full four-point scaling ladder for the benchmark.
"""

import time
from pathlib import Path

import pytest

from mwss import (
    GenSpec,
    build_wing_graph,
    canonicalize,
    gen_strip_instance,
    induced_subgraph,
    is_regular_node,
    oracle_mwss,
    solve,
)
from mwss.canonical import greedy_members
from mwss.checks import (
    CanonicalState,
    canonical_violation,
    interval_violation,
    strip_partition_violation,
    strip_violation,
    transformed_graph,
    verify_consistent,
)
from mwss.cli import bench_ladder, run
from mwss.graph import closed_neighborhood, connected_components
from mwss.interval_mwss import mwss_on_order
from mwss.solver import solve_component
from mwss.wings import build_wing_table

from helpers import DENSITIES, REGIMES, acceptance_extras, acceptance_pool

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def pool():
    return acceptance_pool()


@pytest.fixture(scope="session")
def extras():
    return acceptance_extras()


@pytest.fixture(scope="session")
def pipeline_details(pool, extras):
    """(component graph, detail) for every pipeline component in the pool."""
    out = []
    for g in pool + extras:
        for comp in connected_components(g):
            sub = g if len(comp) == g.n else induced_subgraph(g, comp)
            _, _, route, detail = solve_component(sub, collect=True)
            if detail is not None:
                out.append((sub, detail))
    return out


def test_criterion_1_oracle_equivalence(pool):
    t0 = time.perf_counter()
    mismatches = 0
    for g in pool:
        if solve(g).value != oracle_mwss(g)[0]:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    print(
        f"PASS criterion 1: oracle equivalence on {len(pool)} instances, "
        f"0 mismatches, {elapsed:.1f}s"
    )


def test_criterion_2_weight_preservation():
    checked = 0
    for i in range(1000):
        g = gen_strip_instance(
            GenSpec(
                seed=20_000 + i,
                mode="strip",
                nodes=7 + i % 12,  # n <= 18
                clique_min=1,
                clique_max=4,
                density=DENSITIES[i % 3],
                weights=REGIMES[i % 3],
            )
        )
        _, _, _, detail = solve_component(g, collect=True)
        assert detail is not None
        removal = set(detail.decomposition.removal)
        keep = [v for v in range(g.n) if v not in removal]
        rest = induced_subgraph(g, keep)
        assert detail.base_value == oracle_mwss(rest)[0]
        for v, value, _nodes in detail.per_vertex:
            closed = set(closed_neighborhood(g, (v,)))
            keep_v = [u for u in range(g.n) if u not in closed]
            sub = induced_subgraph(g, keep_v)
            assert value - g.weights[v] == oracle_mwss(sub)[0]
        checked += 1
    print(f"PASS criterion 2: weight preservation on {checked} instances")


def _wing_uniqueness_violation(g, st):
    """Independent re-derivation of wing membership from the definitions."""
    anchor = {}
    for u in range(g.n):
        if st.is_free(u):
            anchor[u] = st.stable_neighbor(u)
    for u in range(g.n):
        if st.is_stable_node(u):
            continue
        if st.is_bound(u):
            continue  # exactly one wing by definition of the stable pair
        partners = set()
        for v in g.neighbors(u):
            t = anchor.get(v)
            if t is not None and t != anchor[u]:
                partners.add(t)
        if len(partners) > 1:
            return u
    return None


def test_criterion_3_structural_invariants(pool, extras, pipeline_details):
    wing_checked = 0
    regular_checked = 0
    kinds = {"dominating": 0, "strongly_bisimplicial": 0}
    for g, detail in pipeline_details:
        stable = detail.stable_set
        assert _wing_uniqueness_violation(g, CanonicalState(g, stable)) is None
        # raises on degree > 2 or disconnection, so the walk is a path or a
        # cycle through every stable node
        assert sorted(build_wing_graph(build_wing_table(g, stable), stable)) == list(stable)
        wing_checked += 1
        for v in range(g.n):
            # raises ``irregular`` unless two cliques cover N[v]
            c1, c2 = is_regular_node(g, v)
            assert v in c1 and v in c2
            assert set(c1).union(c2) == set(closed_neighborhood(g, (v,)))
        regular_checked += 1
        dec = detail.decomposition
        kinds[dec.kind] += 1
        assert strip_partition_violation(g, dec.strips, dec.removal) is None
        # strip adjacency: edges stay within a strip, one layer apart
        layer = {}
        for si, strip in enumerate(dec.strips):
            for ki, clique in enumerate(strip):
                assert g.is_clique(clique)
                for v in clique:
                    layer[v] = (si, ki)
        removal = set(dec.removal)
        for v, (si, ki) in layer.items():
            for u in g.neighbors(v):
                if u in removal:
                    continue
                sj, kj = layer[u]
                assert si == sj and abs(ki - kj) <= 1
        if dec.kind == "dominating":
            outside = set(range(g.n)) - set(closed_neighborhood(g, dec.core))
            assert g.is_clique(sorted(outside))
    assert kinds["dominating"] >= 1  # exercised by the fixture family
    # square-semi-homogeneity of consecutive pairs, n <= 200 subset
    ssh_pairs = 0
    for i in range(40):
        g = gen_strip_instance(
            GenSpec(
                seed=30_000 + i,
                mode="strip",
                nodes=60 + i * 3,  # up to ~180
                clique_min=2,
                clique_max=5,
                density=DENSITIES[i % 3],
            )
        )
        _, _, _, detail = solve_component(g, collect=True)
        assert strip_violation(g, detail.decomposition) is None
        ssh_pairs += sum(len(strip) - 1 for strip in detail.decomposition.strips)
    print(
        f"PASS criterion 3: structural invariants on {wing_checked} pipeline "
        f"components ({kinds}), {ssh_pairs} square-semi-homogeneous pairs"
    )


def test_criterion_4_post_transform(pipeline_details):
    strips_checked = 0
    for g, detail in pipeline_details:
        assert interval_violation(g, detail.interval, detail.order) is None
        strips_checked += len(detail.decomposition.strips)
    print(
        f"PASS criterion 4: post-transform claw/square freedom and order "
        f"consistency on {len(pipeline_details)} components ({strips_checked} strips)"
    )


def test_criterion_5_canonicality(pool, extras, pipeline_details):
    checked = 0
    for g in pool + extras:
        stable, stats = canonicalize(g, greedy_members(g))
        assert canonical_violation(CanonicalState(g, stable), stats.steps) is None
        checked += 1
    for g, detail in pipeline_details:
        st = CanonicalState(g, detail.stable_set)
        assert canonical_violation(st, detail.canonical_steps) is None
    print(f"PASS criterion 5: canonicality and step bound on {checked} instances")


def test_criterion_6_consistency(pipeline_details):
    strips = 0
    for g, detail in pipeline_details:
        gbar = transformed_graph(g, detail.interval)
        assert verify_consistent(gbar, detail.order) is None
        value, nodes = mwss_on_order(detail.order, g.weights)
        strip_graph = induced_subgraph(gbar, [v for k in detail.interval.cliques for v in k])
        assert value == oracle_mwss(strip_graph)[0]
        assert gbar.is_stable(nodes) and gbar.weight_of(nodes) == value
        strips += len(detail.decomposition.strips)
    print(
        f"PASS criterion 6: {len(pipeline_details)} consistent orders and DP "
        f"oracle matches, one per component ({strips} strips)"
    )


def test_criterion_7_scaling_trend():
    rows = bench_ladder(
        [("strip", n) for n in (1_000, 4_000, 16_000, 64_000)],
        repeats=5,
        seed=123,
    )
    ratios = [r["ratio_to_previous"] for r in rows[1:]]
    for ratio in ratios:
        assert ratio <= 10.0, f"scaling ratio {ratio:.2f} exceeds 10"
    largest = rows[-1]["median_solve_seconds"]
    assert largest < 60.0, f"n=64000 solve took {largest:.1f}s"
    table = ", ".join(
        f"n={r['n']} m={r['m']} t={r['median_solve_seconds']:.2f}s" for r in rows
    )
    print(f"PASS criterion 7: {table}; ratios {[f'{x:.2f}' for x in ratios]}")


def test_criterion_8_determinism(tmp_path, capsys):
    golden = str(DATA / "golden_strip_seed1.mwss")
    commands = [
        ["solve", golden, "--json"],
        ["decompose", golden, "--trace"],
        ["canonicalize", golden, "--json"],
        ["gen", "--seed", "77", "--nodes", "40", "--weights", "random"],
        ["gen", "--seed", "78", "--mode", "rejection", "--nodes", "14", "--weights", "ties"],
    ]
    for argv in commands:
        outputs = []
        for _ in range(2):
            assert run(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], f"non-deterministic output for {argv}"
    print(f"PASS criterion 8: byte-identical outputs for {len(commands)} commands")
