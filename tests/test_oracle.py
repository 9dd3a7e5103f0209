import os
import random

import pytest

from mwss import (
    GenSpec,
    Graph,
    OracleSizeError,
    gen_strip_instance,
    oracle_mwss,
    solve,
)
from mwss.cli import STRIP_CLIQUE_MAX, STRIP_CLIQUE_MIN, STRIP_DENSITY

from helpers import (
    acceptance_extras,
    acceptance_pool,
    complete_graph,
    cycle_graph,
    frontier_mwss,
    mwss_enumerate,
    path_graph,
    perturbed_strip,
)

AGREEMENT_SAMPLES = int(os.environ.get("MWSS_ORACLE_AGREEMENT", "10000"))


class TestOracle:
    def test_empty(self):
        assert oracle_mwss(Graph(0)) == (0, ())

    def test_k4_weighted(self):
        assert oracle_mwss(complete_graph(4, [1, 2, 3, 4]))[0] == 4

    def test_c9_unit_cross_checked(self):
        g = cycle_graph(9)
        assert oracle_mwss(g)[0] == 4
        assert mwss_enumerate(g)[0] == 4

    def test_size_guard(self):
        with pytest.raises(OracleSizeError):
            oracle_mwss(Graph(80))
        assert oracle_mwss(Graph(80, [], [1] * 80), limit=100)[0] == 80

    def test_negative_weights_ignored(self):
        g = path_graph(3, [-5, 2, -1])
        value, nodes = oracle_mwss(g)
        assert value == 2 and nodes == (1,)


def random_graph(rng, n):
    p = rng.choice([0.1, 0.25, 0.4, 0.6, 0.85])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    weights = [rng.randint(-3, 12) for _ in range(n)]
    return Graph(n, edges, weights)


def test_branch_and_bound_agrees_with_enumeration():
    # The two oracle implementations are independent routes; they must
    # agree exactly.  Sample size adjustable via MWSS_ORACLE_AGREEMENT.
    rng = random.Random(20240901)
    for i in range(AGREEMENT_SAMPLES):
        n = rng.randint(2, 16 if i % 5 else 18)
        g = random_graph(rng, n)
        assert oracle_mwss(g)[0] == mwss_enumerate(g)[0]


def test_oracle_monotone_under_deletion():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(3, 12)
        g = random_graph(rng, n)
        base, _ = oracle_mwss(g)
        drop = rng.randrange(n)
        keep = [v for v in range(n) if v != drop]
        from mwss import induced_subgraph

        sub = induced_subgraph(g, keep)
        assert oracle_mwss(sub)[0] <= base


def test_oracle_set_is_certified():
    rng = random.Random(99)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 14))
        value, nodes = oracle_mwss(g)
        assert g.is_stable(nodes)
        assert g.weight_of(nodes) == value


def spider(legs):
    """A hub with ``legs`` legs of two nodes: a BFS from the hub meets all
    the legs' first nodes before any second one, so the frontier DP holds
    2**legs states."""
    edges = [(0, 1 + i) for i in range(legs)] + [(1 + i, 1 + legs + i) for i in range(legs)]
    return Graph(1 + 2 * legs, edges)


class TestFrontier:
    def certified(self, g, max_states=10_000):
        value, nodes = frontier_mwss(g, max_states)
        assert g.is_stable(nodes) and g.weight_of(nodes) == value
        return value

    def test_small_cases(self):
        assert frontier_mwss(Graph(0), 1) == (0, ())
        assert frontier_mwss(path_graph(3, [-5, 2, -1]), 4) == (2, (1,))
        assert self.certified(Graph(5, [], [3, -1, 0, 2, 7])) == 12

    def test_raises_past_max_states(self):
        g = spider(10)
        with pytest.raises(OracleSizeError):
            frontier_mwss(g, 1000)
        assert frontier_mwss(g, 1024)[0] == oracle_mwss(g)[0] == 11  # hub and feet

    def test_matches_oracle_on_acceptance_pool(self):
        for g in acceptance_pool() + acceptance_extras():
            assert self.certified(g) == oracle_mwss(g)[0]

    def test_matches_oracle_on_perturbed_strips(self):
        # claws and nets included: the DP uses no structure of the class
        for seed in range(300):
            g = perturbed_strip(seed)
            assert self.certified(g) == oracle_mwss(g)[0], seed

    @pytest.mark.parametrize("n", [1_000, 4_000, 16_000, 64_000])
    def test_matches_solve_on_criterion_7_instances(self, n):
        # the scaling criterion's strip instances, far above the oracle's size
        g = gen_strip_instance(
            GenSpec(seed=123, mode="strip", nodes=n, clique_min=STRIP_CLIQUE_MIN,
                    clique_max=STRIP_CLIQUE_MAX, density=STRIP_DENSITY, weights="random")
        )
        assert self.certified(g, max_states=2_000) == solve(g).value
