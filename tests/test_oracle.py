import os
import random

import pytest

from mwss import Graph, OracleSizeError, mwss_enumerate, oracle_mwss

from helpers import complete_graph, cycle_graph, path_graph

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
