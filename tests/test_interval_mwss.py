import pytest

from mwss import (
    GenSpec,
    Graph,
    consistent_order,
    gen_strip_instance,
    oracle_mwss,
)
from mwss.checks import strip_partition_violation, transformed_graph, verify_consistent
from mwss.graph import closed_neighborhood, induced_subgraph
from mwss.interval_mwss import mwss_on_order
from mwss.patterns import find_square_in
from mwss.solver import solve_component

from helpers import complete_graph, path_graph, strip_lengths


def order_of(g, cliques):
    """``consistent_order`` on ``g``'s reaches along ``cliques``."""
    return consistent_order(*strip_lengths(g, cliques), cliques)


class TestConsistentOrder:
    def test_two_cliques_reach_order(self):
        # cliques {0,1} and {2}; only 1-2 crosses, so 0 precedes 1
        g = Graph(3, [(0, 1), (1, 2)])
        co = order_of(g, [(0, 1), (2,)])
        assert co.order == (0, 1, 2)
        assert verify_consistent(g, co) is None

    def test_single_clique_id_order(self):
        g = complete_graph(4)
        co = order_of(g, [(0, 1, 2, 3)])
        assert co.order == (0, 1, 2, 3)
        assert verify_consistent(g, co) is None

    def test_p3_strip(self):
        g = path_graph(3)
        co = order_of(g, [(0,), (1,), (2,)])
        assert co.order == (0, 1, 2)

    def test_nesting_violation_reports_square(self):
        # 0 reaches {2}, 1 reaches {3}: incomparable, a square survives.
        # Nested reaches are consistent_order's precondition (square
        # elimination proves it), so the off-path checks catch this input:
        # the square across the pair, and the order it makes inconsistent
        g = Graph(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
        square = find_square_in(g, (0, 1), (2, 3))
        assert square.kind == "square"
        a, b1, b2, c = square.nodes
        assert {a, c} == {0, 1} and {b1, b2} == {2, 3}
        assert verify_consistent(g, order_of(g, [(0, 1), (2, 3)])) == (0, 1, 2)

    @pytest.mark.parametrize(
        "cliques, witness",
        [
            pytest.param([(0, 1)], (2,), id="cliques0"),
            pytest.param([(0, 1), (2,), (2,)], (2,), id="cliques1"),
            pytest.param([(0, 1), (2, 3)], (3,), id="cliques2"),
        ],
    )
    def test_cliques_must_partition_the_overlay(self, cliques, witness):
        # a node left out, a node twice, a node outside the graph: the
        # precondition consistent_order states and the checks module tests
        violation = strip_partition_violation(path_graph(3), [cliques], ())
        assert violation == ("strip_cover", witness)

    def test_two_strips_one_order(self):
        # strips 0-1 and 2-3-4 do not touch: the order is the two strip
        # orders one after the other, and no prefix pointer crosses
        g = Graph(5, [(0, 1), (2, 3), (3, 4)])
        co = order_of(g, [(1,), (0,), (2,), (3,), (4,)])
        assert co.order == (1, 0, 2, 3, 4)
        assert co.prefix == (-1, -1, 1, 1, 2)
        assert mwss_on_order(co, [4, 1, 2, 1, 2]) == (8, (0, 2, 4))

    def test_prefix_pointers_cover_suffix(self):
        g = gen_strip_instance(GenSpec(seed=9, mode="strip", nodes=18, clique_min=1, clique_max=4))
        _, _, _, detail = solve_component(g, collect=True)
        gbar, co = transformed_graph(g, detail.interval), detail.order
        assert len(detail.decomposition.strips) == 2  # one order spans both
        pos = {v: k for k, v in enumerate(co.order)}
        assert len(pos) == len(co.order)  # no node placed twice
        for k, v in enumerate(co.order):
            earlier = {pos[u] for u in gbar.neighbors(v) if pos[u] < k}
            assert earlier == set(range(co.prefix[k] + 1, k))


class TestVerifyConsistent:
    def test_path_along_itself(self):
        g = path_graph(4)
        co = order_of(g, [(0,), (1,), (2,), (3,)])
        assert verify_consistent(g, co) is None

    def test_permuted_p3_is_consistent(self):
        # order (0, 2, 1) on the path 0-1-2: the only edge pair to check
        # is 0 < 2 < 1 with 0-1 in E, and 2-1 is in E as well
        from mwss.interval_mwss import ConsistentOrder

        g = path_graph(3)
        co = ConsistentOrder((0, 2, 1), (-1, 1, 0))
        assert verify_consistent(g, co) is None

    def test_star_center_first_violates(self):
        from mwss.interval_mwss import ConsistentOrder

        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        co = ConsistentOrder((0, 1, 2, 3), (-1, 0, 1, 2))
        assert verify_consistent(g, co) is not None


class TestDP:
    def test_single_clique_takes_max(self):
        g = complete_graph(3, [2, 7, 1])
        co = order_of(g, [(0, 1, 2)])
        value, nodes = mwss_on_order(co, g.weights)
        assert value == 7 and nodes == (1,)

    def test_p3_weights(self):
        g = path_graph(3, [2, 5, 3])
        co = order_of(g, [(0,), (1,), (2,)])
        value, nodes = mwss_on_order(co, g.weights)
        assert value == 5
        assert g.is_stable(nodes) and g.weight_of(nodes) == 5

    def test_p5_weights(self):
        g = path_graph(5, [1, 9, 1, 9, 1])
        co = order_of(g, [tuple([i]) for i in range(5)])
        value, nodes = mwss_on_order(co, g.weights)
        assert value == 18 and nodes == (1, 3)

    def test_empty_exclusion_matches_oracle(self):
        for seed in range(25):
            g = gen_strip_instance(
                GenSpec(seed=6000 + seed, mode="strip", nodes=8 + seed % 12,
                        clique_min=1, clique_max=4, weights=("unit", "random", "ties")[seed % 3])
            )
            _, _, _, detail = solve_component(g, collect=True)
            if detail is None:
                continue
            gbar = transformed_graph(g, detail.interval)
            strips = induced_subgraph(gbar, [v for k in detail.interval.cliques for v in k])
            value, nodes = mwss_on_order(detail.order, g.weights)
            assert value == oracle_mwss(strips)[0]
            assert gbar.is_stable(nodes) and gbar.weight_of(nodes) == value

    def test_exclusion_matches_oracle_on_restrictions(self):
        for seed in range(15):
            g = gen_strip_instance(
                GenSpec(seed=6500 + seed, mode="strip", nodes=9 + seed % 9,
                        clique_min=1, clique_max=3, weights="random")
            )
            _, _, _, detail = solve_component(g, collect=True)
            if detail is None:
                continue
            for v in detail.decomposition.removal:
                closed = set(closed_neighborhood(g, (v,)))
                total = mwss_on_order(detail.order, g.weights, closed)[0]
                keep = [u for u in range(g.n) if u not in closed]
                rest = induced_subgraph(g, keep)
                assert total == oracle_mwss(rest)[0]
