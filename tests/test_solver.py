import dataclasses
import itertools
import random

import pytest

import mwss.solver
from mwss import (
    GenSpec,
    Graph,
    StructuralError,
    alpha3_fallback,
    find_claw,
    find_net,
    find_stable4,
    gen_rejection,
    gen_strip_instance,
    oracle_mwss,
    solve,
)
from mwss.canonical import greedy_members
from mwss.solver import smallest_stable4

from helpers import (
    clique_chain_value,
    complete_graph,
    cycle_graph,
    nested_cliques,
    path_graph,
    random_graph,
    reference_alpha3,
    reference_stable4_exact,
)


class TestFindStable4:
    def test_k5_has_none(self):
        assert find_stable4(complete_graph(5)) is None

    def test_p7_finds_one(self):
        s = find_stable4(path_graph(7))
        assert s is not None and len(s) == 4
        assert path_graph(7).is_stable(s)

    def test_net_graph_alpha3(self):
        net = Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
        assert find_stable4(net) is None

    def test_enumeration_fallback_when_greedy_misses(self):
        # hub 0 sees every other node, so the ascending greedy stops at [0];
        # the first case is the star K1,4
        cases = [
            ((), (1, 2, 3, 4)),
            (((1, 2), (3, 4)), (1, 3, 5, 6)),
            (((1, 3), (2, 5), (5, 6)), (1, 2, 4, 6)),
        ]
        for extra_edges, expected in cases:
            n = 5 if not extra_edges else 9
            g = Graph(n, [(0, i) for i in range(1, n)] + list(extra_edges))
            assert greedy_members(g) == [0]
            smallest = min(q for q in itertools.combinations(range(n), 4) if g.is_stable(q))
            assert smallest == expected
            assert find_stable4(g) == expected


class TestCanonicalSeed:
    def test_seed_extension_matches_set_based_greedy(self):
        graphs = [
            gen_strip_instance(GenSpec(seed=700 + s, nodes=30 + 7 * s, clique_min=2,
                                       clique_max=6, density=0.5, weights="random"))
            for s in range(20)
        ]
        rng = random.Random(71)
        graphs += [random_graph(12, rng.choice((0.2, 0.5, 0.8)), rng) for _ in range(200)]
        seeded = 0
        for g in graphs:
            seed4 = find_stable4(g)
            if seed4 is None:
                continue
            members, blocked = set(seed4), set()
            for v in members:
                blocked |= g.adj(v)
            for v in range(g.n):
                if v not in members and v not in blocked:
                    members.add(v)
                    blocked |= g.adj(v)
            extended = greedy_members(g, seed4)
            assert extended[:4] == list(seed4)
            assert sorted(extended) == sorted(members)
            seeded += 1
        assert seeded > 20


class TestBitsetMatchesReference:
    """The bitset routines return the same tuples as the set-arithmetic ones."""

    @staticmethod
    def _graphs():
        for seed in range(240):
            yield gen_rejection(
                GenSpec(seed=6000 + seed, mode="rejection", nodes=5 + seed % 16,
                        weights=("unit", "random", "ties")[seed % 3])
            )
        for seed in range(400):
            rng = random.Random(6500 + seed)
            n = 5 + seed % 16
            weights = [rng.randint(-2, 4) for _ in range(n)]
            yield random_graph(n, (0.2, 0.5, 0.7, 0.85, 0.95)[seed % 5], rng, weights)
        for k in range(2, 41):
            yield nested_cliques(k, random.Random(k), weight_hi=(5, 1000)[k % 2])[0]

    def test_same_witness_and_best_set(self):
        claws = 0
        for g in self._graphs():
            claws += find_claw(g) is not None
            assert smallest_stable4(g) == reference_stable4_exact(g)
            assert alpha3_fallback(g) == reference_alpha3(g)
        assert claws > 50  # the sweep reaches graphs outside the class too


class TestNestedCliques:
    @pytest.mark.parametrize("k", list(range(2, 41)) + [200])
    def test_value_matches_chain_dp(self, k):
        g, chain = nested_cliques(k, random.Random(900 + k))
        s = solve(g)
        assert s.route == "alpha3_fallback"
        assert s.value == clique_chain_value(chain, list(g.edges()), g.weights)
        assert g.is_stable(s.nodes) and g.weight_of(s.nodes) == s.value
        if g.n <= 63:
            assert s.value == oracle_mwss(g)[0]
        if k <= 8:
            assert find_claw(g) is None and find_net(g) is None


class TestAlpha3Fallback:
    def test_single_node(self):
        assert alpha3_fallback(Graph(1, [], [5])) == (5, (0,))

    def test_c5_unit(self):
        value, nodes = alpha3_fallback(cycle_graph(5))
        assert value == 2 and cycle_graph(5).is_stable(nodes)

    def test_triangle_weights(self):
        value, nodes = alpha3_fallback(complete_graph(3, [1, 2, 3]))
        assert value == 3 and nodes == (2,)

    def test_matches_oracle_when_alpha_small(self):
        for seed in range(40):
            g = gen_rejection(GenSpec(seed=7000 + seed, mode="rejection", nodes=5 + seed % 10, weights="random"))
            if find_stable4(g) is None:
                assert alpha3_fallback(g)[0] == oracle_mwss(g)[0]


class TestSolve:
    def test_p7_unit(self):
        assert solve(path_graph(7)).value == 4

    def test_c9_unit(self):
        assert solve(cycle_graph(9)).value == 4

    def test_p5_weighted_fallback(self):
        s = solve(path_graph(5, [1, 9, 1, 9, 1]))
        assert s.value == 18
        assert s.route == "alpha3_fallback"

    def test_empty_graph(self):
        s = solve(Graph(0))
        assert s.value == 0 and s.nodes == ()

    def test_nonpositive_weights_dropped(self):
        g = path_graph(3, [-1, 0, 4])
        s = solve(g)
        assert s.value == 4 and s.nodes == (2,)

    def test_monotone_isolated_node(self):
        g = path_graph(7)
        bigger = Graph(8, [(i, i + 1) for i in range(6)], [1] * 7 + [3])
        assert solve(bigger).value == solve(g).value + 3

    def test_disconnected_components_sum(self):
        g = Graph(14, [(i, i + 1) for i in range(6)] + [(7 + i, 8 + i) for i in range(6)])
        s = solve(g)
        assert s.value == 8
        assert s.route == "component_merge"

    def test_solution_set_is_certified(self):
        for seed in range(30):
            g = gen_strip_instance(
                GenSpec(seed=7500 + seed, mode="strip", nodes=10 + seed % 14,
                        clique_min=1, clique_max=4, weights=("unit", "random", "ties")[seed % 3])
            )
            s = solve(g)
            assert g.is_stable(s.nodes)
            assert g.weight_of(s.nodes) == s.value

    @pytest.mark.parametrize("regime", ["unit", "random", "ties"])
    def test_oracle_equivalence_sweep(self, regime):
        for seed in range(120):
            g = gen_rejection(GenSpec(seed=8000 + seed, mode="rejection", nodes=4 + seed % 18, weights=regime))
            assert solve(g).value == oracle_mwss(g)[0]
        for seed in range(60):
            g = gen_strip_instance(
                GenSpec(seed=8500 + seed, mode="strip", nodes=7 + seed % 15,
                        clique_min=1, clique_max=4, density=(0.3, 0.6, 0.9)[seed % 3], weights=regime)
            )
            assert solve(g).value == oracle_mwss(g)[0]

    def test_twin_lift_on_twin_heavy_graph(self):
        # two disjoint triangles with matching weights produce twin cascades
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], [2, 2, 2, 5, 5, 5])
        s = solve(g)
        assert s.value == 7
        assert g.is_stable(s.nodes) and g.weight_of(s.nodes) == 7

    def test_trace_collects_certificates(self):
        s = solve(path_graph(9), collect_trace=True)
        assert s.certificates is not None
        assert s.certificates["components"] == 1
        assert s.certificates["routes"] == ("strip_pipeline",)


class TestPipelineContracts:
    def test_exactly_x_plus_one_dp_passes(self, monkeypatch):
        # counts the DP calls themselves: one over the strips, one per node of X
        calls = []
        real = mwss.solver.mwss_on_order

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(mwss.solver, "mwss_on_order", counting)
        graphs = [path_graph(7), cycle_graph(9)] + [
            gen_strip_instance(
                GenSpec(seed=9900 + seed, mode="strip", nodes=12 + seed,
                        clique_min=2, clique_max=4, weights="random")
            )
            for seed in range(15)
        ]
        strip_counts = set()
        for g in graphs:
            calls.clear()
            _, _, _, detail = mwss.solver.solve_component(g, collect=True)
            passes = len(detail.decomposition.removal) + 1
            assert len(calls) == detail.dp_passes == passes
            assert all(co is detail.order for co in calls)
            strip_counts.add(len(detail.decomposition.strips))
        assert strip_counts == {1, 2}

    def test_p7_post_transform_order(self):
        _, _, _, detail = mwss.solver.solve_component(path_graph(7), collect=True)
        assert detail.decomposition.removal == (3,)
        # strip (1 2)(0) first, then strip (4)(5)(6)
        assert detail.order.order == (2, 1, 0, 4, 5, 6)

    def test_oversized_removal_raises_with_witness(self, monkeypatch):
        real = mwss.solver.decompose
        oversized = tuple(range(6))  # a 9-node path allows isqrt(2 * 8) + 1 = 5

        def decompose(g, state):
            return dataclasses.replace(real(g, state), removal=oversized)

        monkeypatch.setattr(mwss.solver, "decompose", decompose)
        with pytest.raises(StructuralError) as err:
            mwss.solver.solve_component(path_graph(9))
        assert err.value.kind == "removal_size"
        assert err.value.witness == oversized

    def test_structural_violation_bubbles_with_witness(self):
        # four-legged spider: alpha = 4 but the hub is a claw center
        edges = []
        for leg in range(4):
            a, b = 1 + 2 * leg, 2 + 2 * leg
            edges += [(0, a), (a, b)]
        spider = Graph(9, edges)
        with pytest.raises(StructuralError) as err:
            solve(spider)
        assert err.value.witness  # carries the offending nodes
