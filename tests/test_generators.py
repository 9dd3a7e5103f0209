import random
from pathlib import Path

import pytest

import mwss.generators
from mwss import (
    GenSpec,
    GraphInputError,
    find_claw,
    find_net,
    find_stable4,
    gen_rejection,
    gen_strip_instance,
    generate,
    oracle_mwss,
    parse_graph,
    serialize_graph,
    solve,
)
from mwss.graph import connected_components

from helpers import nested_cliques

DATA = Path(__file__).parent / "data"


class TestStripMode:
    def test_minimal_path_like_spec(self):
        g = gen_strip_instance(GenSpec(seed=3, mode="strip", nodes=7, clique_min=1, clique_max=1))
        assert find_claw(g) is None and find_net(g) is None
        assert g.m >= 6

    def test_density_one_is_square_free(self):
        # full solid prefixes mean nested neighborhoods and so no squares
        from itertools import combinations, permutations

        from mwss import PatternWitness, validate_witness

        g = gen_strip_instance(GenSpec(seed=5, mode="strip", nodes=20, clique_min=2, clique_max=4, density=1.0))
        assert find_claw(g) is None and find_net(g) is None
        for four in combinations(range(g.n), 4):
            for perm in permutations(four[1:]):
                assert not validate_witness(g, PatternWitness("square", (four[0],) + perm))

    def test_detectors_clean_across_regimes(self):
        for seed in range(40):
            g = gen_strip_instance(
                GenSpec(seed=seed, mode="strip", nodes=8 + seed % 30, clique_min=1,
                        clique_max=5, density=(0.3, 0.5, 0.7, 1.0)[seed % 4],
                        weights=("unit", "random", "ties")[seed % 3])
            )
            assert find_claw(g) is None
            assert find_net(g) is None

    def test_connected_with_alpha_at_least_4(self):
        for seed in range(25):
            g = gen_strip_instance(GenSpec(seed=100 + seed, mode="strip", nodes=9 + seed))
            assert len(connected_components(g)) == 1
            assert find_stable4(g) is not None

    def test_seed_determinism_byte_identical(self):
        spec = GenSpec(seed=42, mode="strip", nodes=30, clique_min=2, clique_max=5, weights="random")
        a = serialize_graph(gen_strip_instance(spec))
        b = serialize_graph(gen_strip_instance(spec))
        assert a == b

    def test_too_few_nodes_rejected(self):
        with pytest.raises(GraphInputError):
            gen_strip_instance(GenSpec(seed=0, mode="strip", nodes=5))

    @pytest.mark.parametrize("lo, hi", [(0, 0), (-3, 2), (5, 2)])
    def test_clique_bounds_refused_before_any_draw(self, monkeypatch, lo, hi):
        # 0..0 and -3..2 would draw clique sizes that never cover the nodes
        def no_draws(*args):
            raise AssertionError("a generator stream was seeded")

        monkeypatch.setattr(mwss.generators.random, "Random", no_draws)
        spec = GenSpec(seed=1, mode="strip", nodes=20, clique_min=lo, clique_max=hi)
        with pytest.raises(GraphInputError, match="clique_min <= clique_max"):
            generate(spec)

    def test_golden_seed1_frozen(self):
        spec = GenSpec(seed=1, mode="strip", nodes=24, clique_min=2, clique_max=4, density=0.5, weights="random")
        g = gen_strip_instance(spec)
        text = serialize_graph(
            g,
            (
                "golden strip instance",
                "prng mt19937",
                "spec seed=1 mode=strip nodes=24 cliques=2..4 density=0.5 weights=random",
            ),
        )
        frozen = (DATA / "golden_strip_seed1.mwss").read_text()
        assert text == frozen
        parsed = parse_graph(frozen)
        assert parsed == g
        assert solve(g).value == oracle_mwss(g)[0] == 502


class TestRejectionMode:
    def test_detectors_clean(self):
        for seed in range(60):
            g = gen_rejection(GenSpec(seed=seed, mode="rejection", nodes=4 + seed % 20))
            assert find_claw(g) is None
            assert find_net(g) is None

    def test_mixed_alpha_coverage(self):
        small = 0
        for seed in range(60):
            g = gen_rejection(GenSpec(seed=200 + seed, mode="rejection", nodes=10 + seed % 12))
            if find_stable4(g) is None:
                small += 1
        assert 0 < small < 60  # both alpha <= 3 and alpha >= 4 appear

    def test_size_guard(self):
        with pytest.raises(GraphInputError):
            gen_rejection(GenSpec(seed=0, mode="rejection", nodes=30))

    def test_seed_determinism(self):
        spec = GenSpec(seed=9, mode="rejection", nodes=12, weights="ties")
        assert serialize_graph(gen_rejection(spec)) == serialize_graph(gen_rejection(spec))


class TestNestedMode:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 40])
    def test_same_graph_as_the_reference_construction(self, k):
        # the shuffle, the edges and the weight draws all follow one seeded
        # stream, so the generator and the tests' builder agree exactly
        spec = GenSpec(seed=30 + k, mode="nested", nodes=3 * k, weights="random", weight_hi=1000)
        assert generate(spec) == nested_cliques(k, random.Random(30 + k))[0]

    def test_claw_and_net_free_with_alpha_3(self):
        for k in range(3, 9):
            g = generate(GenSpec(seed=k, mode="nested", nodes=3 * k, weights="ties"))
            assert find_claw(g) is None and find_net(g) is None
            assert find_stable4(g) is None
            assert solve(g).value == oracle_mwss(g)[0]

    @pytest.mark.parametrize("nodes", [0, 2, 31])
    def test_nodes_must_be_a_positive_multiple_of_3(self, nodes):
        with pytest.raises(GraphInputError):
            generate(GenSpec(seed=0, mode="nested", nodes=nodes))


class TestWeightRange:
    @pytest.mark.parametrize("mode, nodes", [("strip", 20), ("rejection", 10), ("nested", 9)])
    def test_random_weights_need_a_range_in_every_mode(self, mode, nodes):
        with pytest.raises(GraphInputError, match="weight_lo <= weight_hi"):
            GenSpec(seed=1, mode=mode, nodes=nodes, weights="random", weight_lo=50, weight_hi=10)
        # other weight regimes ignore the range
        for weights in ("unit", "ties"):
            spec = GenSpec(seed=1, mode=mode, nodes=nodes, weights=weights, weight_lo=50, weight_hi=10)
            assert generate(spec).n == nodes
        spec = GenSpec(seed=1, mode=mode, nodes=nodes, weights="random", weight_lo=7, weight_hi=7)
        assert list(generate(spec).weights) == [7] * nodes

    def test_nested_mode_ignores_the_clique_bounds(self):
        spec = GenSpec(seed=1, mode="nested", nodes=9, clique_min=5, clique_max=2)
        assert generate(spec) == generate(GenSpec(seed=1, mode="nested", nodes=9))


class TestChainClawFinder:
    def test_finds_planted_claw(self):
        # chain [0], [1,2], [3]: node 1 reaches both sides, node 2 neither
        from mwss.generators import _find_chain_claw
        from mwss.patterns import PatternWitness
        from mwss import Graph, validate_witness

        adj = {0: {1}, 1: {0, 2, 3}, 2: {1}, 3: {1}}
        cliques = [[0], [1, 2], [3]]
        claw = _find_chain_claw(adj, cliques)
        assert claw is not None
        center, a, co, b = claw
        g = Graph(4, [(0, 1), (1, 2), (1, 3)])
        assert validate_witness(g, PatternWitness("claw", (center, a, co, b)))

    def test_clean_chain_has_none(self):
        from mwss.generators import _find_chain_claw

        adj = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
        assert _find_chain_claw(adj, [[0], [1, 2], [3]]) is None

    def test_first_build_of_every_seed_is_claw_free(self):
        # gen_strip_instance drops a build with a claw instead of repairing
        # it, on the premise that the layered construction leaves none: the
        # first build of each seed, over the ranges of nodes, clique sizes
        # and densities, already passes the check
        from mwss.generators import _build_chain, _find_chain_claw

        rng = random.Random(36)
        for seed in range(300):
            lo = rng.randint(1, 8)
            spec = GenSpec(seed=seed, mode="strip", nodes=rng.randint(7, 400), clique_min=lo,
                           clique_max=rng.randint(lo, 12), density=rng.uniform(0.05, 1.0))
            adj, _, cliques = _build_chain(random.Random(seed * 1_000_003), spec)
            assert _find_chain_claw(adj, cliques) is None, spec
