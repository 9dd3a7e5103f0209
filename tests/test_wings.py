import random

import pytest

from mwss import (
    CanonicalState,
    GenSpec,
    Graph,
    StructuralError,
    build_wing_graph,
    build_wing_table,
    find_claw,
    gen_rejection,
    canonicalize,
    greedy_members,
    validate_witness,
)
from mwss.patterns import PatternWitness

from helpers import (
    adj,
    cycle_graph,
    free_components,
    path_graph,
    reference_build_wing_graph,
    wing_shape,
)


class TestWingTable:
    def test_p7_bound_wings(self):
        g = path_graph(7)
        st = CanonicalState(g, {0, 2, 4, 6})
        assert build_wing_table(g, st.stable_set) == {(0, 2): (1,), (2, 4): (3,), (4, 6): (5,)}

    def test_c8_four_bound_wings(self):
        g = cycle_graph(8)
        st = CanonicalState(g, {0, 2, 4, 6})
        wings = build_wing_table(g, st.stable_set)
        assert set(wings) == {(0, 2), (2, 4), (4, 6), (0, 6)}
        assert all(len(members) == 1 for members in wings.values())

    def test_square_with_opposite_stable_pair(self):
        g = cycle_graph(4)
        st = CanonicalState(g, {0, 2})
        assert build_wing_table(g, st.stable_set) == {(0, 2): (1, 3)}

    def test_free_wings_on_c9(self):
        g = cycle_graph(9)
        st = CanonicalState(g, {0, 2, 4, 6})
        assert build_wing_table(g, st.stable_set)[(0, 6)] == (7, 8)
        assert st.stable_neighbor(7) == 6 and st.stable_neighbor(8) == 0  # both free

    def test_free_node_in_two_wings_raises_claw(self):
        # hub 1 anchored at 0, with free neighbors in two other classes
        g = Graph(6, [(1, 0), (1, 2), (1, 4), (2, 3), (4, 5)])
        st = CanonicalState(g, {0, 3, 5})
        with pytest.raises(StructuralError) as err:
            build_wing_table(g, st.stable_set)
        assert err.value.kind in ("claw", "net")
        assert validate_witness(g, PatternWitness(err.value.kind, err.value.witness))


class TestWingGraph:
    def test_p7_path_order(self):
        g = path_graph(7)
        stable = CanonicalState(g, {0, 2, 4, 6}).stable_set
        wings = build_wing_table(g, stable)
        order = build_wing_graph(wings, stable)
        assert wing_shape(wings, order) == "path"
        assert order == (0, 2, 4, 6)

    def test_c8_cycle_order(self):
        g = cycle_graph(8)
        stable = CanonicalState(g, {0, 2, 4, 6}).stable_set
        wings = build_wing_table(g, stable)
        order = build_wing_graph(wings, stable)
        assert wing_shape(wings, order) == "cycle"
        assert order == (0, 2, 4, 6)

    def test_degree_three_star_raises(self):
        # spider with three legs of length two: claw at the hub
        edges = [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]
        g = Graph(7, edges)
        stable = CanonicalState(g, {0, 2, 4, 6}).stable_set
        with pytest.raises(StructuralError) as err:
            build_wing_graph(build_wing_table(g, stable), stable)
        assert err.value.kind == "wing_degree"

    def test_disconnected_wing_graph_raises(self):
        # two disjoint P4s: valid maximal stable set, two wing components
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        stable = CanonicalState(g, {0, 2, 4, 6}).stable_set
        with pytest.raises(StructuralError) as err:
            build_wing_graph(build_wing_table(g, stable), stable)
        assert err.value.kind == "wing_disconnected"


def random_wing_dict(rng):
    """(wing dict, ascending stable nodes): 4..9 stable nodes joined by any
    pairs (degrees above two, disconnected graphs), or along a shuffled
    path or cycle with some edges cut; the values are left empty."""
    k = rng.randint(4, 9)
    stable = tuple(sorted(rng.sample(range(3 * k), k)))
    shape = rng.choice(("any", "path", "cycle"))
    if shape == "any":
        p = rng.choice((0.2, 0.35, 0.5))
        pairs = [(s, t) for i, s in enumerate(stable) for t in stable[i + 1 :] if rng.random() < p]
    else:
        walk = rng.sample(stable, k)
        pairs = list(zip(walk, walk[1:])) + ([(walk[-1], walk[0])] if shape == "cycle" else [])
        pairs = [pair for pair in pairs if rng.random() > 0.1]
    rng.shuffle(pairs)
    return {(min(pair), max(pair)): () for pair in pairs}, stable


def order_and_shape(wings, stable):
    """``build_wing_graph``'s order and the shape ``wing_shape`` reads off it."""
    order = build_wing_graph(wings, stable)
    return order, wing_shape(wings, order)


def wing_graph_outcome(build, wings, stable):
    """(order, shape), or the kind, witness and message ``build`` raises."""
    try:
        return build(wings, stable)
    except StructuralError as err:
        return err.kind, err.witness, err.detail


class TestWingGraphReference:
    def test_random_wing_dicts_match_reference(self):
        rng = random.Random(19)
        seen = {}
        for _ in range(20_000):
            wings, stable = random_wing_dict(rng)
            got = wing_graph_outcome(order_and_shape, wings, stable)
            assert got == wing_graph_outcome(reference_build_wing_graph, wings, stable), (
                wings, stable,
            )
            key = got[1] if len(got) == 2 else got[0]
            seen[key] = seen.get(key, 0) + 1
        # paths, cycles and both raises occur; the reference's walk guards
        # ("wing_shape") never fire once every degree is at most two
        assert set(seen) == {"path", "cycle", "wing_degree", "wing_disconnected"}, seen
        assert min(seen.values()) > 1000, seen

    def test_disconnected_witness_is_outside_the_first_component(self):
        # stable[0] = 0 isolated, and a path 2-4-6 starting lower than the cycle
        wings = {(2, 4): (), (4, 6): (), (8, 10): (), (10, 12): (), (8, 12): ()}
        with pytest.raises(StructuralError) as err:
            build_wing_graph(wings, (0, 2, 4, 6, 8, 10, 12))
        assert (err.value.kind, err.value.witness) == ("wing_disconnected", (2, 4, 6, 8, 10, 12))
        # stable[0] = 1 in the middle of a path, then on a cycle
        for wings in (
            {(1, 2): (), (1, 3): (), (5, 6): (), (6, 7): (), (5, 7): ()},
            {(1, 2): (), (2, 3): (), (1, 3): (), (5, 6): (), (6, 7): ()},
        ):
            with pytest.raises(StructuralError) as err:
                build_wing_graph(wings, (1, 2, 3, 5, 6, 7))
            assert err.value.witness == (5, 6, 7)


class TestWingPartition:
    def test_partition_uniqueness_on_generated(self):
        for i in range(60):
            g = gen_rejection(GenSpec(seed=900 + i, mode="rejection", nodes=5 + i % 14))
            stable, _ = canonicalize(g, greedy_members(g))
            st = CanonicalState(g, stable)
            seen = {}
            for ends, members in build_wing_table(g, stable).items():
                assert members == tuple(sorted(set(members)))
                for v in members:
                    assert v not in seen or seen[v] == ends
                    seen[v] = ends
            for v in range(g.n):
                if st.is_bound(v):
                    assert v in seen  # every bound node is in exactly one wing


class TestFreeComponents:
    def test_no_free_nodes(self):
        g = path_graph(7)
        st = CanonicalState(g, {0, 2, 4, 6})
        assert free_components(g, st) == []

    def test_net_triangle_is_flagged_maximal_clique(self):
        # in the net, the triangle is free w.r.t. the three pendants and
        # meets three similarity classes
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
        st = CanonicalState(g, {3, 4, 5})
        comps = free_components(g, st)
        assert len(comps) == 1
        comp = comps[0]
        assert comp.nodes == (0, 1, 2)
        assert comp.class_count == 3 and comp.flagged
        # brute maximal-clique check
        assert g.is_clique(comp.nodes)
        assert all(
            not all(g.has_edge(u, v) for v in comp.nodes)
            for u in range(g.n)
            if u not in comp.nodes
        )

    def test_two_class_non_clique_component_allowed(self):
        # claw-free fixture: classes {2,3} at 0 and {4,5} at 1, path-connected
        # in the dissimilarity graph, 2-5 missing so not a clique
        g = Graph(6, [(0, 2), (0, 3), (2, 3), (1, 4), (1, 5), (4, 5), (2, 4), (3, 4), (3, 5)])
        assert find_claw(g) is None
        st = CanonicalState(g, {0, 1})
        comps = free_components(g, st)
        assert len(comps) == 1
        comp = comps[0]
        assert comp.class_count == 2 and not comp.flagged
        assert not g.is_clique(comp.nodes)


class TestTheoremSimilar:
    def test_flagged_components_are_maximal_cliques(self):
        # any dissimilarity component meeting three or more classes must
        # induce a maximal clique (checked on claw-free instances, n <= 30)
        checked = 0
        for i in range(80):
            g = gen_rejection(GenSpec(seed=1500 + i, mode="rejection", nodes=6 + i % 17))
            st = CanonicalState(g, greedy_members(g))
            for comp in free_components(g, st):
                if comp.flagged:
                    checked += 1
                    assert g.is_clique(comp.nodes)
                    members = set(comp.nodes)
                    for u in range(g.n):
                        if u not in members:
                            assert not members <= adj(g, u)
