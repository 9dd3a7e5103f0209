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

from helpers import cycle_graph, free_components, path_graph


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
        wg = build_wing_graph(build_wing_table(g, stable), stable)
        assert wg.shape == "path"
        assert wg.order == (0, 2, 4, 6)

    def test_c8_cycle_order(self):
        g = cycle_graph(8)
        stable = CanonicalState(g, {0, 2, 4, 6}).stable_set
        wg = build_wing_graph(build_wing_table(g, stable), stable)
        assert wg.shape == "cycle"
        assert wg.order == (0, 2, 4, 6)

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
                            assert not members <= g.adj(u)
