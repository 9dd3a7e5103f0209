import pytest

from mwss import (
    CanonicalState,
    GenSpec,
    Graph,
    GraphInputError,
    StructuralError,
    canonicalize,
    gen_rejection,
)
from mwss.canonical import greedy_members
from mwss.checks import canonical_violation, find_augmenting_p3, find_dominating_free

from helpers import complete_graph, path_graph

# both check a seed set through stable_counts, with the same errors
CHECKED = pytest.mark.parametrize(
    "build", [CanonicalState, canonicalize], ids=["CanonicalState", "canonicalize"]
)


class TestState:
    def test_classification_on_p4(self):
        g = path_graph(4)
        st = CanonicalState(g, {0, 3})
        assert st.classification(0) == "stable"
        assert st.classification(1) == "free"
        assert st.stable_neighbor(1) == 0

    def test_bound_needs_two_stable_neighbors(self):
        g = path_graph(5)
        st = CanonicalState(g, {0, 2, 4})
        assert st.is_bound(1) and st.is_bound(3)

    @CHECKED
    def test_non_stable_rejected(self, build):
        with pytest.raises(GraphInputError, match="not stable"):
            build(path_graph(3), {0, 1})

    @CHECKED
    def test_non_maximal_rejected(self, build):
        with pytest.raises(GraphInputError, match="not maximal"):
            build(path_graph(5), {0})

    @CHECKED
    def test_three_stable_neighbors_is_a_claw(self, build):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(StructuralError) as err:
            build(g, {1, 2, 3})
        assert (err.value.kind, err.value.witness) == ("claw", (0, 1, 2, 3))


class TestGreedy:
    def test_clique_picks_lowest(self):
        assert greedy_members(complete_graph(4)) == [0]

    def test_empty_graph_takes_all(self):
        assert greedy_members(Graph(3)) == [0, 1, 2]

    def test_p4_trace(self):
        assert greedy_members(path_graph(4)) == [0, 2]

    def test_seed_kept_then_ascending(self):
        # seed {1, 5} of P7 blocks every node but 3
        assert greedy_members(path_graph(7), (5, 1)) == [5, 1, 3]
        assert greedy_members(path_graph(7), ()) == [0, 2, 4, 6]


class TestAugmentingP3:
    def test_p3_center(self):
        g = path_graph(3)
        st = CanonicalState(g, {1})
        assert find_augmenting_p3(st, 1) == (0, 2)

    def test_clique_free_neighbors_none(self):
        # stable node 0 with free neighbors 1, 2 forming a clique
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        st = CanonicalState(g, {0, 3})
        assert find_augmenting_p3(st, 0) is None

    def test_p7_seed_trace(self):
        # 0-based ids: spec's S0 = {v2, v5, v7} is {1, 4, 6}
        g = path_graph(7)
        st = CanonicalState(g, {1, 4, 6})
        assert find_augmenting_p3(st, 1) == (0, 2)

    def test_non_stable_input_rejected(self):
        st = CanonicalState(path_graph(3), {1})
        with pytest.raises(GraphInputError):
            find_augmenting_p3(st, 0)


class TestDominatingFree:
    def test_p4_endpoint_dominated(self):
        g = path_graph(4)
        st = CanonicalState(g, {0, 3})
        assert find_dominating_free(st, 0) == 1

    def test_no_domination_without_containment(self):
        g = path_graph(5)
        st = CanonicalState(g, {0, 2, 4})
        assert find_dominating_free(st, 2) is None

    def test_highest_degree_candidate_wins(self):
        # stable s=0; free neighbors 1 (degree 3) and 2 (degree 4), both
        # dominating; the degree-4 node must win.
        g = Graph(
            6,
            [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)],
        )
        st = CanonicalState(g, {0, 5})
        cands = [v for v in g.neighbors(0) if st.is_free(v)]
        assert cands == [1, 2]
        assert find_dominating_free(st, 0) == 2
        assert g.degree(2) == 4 and g.degree(1) == 3


class TestCanonicalize:
    def test_p7_spec_trace(self):
        g = path_graph(7)
        out, stats = canonicalize(g, {1, 4, 6})
        assert out == (0, 2, 4, 6)
        assert stats.augmentations == 1
        assert canonical_violation(CanonicalState(g, out)) is None

    def test_p4_alternation_trace(self):
        g = path_graph(4)
        out, stats = canonicalize(g, [3, 0])
        assert out == (1, 3)
        assert stats.alternations == 1
        assert canonical_violation(CanonicalState(g, out)) is None

    def test_fixpoint_unchanged(self):
        g = path_graph(7)
        out, stats = canonicalize(g, (0, 2, 4, 6))
        assert out == (0, 2, 4, 6)
        assert stats.augmentations == 0 and stats.alternations == 0

    def test_size_never_decreases(self):
        for seed_id in range(40):
            g = gen_rejection(GenSpec(seed=seed_id, mode="rejection", nodes=6 + seed_id % 12))
            seed = greedy_members(g)
            out, _ = canonicalize(g, seed)
            assert len(out) >= len(seed)

    def test_canonical_postconditions_on_random_instances(self):
        for seed_id in range(60):
            g = gen_rejection(GenSpec(seed=100 + seed_id, mode="rejection", nodes=5 + seed_id % 14))
            out, stats = canonicalize(g, greedy_members(g))
            assert canonical_violation(CanonicalState(g, out)) is None
            assert stats.steps <= 50 * (g.n + g.m)

    def test_exit_check_reports_claw_made_by_augmentation(self):
        # the augmentation at 0 takes 1 and 2 in, and 3 then sees 1, 2 and 4
        g = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        with pytest.raises(StructuralError) as err:
            canonicalize(g, {0, 4})
        assert (err.value.kind, err.value.witness) == ("claw", (3, 1, 2, 4))

    def test_augmentation_shrinks_free_set(self):
        # after each augmentation the free set must not gain members
        g = path_graph(7)
        seed = CanonicalState(g, {1, 4, 6})
        before = set(seed.free_nodes())
        out, _ = canonicalize(g, seed.members)
        after = set(CanonicalState(g, out).free_nodes())
        assert after <= before


class TestPhaseClaims:
    def test_single_augmentation_shrinks_free_set(self):
        # Claim check: applying one augmentation produces a state whose
        # free set is a proper subset of the previous one.
        for seed in range(30):
            g = gen_rejection(GenSpec(seed=400 + seed, mode="rejection", nodes=7 + seed % 12))
            st = CanonicalState(g, greedy_members(g))
            found = None
            for s in st.stable_set:
                pair = find_augmenting_p3(st, s)
                if pair:
                    found = (s, pair)
                    break
            if found is None:
                continue
            s, (x, y) = found
            after = CanonicalState(g, set(st.members) - {s} | {x, y})
            assert set(after.free_nodes()) < set(st.free_nodes())
