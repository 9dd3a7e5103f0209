import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwss import (
    GenSpec,
    Graph,
    GraphInputError,
    StructuralError,
    gen_strip_instance,
    closed_neighborhood,
    connected_components,
    induced_subgraph,
    is_regular_node,
    neighborhood,
    remove_twins,
    solve,
)
from mwss.oracle import mwss_enumerate

from helpers import (
    adj,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    reference_components,
    reference_induced_subgraph,
    reference_positive_twins,
    twin_augmented,
)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    weights = draw(
        st.lists(st.integers(-5, 20), min_size=n, max_size=n)
    )
    return Graph(n, edges, weights)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphInputError):
            Graph(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphInputError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphInputError):
            Graph(2, [(0, 2)])

    def test_rejects_negative_id(self):
        # a negative id must not wrap around to the last row
        with pytest.raises(GraphInputError):
            Graph(3, [(-1, 0)])
        with pytest.raises(GraphInputError):
            Graph(3, [(0, -3)])

    @pytest.mark.parametrize(
        "args, named",
        [
            ((3, [(0.0, 1.0)]), r"edge \(0\.0, 1\.0\)"),
            ((3, [(0, 1), ("0", 1)]), r"edge \('0', 1\)"),
            ((3, [(0, 1.5)]), r"edge \(0, 1\.5\)"),
            ((2.5,), r"node count 2\.5"),
            (("3", [(0, 1)]), r"node count '3'"),
        ],
    )
    def test_rejects_ids_that_are_not_integers(self, args, named):
        # ids from outside get an input error naming them, not a TypeError
        with pytest.raises(GraphInputError, match=named):
            Graph(*args)

    def test_rejects_duplicate_in_same_orientation(self):
        with pytest.raises(GraphInputError, match=r"duplicate edge \(0, 1\)"):
            Graph(3, [(0, 1), (0, 1)])

    def test_rejects_duplicate_among_many_edges(self):
        rng = random.Random(7)
        edges = [(u, v) for u in range(60) for v in range(u + 1, 60) if rng.random() < 0.4]
        rng.shuffle(edges)
        assert Graph(60, edges).m == len(edges)
        u, v = edges[len(edges) // 3]
        edges.insert(2 * len(edges) // 3, (v, u))
        with pytest.raises(GraphInputError, match=rf"duplicate edge \({min(u, v)}, {max(u, v)}\)"):
            Graph(60, edges)

    def test_is_stable_on_repeated_node(self):
        g = Graph(3, [(0, 1)])
        assert g.is_stable([0, 2])
        assert not g.is_stable([2, 2])
        assert not g.is_stable([0, 2, 0])

    def test_adjacency_sorted_and_symmetric(self):
        g = Graph(4, [(2, 0), (3, 1), (0, 3)])
        assert g.neighbors(0) == (2, 3)
        for u, v in g.edges():
            assert g.has_edge(v, u)


class TestRowsMatchEdgeSet:
    def test_queries_on_random_graphs(self):
        rng = random.Random(43)
        for trial in range(200):
            n = rng.randint(0, 20)
            p = rng.random()
            edges = [
                (u, v) if rng.random() < 0.5 else (v, u)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < p
            ]
            rng.shuffle(edges)
            g = Graph(n, edges)
            ref = {frozenset(e) for e in edges}

            def edge(a, b):
                return frozenset((a, b)) in ref

            for u in range(n):
                assert adj(g, u) == {v for v in range(n) if edge(u, v)}
                assert all(g.has_edge(u, v) == edge(u, v) for v in range(n))
            for _ in range(10):
                nodes = [rng.randrange(n) for _ in range(rng.randint(0, 5))] if n else []
                distinct = len(set(nodes)) == len(nodes)
                pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
                assert g.is_stable(nodes) == (distinct and not any(edge(a, b) for a, b in pairs))
                assert g.is_clique(nodes) == (distinct and all(edge(a, b) for a, b in pairs))
                assert g.non_edge(nodes) == next(
                    ((a, b) for a, b in pairs if not edge(a, b)), None
                )
                inside = set(nodes)
                assert neighborhood(g, nodes) == tuple(
                    v for v in range(n) if v not in inside and any(edge(v, a) for a in inside)
                )


class TestQueryRange:
    # node ids outside 0..n-1 are rejected, never wrapped around by a
    # negative index
    g = Graph(3, [(0, 2)])

    @pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (3, 0), (0, 3)])
    def test_has_edge(self, u, v):
        with pytest.raises(GraphInputError):
            self.g.has_edge(u, v)

    @pytest.mark.parametrize("nodes", [[-1], [0, 3]])
    def test_is_stable(self, nodes):
        with pytest.raises(GraphInputError):
            self.g.is_stable(nodes)

    @pytest.mark.parametrize("nodes", [[-1, 0], [0, 2, 3]])
    def test_non_edge_and_is_clique(self, nodes):
        for query in (self.g.non_edge, self.g.is_clique):
            with pytest.raises(GraphInputError):
                query(nodes)

    @pytest.mark.parametrize("v", [-1, 3])
    def test_neighbors(self, v):
        with pytest.raises(GraphInputError):
            self.g.neighbors(v)

    @pytest.mark.parametrize("v", [-1, 3])
    def test_degree(self, v):
        with pytest.raises(GraphInputError):
            self.g.degree(v)

    def test_in_range_queries_unchanged(self):
        assert self.g.has_edge(0, 2) and not self.g.has_edge(0, 1)
        assert self.g.is_stable([0, 1]) and self.g.is_clique([0, 2])
        assert self.g.neighbors(0) == (2,) and self.g.degree(1) == 0


class TestNeighborhood:
    def test_triangle_single_node(self):
        g = complete_graph(3)
        assert neighborhood(g, [0]) == (1, 2)

    def test_path_interior_pair(self):
        g = path_graph(4)
        assert neighborhood(g, [1, 2]) == (0, 3)

    def test_whole_vertex_set_has_empty_neighborhood(self):
        g = cycle_graph(5)
        assert neighborhood(g, range(5)) == ()

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphInputError):
            neighborhood(path_graph(3), [5])

    @given(small_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_closed_open_identity(self, g, data):
        if g.n == 0:
            return
        w = data.draw(st.sets(st.integers(0, g.n - 1)))
        open_n = set(neighborhood(g, w))
        closed = set(closed_neighborhood(g, w))
        assert closed == open_n | set(w)
        assert not (open_n & set(w))


class TestRowsConstructor:
    def test_matches_edge_list_constructor(self):
        rng = random.Random(41)
        for trial in range(200):
            n = rng.randint(0, 30)
            weights = [rng.randint(-3, 9) for _ in range(n)]
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3
            ]
            rows = [[] for _ in range(n)]
            for u, v in edges:
                rows[u].append(v)
                rows[v].append(u)
            built = Graph._from_rows([tuple(sorted(r)) for r in rows], weights)
            g = Graph(n, edges, weights)
            assert built == g and hash(built) == hash(g)
            assert built.m == g.m
            assert all(adj(built, v) == adj(g, v) for v in range(n))

    def test_induced_subgraph_matches_reference(self):
        rng = random.Random(42)
        for trial in range(200):
            n = rng.randint(0, 30)
            g = random_graph(n, rng.random(), rng, [rng.randint(-3, 9) for _ in range(n)])
            keep = [v for v in range(n) if rng.random() < 0.6] + [0] * (n > 0)
            sub = induced_subgraph(g, keep)
            ref, ref_keep = reference_induced_subgraph(g, keep)
            assert sub == ref and sub.m == ref.m and hash(sub) == hash(ref)
            # subgraph node i is the i-th kept id, ascending
            ids = sorted(set(keep))
            inside = set(ids)
            lifted = {(ids[u], ids[v]) for u, v in sub.edges()}
            assert lifted == {(u, v) for u, v in g.edges() if u in inside and v in inside}


class TestInducedSubgraph:
    def test_path_pair_is_single_edge(self):
        sub = induced_subgraph(path_graph(4), [0, 1])
        assert sub.n == 2 and sub.m == 1

    def test_empty_keep(self):
        sub = induced_subgraph(path_graph(4), [])
        assert sub.n == 0 and sub.m == 0

    def test_c5_four_consecutive_is_p4(self):
        sub = induced_subgraph(cycle_graph(5), [0, 1, 2, 3])
        assert sub.n == 4 and sub.m == 3
        assert sorted(sub.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_weights_carried(self):
        g = Graph(3, [(0, 1)], [5, 6, 7])
        sub = induced_subgraph(g, [2, 1])  # ids follow ascending order, not keep's
        assert sub.weights == (6, 7)
        assert sub.m == 0


class TestComponents:
    def test_two_disjoint_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert connected_components(g) == [(0, 1), (2, 3)]

    def test_connected(self):
        assert len(connected_components(cycle_graph(6))) == 1

    def test_empty(self):
        assert connected_components(Graph(0)) == []

    def test_restricted_to_nodes(self):
        # without node 2 the path falls apart; node 3 stays a singleton
        assert connected_components(path_graph(6), [4, 0, 1, 3, 5]) == [(0, 1), (3, 4, 5)]
        assert connected_components(path_graph(6), []) == []

    def test_matches_plain_bfs(self):
        # dense components, isolated nodes and a strict subset of the nodes;
        # the set search stops once every node is placed
        rng = random.Random(44)
        dense = Graph(40, [(u, v) for u in range(40) for v in range(u + 1, 40)
                           if (u < 20) == (v < 20) and rng.random() < 0.9])
        graphs = [dense, complete_graph(12), Graph(5), path_graph(9)]
        graphs += [random_graph(rng.randint(1, 40), rng.choice((0.05, 0.5, 0.95)), rng)
                   for _ in range(150)]
        for g in graphs:
            assert connected_components(g) == reference_components(g)
            for share in (0.3, 0.8):
                keep = [v for v in range(g.n) if rng.random() < share]
                rng.shuffle(keep)
                assert connected_components(g, keep + keep[:2]) == reference_components(g, keep)
        assert len(connected_components(dense)) == 2

    def test_restricted_matches_induced_subgraph(self):
        rng = random.Random(43)
        for trial in range(200):
            n = rng.randint(0, 30)
            g = random_graph(n, rng.random() * 0.3, rng)
            keep = [v for v in range(n) if rng.random() < 0.6]
            sub = induced_subgraph(g, keep)
            ids = sorted(set(keep))
            expected = [tuple(ids[v] for v in c) for c in connected_components(sub)]
            assert connected_components(g, keep) == expected


def adjacent_twin_pair(g):
    """The first pair of nodes with equal closed neighborhoods, or None."""
    closed = [adj(g, v) | {v} for v in range(g.n)]
    return next(
        ((u, v) for u in range(g.n) for v in range(u + 1, g.n) if closed[u] == closed[v]),
        None,
    )


class TestTwins:
    def test_adjacent_twins_keep_heavier(self):
        assert remove_twins(Graph(2, [(0, 1)], [3, 5])) == (1,)
        assert remove_twins(Graph(2, [(0, 1)], [4, 4])) == (0,)  # lower id on ties

    def test_colliding_id_sums_keep_non_twins(self):
        # N[0] = {0, 1, 5} and N[1] = {0, 1, 2, 3} both sum to 6, and N[3]
        # = {1, 3} sums to 4 like the isolated node 4: keys collide, and an
        # exact split keeps every node; the dead node 6 takes the filtered path
        edges = [(0, 1), (0, 5), (1, 2), (1, 3)]
        for g in (Graph(6, edges), Graph(7, edges + [(0, 6), (6, 1)], [1] * 6 + [0])):
            key = lambda v: v + sum(u for u in g.neighbors(v) if g.weights[u] > 0)
            assert key(0) == key(1) == 6 and key(3) == key(4) == 4
            assert remove_twins(g) == tuple(range(6))

    def test_twins_differing_only_in_dead_neighbours(self):
        # 0 sees the dead 2 and 1 the dead 3; their live closed
        # neighbourhoods are both {0, 1, 4}, so the later of the two goes
        edges = [(0, 1), (0, 2), (1, 3), (0, 4), (1, 4), (4, 5)]
        assert remove_twins(Graph(6, edges, [5, 5, 0, -5, 1, 1])) == (0, 4, 5)
        assert remove_twins(Graph(6, edges, [5, 5, 1, 1, 1, 1])) == tuple(range(6))

    def test_isolated_twins_stay_live(self):
        # non-adjacent twins are neither merged nor dropped
        assert remove_twins(Graph(2, [], [2, 4])) == (0, 1)

    def test_twin_free_graph_unchanged(self):
        assert remove_twins(path_graph(5)) == tuple(range(5))

    def test_p3_leaves_stay_live(self):
        # the leaves of a P3 are non-adjacent twins and all three stay; with
        # the centre doubled into the adjacent twins 1 and 3, one pass drops
        # the later of the two and leaves the P3
        assert remove_twins(path_graph(3)) == (0, 1, 2)
        g = Graph(4, [(0, 1), (1, 2), (0, 3), (2, 3), (1, 3)])
        assert remove_twins(g) == (0, 1, 2)

    def test_non_positive_nodes_dead_without_steps(self):
        # 1, 3 and 4 are dead, so 0 and 2 are isolated non-adjacent twins
        # and both stay
        g = Graph(5, [(0, 1), (2, 3)], [2, 0, 3, -1, -4])
        assert remove_twins(g) == (0, 2)
        assert solve(g, collect_trace=True).certificates["twin_steps"] == 0
        # with the dead node 2 gone, 0 and 1 are adjacent twins
        g = Graph(3, [(0, 1), (1, 2)], [1, 1, 0])
        assert remove_twins(g) == (0,)
        assert solve(g, collect_trace=True).certificates["twin_steps"] == 1

    @given(small_graphs())
    @settings(max_examples=80, deadline=None)
    def test_output_twin_free_and_value_preserved(self, g):
        live = remove_twins(g)
        h = induced_subgraph(g, live)
        assert all(w > 0 for w in h.weights)
        assert adjacent_twin_pair(h) is None
        assert mwss_enumerate(g)[0] == mwss_enumerate(h)[0]

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_live_optimum_is_an_input_optimum(self, g):
        live = remove_twins(g)
        value, nodes = mwss_enumerate(induced_subgraph(g, live))
        picked = [live[v] for v in nodes]
        assert g.is_stable(picked)
        assert g.weight_of(picked) == value == mwss_enumerate(g)[0]


class TestRegularNodes:
    def test_p3_middle(self):
        assert is_regular_node(path_graph(3), 1) == ((0, 1), (1, 2))

    def test_wheel_hub_irregular_with_odd_witness(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)] + [(5, i) for i in range(5)])
        with pytest.raises(StructuralError) as err:
            is_regular_node(g, 5)
        assert (err.value.kind, err.value.witness) == ("irregular", (5, 4, 2, 0, 3, 1))
        assert err.value.detail == "stable node is not regular"
        cyc = err.value.witness[1:]
        assert len(cyc) % 2 == 1
        # consecutive members are non-adjacent in g (edges of the complement)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert not g.has_edge(a, b)

    def test_simplicial_node(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        assert is_regular_node(g, 3) == ((1, 2, 3), (3,))

    def test_all_nodes_regular_on_paths(self):
        g = path_graph(6)
        assert [is_regular_node(g, v) for v in range(6)] == [
            ((0, 1), (0,)), ((0, 1), (1, 2)), ((1, 2), (2, 3)),
            ((2, 3), (3, 4)), ((3, 4), (4, 5)), ((4, 5), (5,)),
        ]


class TestTwinsMatchReference:
    """remove_twins leaves the same live nodes as the set-based reference,
    which re-hashes until a round drops nothing, run on the positive
    nodes' subgraph and mapped back to the input's ids."""

    @staticmethod
    def _check(g):
        live = remove_twins(g)
        ref_graph, ref_live = reference_positive_twins(g)
        h = induced_subgraph(g, live)
        assert h == ref_graph and h.m == ref_graph.m
        assert live == tuple(ref_live)
        return live

    def test_random_graphs(self):
        rng = random.Random(7)
        for trial in range(600):
            n = rng.randint(0, 14)
            weights = [rng.randint(-2, 4) for _ in range(n)]
            self._check(random_graph(n, rng.random(), rng, weights))

    def test_twin_augmented_strips(self):
        rng = random.Random(8)
        drops = open_twins = 0
        for seed in range(60):
            base = gen_strip_instance(
                GenSpec(seed=300 + seed, nodes=rng.randint(20, 80), clique_min=2,
                        clique_max=5, density=0.5, weights="unit")
            )
            g = twin_augmented(base, rng, rng.randint(3, 25))
            live = self._check(g)
            positive = sum(w > 0 for w in g.weights)
            drops += len(live) < positive
            # two live nodes with equal live open neighborhoods both stay
            rows = Counter(frozenset(g.neighbors(v)).intersection(live) for v in live)
            open_twins += any(c > 1 for c in rows.values())
        assert drops > 0 and open_twins > 0

    def test_strip_4k_under_pricing_weights(self):
        base = gen_strip_instance(
            GenSpec(seed=5, nodes=4000, clique_min=7, clique_max=11, density=0.6,
                    weights="random")
        )
        edges = list(base.edges())
        rng = random.Random(9)
        for vector in range(3):
            weights = [
                rng.randint(-1000, 0) if rng.random() < 0.7 else rng.randint(1, 1000)
                for _ in range(base.n)
            ]
            g = Graph(base.n, edges, weights)
            self._check(g)
            positive = induced_subgraph(g, [v for v in range(g.n) if weights[v] > 0])
            self._check(positive)
