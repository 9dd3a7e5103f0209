import pytest

from mwss import (
    Anchor,
    CanonicalState,
    GenSpec,
    Graph,
    StructuralError,
    WingGraph,
    build_strips,
    build_wing_graph,
    build_wing_table,
    decompose,
    find_claw,
    find_net,
    gen_strip_instance,
    canonicalize,
    greedy_members,
    is_regular_node,
    select_q,
    solve,
)
from mwss.checks import strip_violation

from helpers import adj, cycle_graph, flipped_strip, path_graph, reference_build_strips


def canonical_set(g):
    return canonicalize(g, greedy_members(g))[0]


def dominating_square_graph():
    """Stable set {s1..s4} plus a dominating square.

    ids: s1=0 s2=1 s3=2 s4=3, x=4, y=5, x'=6, y'=7.  The square is
    (x, y, y', x'); each square node is bound to the two stable nodes the
    four-cycle of wings prescribes.  Verified {claw, net}-free and
    alpha = 4 by the detectors and oracle in the tests below.
    """
    edges = [
        (4, 2), (4, 3), (4, 5), (4, 6),
        (5, 0), (5, 3), (5, 7),
        (6, 1), (6, 2), (6, 7),
        (7, 0), (7, 1),
    ]
    return Graph(8, edges)


def all_nonempty_graph():
    """Fixture where all four cover-wing intersections are non-empty.

    ids: s1=0, a=1, abar=2, s2=3, b=4, s3=5, c=6, cbar=7, s4=8.
    """
    edges = [
        (0, 1), (0, 2),
        (1, 3), (2, 3), (1, 4), (3, 4),
        (4, 5), (4, 6),
        (5, 6), (5, 7),
        (6, 8), (7, 8),
    ]
    return Graph(9, edges)


class TestSelectQ:
    def test_p7_anchor_and_clique(self):
        g = path_graph(7)
        st = canonical_set(g)
        wings = build_wing_table(g, st)
        wg = build_wing_graph(wings, st)
        q, anchor = select_q(g, wg, wings)
        assert q == (1, 2)
        assert anchor.case == "a" and anchor.position == 1
        assert is_regular_node(g, 2).cliques == ((1, 2), (2, 3))

    def test_c8_deterministic_choice(self):
        g = cycle_graph(8)
        st = canonical_set(g)
        wings = build_wing_table(g, st)
        wg = build_wing_graph(wings, st)
        q, anchor = select_q(g, wg, wings)
        assert q == (1, 2)

    def test_all_nonempty_grows_maximal_clique(self):
        g = all_nonempty_graph()
        assert find_claw(g) is None and find_net(g) is None
        st = CanonicalState(g, {0, 3, 5, 8}).stable_set
        wings = build_wing_table(g, st)
        wg = build_wing_graph(wings, st)
        assert wg.order == (0, 3, 5, 8)
        q, anchor = select_q(g, wg, wings)
        assert anchor.case == "b" and anchor.position == 1
        assert q == (1, 3, 4)  # {a, s2, b}: maximal clique containing {s2, b}

    def test_wing_restriction_not_a_clique_raises(self):
        # the one graph of 20,000 flipped small strips that reaches this site
        g = flipped_strip(16277, nodes=(12, 60), clique_max=4)
        with pytest.raises(StructuralError) as err:
            solve(g)
        assert (err.value.kind, err.value.witness) == ("non_clique", (7, 15))
        assert err.value.detail == "wing restriction to N(s2) is not a clique"


class TestDecomposeP7:
    def test_full_p7_decomposition(self):
        g = path_graph(7)
        dec = decompose(g, canonical_set(g))
        assert dec.core == (1, 2)
        assert dec.removal == (3,)
        assert dec.companion == (0,)
        assert dec.kind == "strongly_bisimplicial"
        assert dec.strips == (
            ((1, 2), (0,)),
            ((4,), (5,), (6,)),
        )

    def test_c8_single_wrapped_strip(self):
        g = cycle_graph(8)
        dec = decompose(g, canonical_set(g))
        assert dec.kind == "strongly_bisimplicial"
        assert len(dec.strips) == 1
        strip = dec.strips[0]
        assert strip[0] == dec.core
        covered = set().union(*[set(k) for k in strip])
        assert covered == set(range(8)) - set(dec.removal)


class TestDominatingCase:
    def test_claim_square_instance(self):
        g = dominating_square_graph()
        assert find_claw(g) is None and find_net(g) is None
        st = CanonicalState(g, {0, 1, 2, 3}).stable_set
        dec = decompose(g, st)
        assert dec.kind == "dominating"
        # V minus N[Q] must be a clique (single node here)
        assert len(dec.strips) == 1
        family = dec.strips[0]
        assert family[0] == dec.core
        covered = set().union(*[set(k) for k in family])
        assert covered == set(range(8)) - set(dec.removal)

    def test_degenerate_simplicial_core_empty_companion(self):
        # select_q never produces an empty companion on conforming inputs,
        # but build_strips must accept one: a maximal simplicial clique is
        # strongly bisimplicial with an empty second side.
        from mwss import Anchor, build_strips

        g = path_graph(7)
        st = canonical_set(g)
        wg = build_wing_graph(build_wing_table(g, st), st)
        dec = build_strips(g, (0, 1), (2,), (), "strongly_bisimplicial", Anchor("a", 1), wg)
        assert dec.strips == (
            ((0, 1),),
            ((3,), (4,), (5,), (6,)),
        )


class TestCliqueLayers:
    def test_non_clique_bfs_layer_raises(self):
        # from X = {1}, the second layer {2, 3} misses the edge 2-3
        g = Graph(4, [(0, 1), (1, 2), (1, 3)])
        wg = WingGraph((), "path")
        args = (g, (0,), (1,), (), "strongly_bisimplicial", Anchor("a", 1), wg)
        for build in (reference_build_strips, build_strips):
            with pytest.raises(StructuralError) as err:
                build(*args)
            assert (err.value.kind, err.value.witness) == ("non_clique_layer", (2, 3))


class TestStripInvariants:
    @pytest.mark.parametrize("seed", range(30))
    def test_generated_strip_contracts(self, seed):
        g = gen_strip_instance(
            GenSpec(
                seed=3000 + seed,
                mode="strip",
                nodes=10 + (seed % 30),
                clique_min=1,
                clique_max=4,
                density=(0.3, 0.5, 0.8)[seed % 3],
            )
        )
        st = canonical_set(g)
        if len(st) < 4:
            pytest.skip("alpha collapsed below 4 after canonicalize")
        dec = decompose(g, st)
        nodes = set()
        for strip in dec.strips:
            for clique in strip:
                assert g.is_clique(clique)
                nodes.update(clique)
        assert nodes == set(range(g.n)) - set(dec.removal)
        # mutual nullity across strips
        if len(dec.strips) == 2:
            s0 = {v for k in dec.strips[0] for v in k}
            s1 = {v for k in dec.strips[1] for v in k}
            for u in s0:
                assert not (adj(g, u) & s1)
        # consecutive-pair square-semi-homogeneity in the original graph
        assert strip_violation(g, dec) is None

    def test_claim_ii_neighbor_locality(self):
        # nodes of N[s_i] only reach N[s_{i-1}] | N[s_i] | N[s_{i+1}]
        from mwss import closed_neighborhood

        g = gen_strip_instance(GenSpec(seed=77, mode="strip", nodes=30, clique_min=2, clique_max=4))
        st = canonical_set(g)
        order = build_wing_graph(build_wing_table(g, st), st).order
        t = len(order)
        for i in range(1, t - 1):
            allowed = set()
            for j in (i - 1, i, i + 1):
                allowed.update(closed_neighborhood(g, (order[j],)))
            for u in closed_neighborhood(g, (order[i],)):
                assert adj(g, u) <= allowed
