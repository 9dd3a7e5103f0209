import dataclasses
import gc
import itertools
import random
import tracemalloc
import weakref
from collections import Counter

import pytest

import mwss.solver
import mwss.square_elimination
from mwss import (
    GenSpec,
    Graph,
    StructuralError,
    find_claw,
    find_net,
    find_stable4,
    gen_rejection,
    gen_strip_instance,
    induced_subgraph,
    oracle_mwss,
    remove_twins,
    solve,
)
from mwss.canonical import greedy_members
from mwss.checks import component_detail
from mwss.graph import connected_components
from mwss.patterns import PatternWitness, validate_witness
from mwss.solver import ROUTE_ALPHA3, alpha3_fallback

from helpers import (
    acceptance_pool,
    adj,
    clique_chain_value,
    complete_graph,
    cycle_graph,
    flipped_strip,
    frontier_mwss,
    nested_cliques,
    path_graph,
    perturbed_strip,
    pricing_weights,
    random_graph,
    reference_alpha3,
    reference_claw_at,
    reference_solve,
    reference_stable4_exact,
    twin_augmented,
)


def outcome(solver, g):
    """The answer and counters of ``solver`` on ``g``, or the error it raises."""
    try:
        s = solver(g)
    except StructuralError as err:
        return "error", err.kind, err.witness
    certs = s.certificates
    return s.value, s.nodes, s.route, certs["routes"], certs["twin_steps"], certs["components"]


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
        # a hub with a stable triple among its neighbours is a claw centre,
        # and the first case is the star K1,4
        cases = [(), ((1, 2), (3, 4)), ((1, 3), (2, 5), (5, 6))]
        for extra_edges in cases:
            n = 5 if not extra_edges else 9
            g = Graph(n, [(0, i) for i in range(1, n)] + list(extra_edges))
            assert greedy_members(g) == [0]
            with pytest.raises(StructuralError) as err:
                find_stable4(g)
            assert err.value.kind == "claw" and err.value.witness[0] == 0
            assert validate_witness(g, PatternWitness("claw", err.value.witness))

    @staticmethod
    def _path7(labels):
        """P7 on v0..v6 with node id labels[i] for v_i: alpha = 4, and the
        ascending greedy set takes whatever the labels put first."""
        return Graph(7, [(labels[i], labels[i + 1]) for i in range(6)])

    @pytest.mark.parametrize(
        "labels",
        [
            (3, 0, 4, 5, 1, 6, 2),  # S = {v1, v4, v6}: v0, v2 replace v1
            (3, 0, 4, 1, 5, 6, 2),  # S = {v1, v3, v6}: v0, v2, v4 replace v1, v3
            (3, 0, 4, 1, 5, 2, 6),  # S = {v1, v3, v5}: v0, v2, v4, v6 replace all
        ],
        ids=["length1", "length2", "length3"],
    )
    def test_augmenting_path_from_greedy_miss(self, labels):
        g = self._path7(labels)
        assert greedy_members(g) == [0, 1, 2]
        assert find_stable4(g) == tuple(sorted(labels[0::2]))

    def test_bound_node_seeing_far_free_node_is_a_claw(self):
        # the length-3 case with v2 joined to v6: v2 sees v1, v3 and v6
        labels = (3, 0, 4, 1, 5, 2, 6)
        g = Graph(7, [(labels[i], labels[i + 1]) for i in range(6)] + [(4, 6)])
        with pytest.raises(StructuralError) as err:
            find_stable4(g)
        assert err.value.kind == "claw" and err.value.witness == (4, 0, 1, 6)
        assert validate_witness(g, PatternWitness("claw", err.value.witness))

    @staticmethod
    def _c7_blowup(k, drop_xy=False):
        """The 7-cycle x s b1 t b2 u y with s, t, u single nodes 0, 1, 2 and
        x, b1, b2, y blown up into cliques of k nodes, each joined to the
        cliques beside it: claw-free with alpha = 3, or 4 without one x-y
        edge."""
        x, b1, b2, y = ([3 + c * k + i for i in range(k)] for c in range(4))
        edges = [(0, v) for v in x + b1] + [(1, v) for v in b1 + b2] + [(2, v) for v in b2 + y]
        for part in (x, b1, b2, y):
            edges += itertools.combinations(part, 2)
        edges += [(p, q) for p in x for q in y if not (drop_xy and (p, q) == (x[0], y[-1]))]
        return Graph(3 + 4 * k, edges)

    @pytest.mark.parametrize("drop_xy", [False, True])
    def test_seven_cycle_blowup(self, drop_xy):
        g = self._c7_blowup(5, drop_xy)
        assert find_claw(g) is None and greedy_members(g) == [0, 1, 2]
        got = find_stable4(g)
        assert (got is None) == (not drop_xy) == (reference_stable4_exact(g) is None)
        if drop_xy:
            assert g.is_stable(got) and 3 in got and 22 in got

    def test_two_rounds_from_greedy_pair(self):
        # a - 0 - b, 0 - e - b, e - c, c - 1 - d: claw-free, alpha = 4 with
        # {a, b, c, d}, and the greedy set {0, 1} needs two augmentations
        a, b, c, d, e = 2, 3, 4, 5, 6
        g = Graph(7, [(a, 0), (0, b), (0, e), (b, e), (e, c), (c, 1), (1, d)])
        assert find_claw(g) is None and find_net(g) is None
        assert greedy_members(g) == [0, 1]
        assert find_stable4(g) == (a, b, c, d)

    def test_greedy_single_without_claw_has_none(self):
        # wheel: hub 0 over the 4-cycle 1-2-3-4; the hub's neighbourhood
        # holds no stable triple, so alpha <= 2
        g = Graph(5, [(0, i) for i in range(1, 5)] + [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert find_claw(g) is None and greedy_members(g) == [0]
        assert find_stable4(g) is None

    def test_node_seeing_three_members_is_a_claw(self):
        # 0, 1, 2 are the greedy set and 6 sees all three
        g = Graph(7, [(0, 3), (1, 4), (2, 5), (0, 6), (1, 6), (2, 6)])
        assert greedy_members(g) == [0, 1, 2]
        with pytest.raises(StructuralError) as err:
            find_stable4(g)
        assert err.value.kind == "claw" and err.value.witness == (6, 0, 1, 2)

    def test_line_graphs_match_reference(self):
        # line graphs are claw-free, and a greedy matching often misses
        rng = random.Random(47)
        missed = 0
        for _ in range(400):
            h = [(u, v) for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.3]
            ids = list(range(len(h)))
            rng.shuffle(ids)
            g = Graph(len(h), [
                (ids[i], ids[j])
                for i, j in itertools.combinations(range(len(h)), 2)
                if set(h[i]) & set(h[j])
            ])
            got = find_stable4(g)
            assert (got is None) == (reference_stable4_exact(g) is None)
            if got is not None:
                assert len(set(got)) == 4 and g.is_stable(got)
                missed += len(greedy_members(g)) < 4
        assert missed > 20


def claw_outcome(check, *args):
    """``check(*args)``'s result, or the kind and witness it raises."""
    try:
        return check(*args)
    except StructuralError as err:
        return err.kind, err.witness


class TestClawCertificate:
    """``_check_claw_at`` proves "no stable triple" by two cliques covering
    N(s) and scans pairwise only when they do not; it raises exactly as
    the pairwise scan alone did."""

    def test_c5_neighbourhood_scans_without_raising(self, monkeypatch):
        # the hub 0 of a 5-wheel: its neighbourhood, a C5, is no union of
        # two cliques but holds no stable triple
        wheel = Graph(6, [(0, v) for v in range(1, 6)] + [(v, v % 5 + 1) for v in range(1, 6)])
        scans = []
        scan = mwss.solver._claw_scan
        monkeypatch.setattr(mwss.solver, "_claw_scan", lambda *a: scans.append(a[0]) or scan(*a))
        assert find_stable4(wheel) is None
        assert scans == [0]
        assert solve(wheel).value == oracle_mwss(wheel)[0] == 2

    def test_two_clique_neighbourhoods_skip_the_scan(self, monkeypatch):
        scans = []
        monkeypatch.setattr(mwss.solver, "_claw_scan", lambda *a: scans.append(a[0]))
        g = nested_cliques(20, random.Random(3))[0]
        assert find_stable4(g) is None and scans == []

    def test_sweep_matches_pairwise_scan(self, monkeypatch):
        graphs = acceptance_pool() + [perturbed_strip(seed) for seed in range(2000)]
        for g in graphs:
            got = claw_outcome(find_stable4, g)
            with monkeypatch.context() as m:
                m.setattr(mwss.solver, "_check_claw_at", reference_claw_at)
                assert got == claw_outcome(find_stable4, g)
        # every neighbourhood with three or more nodes, checked directly
        scans = []
        scan = mwss.solver._claw_scan
        monkeypatch.setattr(mwss.solver, "_claw_scan", lambda *a: scans.append(a[0]) or scan(*a))
        checked = raised = 0
        for g in graphs:
            order, nn = mwss.solver._weight_ranked_bits(g)
            full = (1 << g.n) - 1
            for i, s in enumerate(order):
                ns = full ^ nn[s] ^ (1 << i)
                if ns.bit_count() <= 2:
                    continue
                got = claw_outcome(mwss.solver._check_claw_at, s, ns, order, nn)
                assert got == claw_outcome(reference_claw_at, s, ns, order, nn)
                checked += 1
                raised += got is not None
        # the certificate settles about nine in ten neighbourhoods; the scan
        # runs on the rest, and some of those hold no stable triple
        assert checked > 100_000 and raised > 5_000 and len(scans) - raised > 1_000
        assert len(scans) < checked // 5


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
            try:
                seed4 = find_stable4(g)
            except StructuralError as err:
                assert err.kind == "claw"  # G(n, p) graphs may hold one
                continue
            if seed4 is None:
                continue
            members, blocked = set(seed4), set()
            for v in members:
                blocked |= adj(g, v)
            for v in range(g.n):
                if v not in members and v not in blocked:
                    members.add(v)
                    blocked |= adj(g, v)
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
        # find_stable4 gives the reference's verdict, not its set; on a
        # graph with a claw it may raise instead, with a valid witness
        claws = raised = 0
        for g in self._graphs():
            has_claw = find_claw(g) is not None
            claws += has_claw
            try:
                got = find_stable4(g)
            except StructuralError as err:
                assert has_claw and err.kind == "claw"
                assert validate_witness(g, PatternWitness("claw", err.witness))
                raised += 1
            else:
                assert (got is None) == (reference_stable4_exact(g) is None)
                if got is not None:
                    assert len(set(got)) == 4 and g.is_stable(got)
            assert alpha3_fallback(g) == reference_alpha3(g)
        assert claws > 50  # the sweep reaches graphs outside the class too
        assert raised > 20


class TestNestedCliques:
    @pytest.mark.parametrize("k", list(range(2, 41)) + [200, 400])
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


class TestAlpha3Bound:
    """The weight-bounded scan returns the full scan's exact tuple: value,
    and among sets of that value the first a full scan meets."""

    @pytest.mark.parametrize("weight_hi", [1, 2], ids=["unit", "one_or_two"])
    def test_nested_cliques_with_ties(self, weight_hi):
        for k in range(3, 61):
            g = nested_cliques(k, random.Random(4100 + k), weight_hi=weight_hi)[0]
            assert alpha3_fallback(g) == reference_alpha3(g), k

    @pytest.mark.parametrize(
        "low, high",
        [(0, 0), (0, 2), (-3, 3), (-5, 0), (-5, -1)],
        ids=["all_zero", "zero_and_positive", "mixed_sign", "non_positive", "all_negative"],
    )
    def test_zero_and_negative_weights(self, low, high):
        for seed in range(60):
            rng = random.Random(8200 + seed)
            n = 3 + seed % 14
            weights = [rng.randint(low, high) for _ in range(n)]
            g = random_graph(n, (0.3, 0.6, 0.85)[seed % 3], rng, weights)
            assert alpha3_fallback(g) == reference_alpha3(g)

    @pytest.mark.parametrize(
        "g",
        [
            Graph(0),
            Graph(1, [], [-2]),
            Graph(1, [], [0]),
            Graph(1, [], [4]),
            Graph(2, [], [0, 0]),
            Graph(2, [], [-1, 3]),
            Graph(2, [], [3, 3]),
            Graph(2, [], [2, -5]),
            Graph(2, [(0, 1)], [3, 3]),
            Graph(2, [(0, 1)], [-1, -1]),
        ],
        ids=lambda g: f"n{g.n}_m{g.m}_w{'_'.join(map(str, g.weights))}",
    )
    def test_tiny_graphs(self, g):
        assert alpha3_fallback(g) == reference_alpha3(g)

    @pytest.mark.parametrize(
        "g, expected",
        [
            # C6 weighted 2, 1, 2, 1, 2, 4: the greedy set is node 5 and its
            # heaviest non-neighbour 2, with no common non-neighbour, weight
            # 6; {0, 2, 4} and {1, 3, 5} weigh 6 too, and a full scan meets
            # {0, 2, 4} first, at the non-edge {0, 2}
            (cycle_graph(6, [2, 1, 2, 1, 2, 4]), (6, (0, 2, 4))),
            # the 4-cycle 0-1-3-2 weighted 2, 3, 1, 2: {1, 2}, scanned first
            # from the heaviest node 1, and {0, 3} both weigh 4; a full scan
            # meets {0, 3} first
            (Graph(4, [(0, 1), (1, 3), (3, 2), (2, 0)], [2, 3, 1, 2]), (4, (0, 3))),
        ],
        ids=["c6_triples", "c4_pairs"],
    )
    def test_first_optimal_set_in_scan_order(self, g, expected):
        assert alpha3_fallback(g) == reference_alpha3(g) == expected
        assert solve(g).nodes == expected[1]

    def test_ranked_bits_built_once_and_only_when_greedy_stops_short(self, monkeypatch):
        built = []
        ranked = mwss.solver._weight_ranked_bits
        monkeypatch.setattr(mwss.solver, "_weight_ranked_bits", lambda g: built.append(g) or ranked(g))
        g = nested_cliques(30, random.Random(5))[0]
        assert solve(g).route == ROUTE_ALPHA3
        assert built == [g]
        built.clear()
        strip = gen_strip_instance(GenSpec(seed=3, nodes=200, weights="random"))
        assert solve(strip).route == "strip_pipeline"
        assert built == []

    def test_greedy_set_built_once_per_strip_component(self, monkeypatch, induced_calls):
        calls = []
        greedy = mwss.solver.greedy_members
        monkeypatch.setattr(
            mwss.solver, "greedy_members", lambda g, *a, **k: calls.append(g) or greedy(g, *a, **k)
        )

        def greedy_calls(g):
            calls.clear()
            assert solve(g).route in ("strip_pipeline", "component_merge")
            return len(calls)

        p7 = path_graph(7)
        assert greedy_calls(p7) == 1
        shifted = [(u + 7, v + 7) for u, v in p7.edges()]
        assert greedy_calls(Graph(14, [*p7.edges(), *shifted])) == 2
        strip = gen_strip_instance(GenSpec(seed=3, nodes=200, weights="random"))
        induced_calls.clear()
        assert greedy_calls(strip) == 1
        assert induced_calls == []  # on the input's rows


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
        # each of two disjoint triangles is one class of adjacent twins
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], [2, 2, 2, 5, 5, 5])
        s = solve(g)
        assert s.value == 7
        assert g.is_stable(s.nodes) and g.weight_of(s.nodes) == 7

    def test_trace_collects_certificates(self):
        s = solve(path_graph(9), collect_trace=True)
        assert s.certificates is not None
        assert s.certificates["components"] == 1
        assert s.certificates["routes"] == ("strip_pipeline",)


# These graphs hold a claw or a net, pass every check on the solve path and
# get a suboptimal answer (393, 363, 669 and 668 against optima of 406, 414,
# 672 and 671): a strip's consecutive clique pair is not
# square-semi-homogeneous.  The marker goes once the solve path guards it.
@pytest.mark.xfail(strict=True, reason="pair not square-semi-homogeneous goes unchecked")
@pytest.mark.parametrize("seed", [1516, 2265, 3068, 3648])
def test_perturbed_strip_raises_or_is_exact(seed):
    g = perturbed_strip(seed)
    try:
        value = solve(g).value
    except StructuralError:
        return
    assert value == oracle_mwss(g)[0]


# The same hole on larger graphs, checked against the frontier DP.  On
# seeds 10294, 10361, 10373, 10405 and 10535 (126-418 nodes) solve returns
# 3384, 5178, 2064, 2028 and 3523 against optima of 3393, 5212, 2081, 2031
# and 3581.  On seeds 20005, 20111, 20244, 20245, 20358, 20453, 20663, 20907
# and 21262 (118-561 nodes), the wrong answers among seeds 20,000-21,499,
# it returns 6919, 1496, 5491, 6372, 2259, 3698, 3446, 7291 and 6903
# against optima of 6983, 1497, 5514, 6402, 2284, 3699, 3457, 7297 and 6918.
@pytest.mark.xfail(strict=True, reason="pair not square-semi-homogeneous goes unchecked")
@pytest.mark.parametrize(
    "seed",
    [10294, 10361, 10373, 10405, 10535,
     20005, 20111, 20244, 20245, 20358, 20453, 20663, 20907, 21262],
)
def test_flipped_strip_raises_or_is_exact(seed):
    g = flipped_strip(seed)
    try:
        value = solve(g).value
    except StructuralError:
        return
    assert value == frontier_mwss(g, 10_000)[0]


def _outcome(g):
    """"solved", or the kind, witness and message ``solve`` raises on ``g``."""
    try:
        solve(g)
    except StructuralError as err:
        return err.kind, err.witness, err.detail
    return "solved"


# What solve does on perturbed_strip seeds 0-3,999, pinned so that a moved
# raise (such as is_regular_node's ``irregular``) keeps its kind, witness and
# message end to end.  The guard on square-semi-homogeneous pairs that
# ROADMAP item 1 asks for turns some "solved" outcomes into raises on
# purpose, and will change these counts.
PERTURBED_COUNTS = {
    "solved": 269, "claw": 2417, "wing_degree": 538, "non_clique_layer": 421,
    "partition": 176, "irregular": 102, "non_clique": 63, "wing_disconnected": 13,
    "net": 1,
}
PERTURBED_IRREGULAR = {
    14: (9, 2, 8, 13),
    109: (10, 14, 21, 2, 32, 6),
    160: (12, 8, 4, 3, 5, 22),
    230: (8, 18, 14, 10, 21, 13),
    271: (11, 10, 23, 14),
}


def test_perturbed_strip_outcomes_are_pinned():
    outcomes = [_outcome(perturbed_strip(seed)) for seed in range(4000)]
    counts = Counter(o if o == "solved" else o[0] for o in outcomes)
    assert counts == PERTURBED_COUNTS
    for seed, witness in PERTURBED_IRREGULAR.items():
        assert outcomes[seed] == ("irregular", witness, "stable node is not regular"), seed


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

    @pytest.mark.parametrize("collect", [False, True])
    def test_each_elimination_state_gets_its_own_pair_rows_only(self, monkeypatch, collect):
        # interval_transform's working set is one clique pair, with or
        # without a trace: a row for each node of K_i that sees K_i+1, its
        # neighbour set there, and not a row per node
        g = gen_strip_instance(GenSpec(seed=5, mode="strip", nodes=300))
        (detail,) = solve(g, collect_trace=True).certificates["details"]
        # g drops adjacent twins: its one component is solved on g's rows,
        # and the detail states it in g's ids
        assert detail.graph is g and detail.live is not None
        strips = detail.decomposition.strips
        pairs = []
        real = mwss.square_elimination.EliminationState

        def recording(rows, weights):
            state = real(rows, weights)
            pairs.append(({u: set(row) for u, row in rows.items()}, set(state.b)))
            return state

        monkeypatch.setattr(mwss.square_elimination, "EliminationState", recording)
        assert solve(g, collect_trace=collect).route == "strip_pipeline"
        expected = [pair for strip in strips for pair in zip(strip, strip[1:])]
        assert len(pairs) == len(expected) > 20
        for (rows, live_b), (ki, kj) in zip(pairs, expected):
            kj_set = set(kj)
            assert rows == {u: row for u in ki if (row := set(g.neighbors(u)) & kj_set)}
            assert live_b == set().union(*rows.values())

    @pytest.mark.parametrize("collect", [False, True])
    def test_interval_result_alive_in_dp_passes_only_when_collected(
        self, monkeypatch, collect
    ):
        # the DP passes read the order, the weights and N(v); the interval
        # result and the decomposition stay alive through them only for the
        # collected detail
        results = []
        transform = mwss.solver.interval_transform
        decompose = mwss.solver.decompose
        dp = mwss.solver.mwss_on_order
        alive = []

        def keeping_a_weakref(real):
            def call(*args):
                result = real(*args)
                results.append(weakref.ref(result))
                return result

            return call

        def checking(*args):
            alive.append(tuple(ref() is not None for ref in results))
            return dp(*args)

        monkeypatch.setattr(mwss.solver, "decompose", keeping_a_weakref(decompose))
        monkeypatch.setattr(mwss.solver, "interval_transform", keeping_a_weakref(transform))
        monkeypatch.setattr(mwss.solver, "mwss_on_order", checking)
        g = gen_strip_instance(GenSpec(seed=5, mode="strip", nodes=300))
        # g's one component drops adjacent twins, so it is solved on g's rows,
        # and its induced copy as it is; either detail holds the pipeline's
        # own objects
        for h in (g, induced_subgraph(g, remove_twins(g))):
            results.clear()
            alive.clear()
            s = solve(h, collect_trace=collect)
            assert s.route == "strip_pipeline" and len(results) == 2
            assert len(alive) > 1 and set(alive) == {(collect, collect)}
            if collect:
                (detail,) = s.certificates["details"]
                assert results[0]() is detail.decomposition
                assert results[1]() is detail.interval
                assert detail.interval == transform(detail.graph, detail.decomposition.strips)
            else:
                assert results[0]() is None and results[1]() is None

    def test_p7_post_transform_order(self):
        _, _, _, detail = mwss.solver.solve_component(path_graph(7), collect=True)
        assert detail.decomposition.removal == (3,)
        # strip (1 2)(0) first, then strip (4)(5)(6)
        assert detail.order.order == (2, 1, 0, 4, 5, 6)

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


@pytest.fixture
def induced_calls(monkeypatch):
    """The node sets ``solve`` passes to ``induced_subgraph``, in order."""
    calls = []
    real = mwss.solver.induced_subgraph

    def counting(g, keep):
        calls.append(tuple(keep))
        return real(g, keep)

    monkeypatch.setattr(mwss.solver, "induced_subgraph", counting)
    return calls


class TestReferenceSolve:
    """``solve`` on one live mask answers as the chain of copies it
    replaced: positive filter, reduced graph, per-component subgraph."""

    @staticmethod
    def _same(g):
        got = outcome(lambda h: solve(h, collect_trace=True), g)
        assert got == outcome(reference_solve, g)
        return got

    def test_strip_and_twin_graphs_under_pricing_weights(self):
        rng = random.Random(11)
        seen = Counter()
        for seed in range(60):
            base = gen_strip_instance(
                GenSpec(seed=4400 + seed, nodes=rng.randint(20, 300), clique_min=1,
                        clique_max=rng.randint(4, 9), density=rng.choice((0.3, 0.6, 0.9)))
            )
            twins = twin_augmented(base, rng, rng.randint(3, 25))
            for g in (base, twins):
                g = Graph(g.n, g.edges(), pricing_weights(g.n, rng))
                got = self._same(g)
                if got[0] == "error":
                    seen["error"] += 1
                else:
                    seen.update(set(got[3]))
                    seen["twins"] += got[4] > 0
        # both routes, twin steps and raised witnesses all occur
        assert seen["error"] >= 2 and seen["strip_pipeline"] >= 20, seen
        assert seen["alpha3_fallback"] >= 100 and seen["twins"] >= 100, seen

    def test_strip_4k_under_pricing_weights(self, induced_calls):
        base = gen_strip_instance(
            GenSpec(seed=5, nodes=4000, clique_min=7, clique_max=11, density=0.6)
        )
        edges = list(base.edges())
        rng = random.Random(9)
        for vector in range(3):
            induced_calls.clear()
            g = Graph(base.n, edges, pricing_weights(base.n, rng))
            got = self._same(g)
            assert got[2] == "component_merge" and got[4] > 0
            # one copy per component of two or more nodes, none of a single
            # node (its answer is itself) and none of the whole input
            comps = connected_components(g, remove_twins(g))
            assert induced_calls == [c for c in comps if len(c) > 1]
            assert len(comps) == got[5] > len(induced_calls)

    def test_connected_twin_free_input_is_not_copied(self, induced_calls):
        graphs = [nested_cliques(k, random.Random(k))[0] for k in (3, 6, 20)]
        graphs += [path_graph(9), path_graph(30, list(range(1, 31)))]
        for g in graphs:
            s = solve(g, collect_trace=True)
            assert s.certificates["twin_steps"] == 0
            assert s.certificates["components"] == 1
        assert induced_calls == []
        # a dead node makes the rest a component of its own, more than half of
        # the input: solved on the input's rows when its greedy set has four
        # nodes (P8), copied when it has fewer (P6), as are halves (two P4s)
        solve(path_graph(9, [0] + [1] * 8))
        assert induced_calls == []
        solve(path_graph(7, [0] + [1] * 6))
        assert induced_calls == [tuple(range(1, 7))]
        induced_calls.clear()
        solve(path_graph(9, [1] * 4 + [0] + [1] * 4))
        assert induced_calls == [(0, 1, 2, 3), (5, 6, 7, 8)]


def joined_twins(k, k_edges, weights):
    """The graph K on nodes 0..k-1 with edges ``k_edges``, joined to two
    non-adjacent twins k and k + 1."""
    edges = list(k_edges) + [(x, t) for x in range(k) for t in (k, k + 1)]
    return Graph(k + 2, edges, weights)


class TestNonAdjacentTwins:
    """``remove_twins`` keeps non-adjacent twins.  In a claw-free graph a
    live pair of them is either two isolated nodes or lies in a component
    of stability number at most 2, which the alpha <= 3 route solves
    exactly; so merging them would gain nothing."""

    @staticmethod
    def graphs():
        rng = random.Random(23)

        def w(n):
            return [rng.randint(1, 9) for _ in range(n)]

        yield Graph(3, [], w(3))
        yield Graph(10, [(i, i + 1) for i in range(6)], w(10))  # P7 and 3 isolated nodes
        yield joined_twins(1, [], w(3))  # P3
        yield joined_twins(2, [(0, 1)], w(4))  # diamond
        yield joined_twins(3, [(0, 1), (1, 2), (0, 2)], w(5))
        yield joined_twins(4, [(0, 1), (2, 3)], w(6))  # K = 2K2
        yield joined_twins(5, [(i, (i + 1) % 5) for i in range(5)], w(7))  # K = C5
        kept = 0
        while kept < 400:
            n = rng.randint(2, 14)
            g = random_graph(n, rng.uniform(0.2, 0.9), rng, [rng.randint(-2, 6) for _ in range(n)])
            if find_claw(g) is None and find_net(g) is None:
                kept += 1
                yield g

    def test_live_open_twins_only_in_alpha_two_components(self):
        isolated = joined = 0
        for g in self.graphs():
            live = remove_twins(g)
            s = solve(g, collect_trace=True)
            assert s.value == oracle_mwss(g)[0]
            comps = connected_components(g, live)
            route_of = {}
            for comp, route in zip(comps, s.certificates["routes"]):
                route_of.update(dict.fromkeys(comp, (comp, route)))
            classes = {}
            for v in live:
                row = tuple(u for u in g.neighbors(v) if u in route_of)
                classes.setdefault(row, []).append(v)
            for row, members in classes.items():
                if len(members) < 2:
                    continue
                for v in members:
                    comp, route = route_of[v]
                    assert route == ROUTE_ALPHA3
                    if row:
                        sub = induced_subgraph(g, comp)
                        assert oracle_mwss(Graph(sub.n, sub.edges()))[0] <= 2, (g, comp)
                    else:
                        assert comp == (v,)
                isolated += not row
                joined += bool(row)
        assert isolated >= 50 and joined >= 50, (isolated, joined)


def copied_outcome(g):
    """``solve``'s outcome, traced, with every live component solved on its
    induced copy and mapped back: (value, nodes, routes, details) or
    ("error", kind, witness, message).  Also the component that raised."""
    total, chosen, routes, details = 0, [], [], []
    for comp in connected_components(g, remove_twins(g)):
        sub = induced_subgraph(g, comp)
        try:
            value, nodes, route, detail = mwss.solver.solve_component(sub, collect=True)
        except StructuralError as err:
            witness = tuple(comp[v] for v in err.witness)
            return ("error", err.kind, witness, err.detail), comp
        total += value
        chosen.extend(comp[v] for v in nodes)
        routes.append(route)
        details.append(detail)
    return (total, tuple(sorted(chosen)), tuple(routes), details), None


def traced_outcome(g):
    """``solve``'s traced outcome in the shape of ``copied_outcome``, its
    details in component ids."""
    try:
        s = solve(g, collect_trace=True)
    except StructuralError as err:
        return "error", err.kind, err.witness, err.detail
    details = [d and component_detail(d) for d in s.certificates["details"]]
    return s.value, s.nodes, s.certificates["routes"], details


def some_non_positive(g, rng, share):
    """``g`` with weights 1..100, each node non-positive with chance ``share``."""
    weights = [
        rng.randint(-5, 0) if rng.random() < share else rng.randint(1, 100) for _ in range(g.n)
    ]
    return Graph(g.n, g.edges(), weights)


class TestDominantComponentOnRows:
    """A live component holding more than half of the input's nodes is
    solved on the input's own rows, in its ids, under the live mask; it
    answers, routes, raises and traces as its induced copy does."""

    @staticmethod
    def inputs():
        rng = random.Random(26)
        for i in range(120):
            base = gen_strip_instance(
                GenSpec(seed=2600 + i, nodes=rng.randint(20, 300), clique_min=1,
                        clique_max=rng.randint(3, 8), density=rng.choice((0.3, 0.6, 0.9)))
            )
            twins = twin_augmented(base, rng, rng.randint(2, 30), adjacent_only=i % 4 > 0)
            yield some_non_positive(twins, rng, rng.choice((0, 0.05, 0.15)))
        for seed in range(300):
            base = perturbed_strip(seed)
            twins = twin_augmented(base, rng, rng.randint(1, 8), adjacent_only=True)
            yield some_non_positive(twins, rng, 0.05)
        for i in range(30):
            base = flipped_strip(10_000 + i)
            twins = twin_augmented(base, rng, rng.randint(1, 20), adjacent_only=True)
            yield some_non_positive(twins, rng, 0.05)

    def test_same_outcome_as_the_induced_copy(self, induced_calls):
        seen = Counter()
        for g in self.inputs():
            got = traced_outcome(g)
            want, raised_in = copied_outcome(g)
            assert got == want, g
            induced_calls.clear()
            try:
                solve(g)
            except StructuralError:
                pass
            on_rows = [
                c for c in connected_components(g, remove_twins(g))
                if g.n > len(c) and tuple(c) not in induced_calls
            ]
            if raised_in is None:
                seen["solved"] += 1
                seen["solved_on_rows"] += bool(on_rows)
            elif tuple(raised_in) in on_rows:
                seen[want[1]] += 1
        # the input's rows carry solved components and raises of several kinds
        assert seen["solved"] >= 100 and seen["solved_on_rows"] >= 60, seen
        assert seen["claw"] >= 100 and len(seen) >= 8, seen

    def test_strip_4k_is_not_copied_and_twin_pass_is_not_the_peak(self, induced_calls):
        g = gen_strip_instance(GenSpec(seed=3, nodes=4000))
        live = remove_twins(g)
        assert len(live) == 3255 and len(connected_components(g, live)) == 1
        solve(g)  # warms the interpreter's caches before memory is traced
        assert induced_calls == []

        def peak(fn):
            # a full collection empties the interpreter's free lists, so the
            # same allocations are traced whatever ran in this process before
            gc.collect()
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the twin pass keys nodes in an array, with no Counter or dict over
        # all of them: the strip route, not the preprocessing, sets the peak
        assert peak(lambda: remove_twins(g)) <= 0.6 * peak(lambda: solve(g))
        # 70% of the nodes non-positive: every component is at most half of
        # the input and is copied, once, unless it is a single node
        h = Graph(g.n, g.edges(), pricing_weights(g.n, random.Random(3)))
        induced_calls.clear()
        assert solve(h).route == "component_merge"
        comps = connected_components(h, remove_twins(h))
        assert induced_calls == [c for c in comps if len(c) > 1]
        assert len(comps) > 100 and len(induced_calls) < len(comps)

    def test_traced_detail_holds_the_input_and_its_mask(self, induced_calls):
        g = gen_strip_instance(GenSpec(seed=3, nodes=4000))
        s = solve(g, collect_trace=True)
        assert induced_calls == []  # the detail holds the input's rows, no copy
        (comp,) = connected_components(g, remove_twins(g))
        (detail,) = s.certificates["details"]
        assert detail.graph is g
        assert tuple(itertools.compress(range(g.n), detail.live)) == tuple(comp)
        # restated in the component's ids, it is the detail of the copy
        _, _, _, copied = mwss.solver.solve_component(induced_subgraph(g, comp), collect=True)
        restated = component_detail(detail)
        for field in dataclasses.fields(copied):
            name = field.name
            assert getattr(restated, name) == getattr(copied, name), name


class TestWitnessIds:
    """``solve`` reports witnesses in the caller's ids, though it solves
    renumbered components induced from the live nodes."""

    def test_claw_named_in_input_ids(self):
        # node 0 is isolated, so the claw's component is renumbered
        g = Graph(7, [(1, 2), (1, 3), (3, 4), (3, 5), (5, 6)], (3, 3, 1, 5, 1, 1, 4))
        with pytest.raises(StructuralError) as err:
            solve(g)
        assert (err.value.kind, err.value.witness) == ("claw", (3, 1, 4, 5))
        assert validate_witness(g, PatternWitness("claw", err.value.witness))
        assert str(err.value).endswith("; witness=(3, 1, 4, 5)")

    @pytest.mark.parametrize("nonpositive", [False, True])
    def test_every_pattern_witness_is_valid_in_input_ids(self, nonpositive):
        # G(n, 0.35) with node 0 isolated; with ``nonpositive`` about one
        # weight in five is dropped by the positive filter as well
        rng = random.Random(7)
        raised = 0
        for _ in range(1500):
            n = rng.randint(6, 12)
            edges = [(u, v) for u in range(1, n) for v in range(u + 1, n) if rng.random() < 0.35]
            weights = [rng.randint(1, 5) for _ in range(n)]
            if nonpositive:
                weights = [w if rng.random() < 0.8 else rng.randint(-2, 0) for w in weights]
            g = Graph(n, edges, weights)
            try:
                solve(g)
            except StructuralError as err:
                if err.kind in ("claw", "net"):
                    raised += 1
                    assert validate_witness(g, PatternWitness(err.kind, err.witness)), err
        assert raised >= 300
