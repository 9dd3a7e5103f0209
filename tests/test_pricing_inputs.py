"""``solve`` on pricing-shaped inputs: one graph under weight vectors that
make most nodes non-positive, which leaves many small components, some of
one node, and many adjacent twins."""

import random
from collections import Counter
from itertools import compress

from mwss import GenSpec, Graph, StructuralError, gen_strip_instance, solve
from mwss.graph import connected_components
from mwss.solver import ROUTE_ALPHA3, ROUTE_PIPELINE

from helpers import (
    pricing_weights,
    random_graph,
    reference_components,
    reference_solve,
    twin_augmented,
)


def outcome(solver, g):
    """The answer and counters of ``solver`` on ``g``, or the error it raises."""
    try:
        s = solver(g)
    except StructuralError as err:
        return "error", err.kind, err.witness
    certs = s.certificates
    return s.value, s.nodes, s.route, certs["routes"], certs["components"], certs["twin_steps"]


def positive(g):
    return [v for v in range(g.n) if g.weights[v] > 0]


def pricing_inputs():
    """Strips of 300 to 800 nodes, plain and with twins added, each under a
    weight vector with about 70% of its entries non-positive."""
    rng = random.Random(33)
    for seed in range(6):
        base = gen_strip_instance(
            GenSpec(seed=3300 + seed, nodes=rng.randint(300, 800), clique_min=2,
                    clique_max=rng.randint(5, 10), density=rng.choice((0.3, 0.6, 0.9)))
        )
        twins = twin_augmented(base, rng, rng.randint(20, 60), adjacent_only=seed % 2 == 0)
        for h in (base, twins):
            yield Graph(h.n, h.edges(), pricing_weights(h.n, rng))


def test_pricing_shaped_inputs_match_the_set_based_reference():
    seen = Counter()
    for g in pricing_inputs():
        got = outcome(lambda h: solve(h, collect_trace=True), g)
        assert got == outcome(reference_solve, g), g
        if got[0] == "error":
            seen["error"] += 1
            continue
        seen["one_node"] += sum(len(c) == 1 for c in reference_components(g, positive(g)))
        seen["twins"] += got[5] > 0
        seen.update(got[3])
    # single nodes, twin drops and both routes all occur
    assert seen["one_node"] >= 50 and seen["twins"] >= 8, seen
    assert seen[ROUTE_PIPELINE] >= 20 and seen[ROUTE_ALPHA3] >= 100, seen


def test_component_order_is_by_lowest_live_id():
    # node 0 is an adjacent twin of node 6, lighter, so it is dropped: the
    # P7 on 6..12 has the lowest positive id, 0, but the isolated node 3
    # has the lower live id, so its answer comes first
    edges = [(i, i + 1) for i in range(6, 12)] + [(0, 6), (0, 7)]
    weights = [1, 0, 0, 5, 0, 0, 2] + [1] * 6
    g = Graph(13, edges, weights)
    certs = solve(g, collect_trace=True).certificates
    assert certs["routes"] == (ROUTE_ALPHA3, ROUTE_PIPELINE)
    assert certs["details"][0] is None and certs["details"][1] is not None
    assert (certs["components"], certs["twin_steps"]) == (2, 1)
    assert outcome(lambda h: solve(h, collect_trace=True), g) == outcome(reference_solve, g)


def test_component_search_on_dense_rows():
    kinds = Counter()
    for seed in range(12):
        rng = random.Random(seed)
        g = gen_strip_instance(GenSpec(seed=700 + seed, mode="nested", nodes=rng.randint(6, 90)))
        # all positive, then some non-positive weights: whole and cut rows
        h = Graph(g.n, g.edges(), [rng.randint(-2, 4) for _ in range(g.n)])
        for k in (g, h):
            comps = connected_components(k, positive(k))
            assert comps == reference_components(k, positive(k))
            kinds[len(comps) == 1] += 1
    assert kinds[True] >= 12 and sum(kinds.values()) == 24, kinds


def test_component_search_on_sparse_sign_mixed_rows():
    rng = random.Random(41)
    count = 0
    for _ in range(150):
        n = rng.randint(1, 40)
        g = random_graph(n, rng.uniform(0.02, 0.3), rng, [rng.randint(-2, 4) for _ in range(n)])
        live = list(compress(range(g.n), [w > 0 for w in g.weights]))
        comps = connected_components(g, live)
        assert comps == reference_components(g, live)
        count += len(comps)
    assert count >= 500
