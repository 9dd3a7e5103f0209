import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwss import (
    GenSpec,
    Graph,
    GraphInputError,
    PatternWitness,
    find_claw,
    find_net,
    find_square_in,
    gen_strip_instance,
    validate_witness,
)
from mwss.patterns import semi_homogeneous_violation, square_semi_homogeneous_check

from helpers import complete_graph, path_graph, random_graph, reference_find_net


S3MINUS_EDGES = ((0, 3), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5))


def s3minus():
    return Graph(6, list(S3MINUS_EDGES))


def brute_has_claw(g):
    for four in combinations(range(g.n), 4):
        for c in four:
            x, y, z = (v for v in four if v != c)
            if (
                g.has_edge(c, x) and g.has_edge(c, y) and g.has_edge(c, z)
                and not g.has_edge(x, y) and not g.has_edge(x, z)
                and not g.has_edge(y, z)
            ):
                return True
    return False


def brute_has_net(g):
    for six in combinations(range(g.n), 6):
        for perm in permutations(six):
            if validate_witness(g, PatternWitness("net", perm)):
                return True
    return False


class TestClaw:
    def test_star_is_claw(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        w = find_claw(g)
        assert w == PatternWitness("claw", (0, 1, 2, 3))
        assert validate_witness(g, w)

    def test_triangle_clean(self):
        assert find_claw(complete_graph(3)) is None

    def test_s3minus_clean_vs_exhaustive(self):
        g = s3minus()
        assert find_claw(g) is None
        assert not brute_has_claw(g)


class TestNet:
    def test_net_graph_found(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
        w = find_net(g)
        assert w == PatternWitness("net", (0, 1, 2, 3, 4, 5))
        assert validate_witness(g, w)

    def test_p6_clean(self):
        assert find_net(path_graph(6)) is None

    def test_s3minus_clean_vs_exhaustive(self):
        g = s3minus()
        assert find_net(g) is None
        assert not brute_has_net(g)


class TestSquareIn:
    def test_minimal_cross_square(self):
        # cliques {0,1} and {2,3}; crossings 0-3 and 1-2 only
        g = Graph(4, [(0, 1), (2, 3), (0, 3), (1, 2)])
        w = find_square_in(g, (0, 1), (2, 3))
        assert w is not None and validate_witness(g, w)
        assert set(w.nodes) == {0, 1, 2, 3}

    def test_universal_join_has_no_square(self):
        g = Graph(4, [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert find_square_in(g, (0, 1), (2, 3)) is None

    def test_nested_neighborhoods_have_no_square(self):
        # 0 reaches {3,4}, 1 reaches {3}: nested, no square
        g = Graph(5, [(0, 1), (3, 4), (0, 3), (0, 4), (1, 3)])
        assert find_square_in(g, (0, 1), (3, 4)) is None

    def test_non_clique_input_rejected(self):
        g = path_graph(4)
        with pytest.raises(GraphInputError):
            find_square_in(g, (0, 2), (1, 3))


def two_triangle_example(with_violator=True, extra=None):
    """Two triangles with a partial join; optionally the node v seeing b1, c1.

    ids: a1=0 b1=1 c1=2, a2=3 b2=4 c2=5, v=6, extra z=7.
    """
    edges = [
        (0, 1), (0, 2), (1, 2),
        (3, 4), (3, 5), (4, 5),
        (0, 4), (0, 5), (1, 4), (2, 5),
    ]
    n = 6
    if with_violator:
        n = 7
        edges += [(6, 1), (6, 2)]
    if extra:
        n = 8
        edges += extra
    return Graph(n, edges)


class TestSemiHomogeneous:
    def test_singletons_with_common_neighbor_ok(self):
        g = Graph(3, [(2, 0), (2, 1)])
        assert semi_homogeneous_violation(g, (0,), (1,)) is None

    def test_partial_attachment_violates(self):
        # u=3 adjacent to one of clique {0,1}, null to {2}
        g = Graph(4, [(0, 1), (3, 0)])
        assert semi_homogeneous_violation(g, (0, 1), (2,)) == 3

    def test_two_triangle_example_not_semi_homogeneous(self):
        g = two_triangle_example()
        assert semi_homogeneous_violation(g, (0, 1, 2), (3, 4, 5)) == 6

    def test_two_triangle_example_square_semi_homogeneous(self):
        g = two_triangle_example()
        assert square_semi_homogeneous_check(g, (0, 1, 2), (3, 4, 5)) is None

    def test_no_square_is_vacuously_ok(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert square_semi_homogeneous_check(g, (0, 1), (2, 3)) is None

    def test_one_sided_attachment_to_square_caught(self):
        # z=7 adjacent to exactly one node of each side of the square (1,4,5,2)
        g = two_triangle_example(extra=[(7, 1), (7, 4)])
        bad = square_semi_homogeneous_check(g, (0, 1, 2), (3, 4, 5))
        assert bad is not None
        square, violator = bad
        assert violator == 7
        assert validate_witness(g, square)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(4, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    return Graph(n, edges)


@given(random_graphs())
@settings(max_examples=120, deadline=None)
def test_detector_witnesses_validate_and_match_brute(g):
    claw = find_claw(g)
    if claw is not None:
        assert validate_witness(g, claw)
    assert (claw is not None) == brute_has_claw(g)
    net = find_net(g)
    if net is not None:
        assert validate_witness(g, net)


@given(random_graphs())
@settings(max_examples=40, deadline=None)
def test_net_detector_matches_brute_on_small(g):
    if g.n <= 7:
        assert (find_net(g) is not None) == brute_has_net(g)


def test_net_witness_matches_reference():
    # the first net in the same triangle and pendant order, found or not
    rng = random.Random(83)
    graphs = [
        random_graph(rng.randint(6, 30), rng.choice((0.1, 0.2, 0.3, 0.5, 0.7, 0.9)), rng)
        for _ in range(400)
    ]
    graphs += [
        gen_strip_instance(GenSpec(seed=seed, nodes=40 + 20 * seed, clique_min=2,
                                   clique_max=6, density=0.6))
        for seed in range(5)
    ]
    found = 0
    for g in graphs:
        witness = find_net(g)
        assert witness == reference_find_net(g)
        found += witness is not None
    assert found > 100
