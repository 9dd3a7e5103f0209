"""Each reference check in ``mwss.checks`` names its violation on an input
built to have it; elsewhere the suite only sees them return None."""

from dataclasses import replace

from mwss import Graph, consistent_order, interval_transform, solve
from mwss.checks import (
    CanonicalState,
    canonical_violation,
    interval_violation,
    semi_homog_pair_certificate,
    strip_violation,
)
from mwss.interval_mwss import ConsistentOrder

from helpers import path_graph, perturbed_strip


class TestCanonicalViolation:
    def test_augmenting_p3(self):
        # S = {1} on the path 0-1-2: both ends are free and non-adjacent
        st = CanonicalState(path_graph(3), [1])
        assert canonical_violation(st) == ("augmenting_p3", (1, 0, 2))

    def test_dominating_free(self):
        # S = {0, 3} on the path 0-1-2-3: N[1] = {0, 1, 2} contains N[0]
        st = CanonicalState(path_graph(4), [0, 3])
        assert canonical_violation(st) == ("dominating_free", (0, 1))

    def test_steps_above_budget(self):
        st = CanonicalState(path_graph(3), [0, 2])
        budget = 50 * (3 + 2)
        assert canonical_violation(st) is None
        assert canonical_violation(st, budget) is None
        assert canonical_violation(st, budget + 1) == ("steps", (budget + 1,))


def perturbed_1516_detail():
    """The one pipeline detail of ``perturbed_strip(1516)``: a claw-containing
    graph whose first strip pair is not square-semi-homogeneous."""
    details = solve(perturbed_strip(1516), collect_trace=True).certificates["details"]
    (detail,) = filter(None, details)
    return detail


def test_strip_violation_names_square_and_breaker():
    detail = perturbed_1516_detail()
    assert strip_violation(detail.graph, detail.decomposition) == (
        "not_square_semi_homogeneous", (10, 5, 17, 11, 4),
    )


class TestIntervalViolation:
    def test_claw_when_a_diagonal_is_dropped(self):
        detail = perturbed_1516_detail()
        interval = detail.interval
        assert interval.added_edges == ((5, 11), (11, 21), (10, 17))
        assert interval_violation(detail.graph, interval, detail.order) is None
        dropped = replace(interval, added_edges=interval.added_edges[1:])
        assert interval_violation(detail.graph, dropped, detail.order) == ("claw", (17, 5, 9, 11))

    def test_square_when_no_diagonal_is_added(self):
        # a 4-cycle split into cliques {0, 1} and {2, 3}
        g = Graph(4, [(0, 1), (2, 3), (0, 3), (1, 2)])
        res = interval_transform(g, [[(0, 1), (2, 3)]])
        co = consistent_order(res.before_len, res.after_len, res.cliques)
        assert res.added_edges == ((0, 2),)
        assert interval_violation(g, res, co) is None
        bare = replace(res, added_edges=())
        assert interval_violation(g, bare, co) == ("square", (0, 3, 2, 1))

    def test_inconsistent_order(self):
        # on the path 0-1-2, node 2 sits between 1 and its neighbour 0
        g = path_graph(3)
        res = interval_transform(g, [[(0,), (1,), (2,)]])
        co = consistent_order(res.before_len, res.after_len, res.cliques)
        assert interval_violation(g, res, co) is None
        shuffled = ConsistentOrder((1, 2, 0), co.prefix)
        assert interval_violation(g, res, shuffled) == ("inconsistent", (1, 2, 0))


def test_semi_homog_pair_certificate_names_a_non_diagonal():
    # 0 and 1 share no neighbour, so (0, 1) is no square's diagonal
    adj = {0: set(), 1: set()}
    assert semi_homog_pair_certificate(adj, 0, {1}, adj) == ("not_a_diagonal", 0, 1)
