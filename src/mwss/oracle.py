"""Exact brute-force MWSS oracle for ground truth at desk scale.

A branch-and-bound with greedy clique-cover bounds, fast up to n around
64.  Its trust anchor, a plain subset-enumeration dynamic program
(n <= 20), lives in ``tests/helpers.py`` as ``mwss_enumerate``; tests
require the two to agree.
"""

from __future__ import annotations

from .errors import OracleSizeError
from .graph import Graph
from .patterns import row_sets

DEFAULT_ORACLE_LIMIT = 64


def oracle_mwss(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> tuple[int, tuple[int, ...]]:
    """Exact maximum weight stable set by branch and bound.

    Branches on a maximum-degree node of the live subgraph; prunes with a
    greedy clique-cover upper bound.  Node weights <= 0 never help, so
    those nodes are pruned up front (the empty set always scores 0).
    """
    if g.n > limit:
        raise OracleSizeError(
            f"oracle guard: n={g.n} exceeds limit {limit}; raise the limit explicitly"
        )
    weights = g.weights
    live = frozenset(v for v in range(g.n) if weights[v] > 0)
    best_value = 0
    best_set: tuple[int, ...] = ()

    adj = row_sets(g)

    def cover_bound(nodes: frozenset) -> int:
        # Greedy clique cover; the max weight per clique bounds any stable set.
        order = sorted(nodes, key=lambda v: (-weights[v], v))
        cliques: list[tuple[set, int]] = []
        bound = 0
        for v in order:
            av = adj[v]
            for members, _w in cliques:
                if members <= av:
                    members.add(v)
                    break
            else:
                cliques.append(({v}, weights[v]))
                bound += weights[v]
        return bound

    def explore(nodes: frozenset, acc_value: int, acc_set: tuple[int, ...]):
        nonlocal best_value, best_set
        while True:
            if not nodes:
                if acc_value > best_value:
                    best_value, best_set = acc_value, tuple(sorted(acc_set))
                return
            if acc_value + cover_bound(nodes) <= best_value:
                return
            # Take all isolated nodes of the live subgraph immediately.
            isolated = [v for v in nodes if not (adj[v] & nodes)]
            if isolated:
                acc_value += sum(weights[v] for v in isolated)
                acc_set = acc_set + tuple(isolated)
                nodes = nodes - frozenset(isolated)
                continue
            break
        v = max(nodes, key=lambda u: (len(adj[u] & nodes), -u))
        explore(nodes - adj[v] - {v}, acc_value + weights[v], acc_set + (v,))
        explore(nodes - {v}, acc_value, acc_set)

    explore(live, 0, ())
    return best_value, best_set

