"""Consistent ordering of square-free strips and the linear stable set DP.

In a claw-free square-free clique-strip, neighborhoods across consecutive
cliques are nested, so ordering nodes by clique and, within a clique, by
how far they reach into the next one yields a consistent ordering: any
neighbor earlier in the order drags everything between into the
neighborhood too.  Earlier neighbors of a node therefore occupy a
contiguous suffix of positions, which makes the weighted stable set DP a
single left-to-right pass, with node exclusions handled for free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphInputError, StructuralError


@dataclass(frozen=True)
class ConsistentOrder:
    """Node order, inverse positions, and per-node prefix pointers.

    ``pos[v]`` is the position of node v; it is a list indexed by node
    id, and reads -1 for ids outside the order.  ``prefix[k]`` is the
    last position whose node may be combined with the node at position k:
    one less than the position of its earliest earlier neighbor, or k-1
    when it has none.
    """

    order: tuple[int, ...]
    pos: list
    prefix: tuple[int, ...]


def consistent_order(adj: dict, cliques) -> ConsistentOrder:
    """Order the nodes of ``adj`` by clique, then by reach into the next clique.

    ``adj`` maps each node to its neighbor set, or at least to its
    neighbors in the cliques before and after its own, as
    ``interval_transform`` keeps them; ``cliques`` must partition its
    nodes.  Cliques of several strips may follow each other: strips do
    not touch, so at a strip boundary every reach is empty and no prefix
    pointer crosses it.  Verifies the nesting that square-freeness
    promises; a violation is reported as the induced square it implies.

    Nested reaches make the neighbors of a node in the previous clique a
    suffix of that clique's order, so its earliest earlier neighbor is
    found by counting them: it sits that many places before the node's
    own clique starts.
    """
    cliques = [tuple(k) for k in cliques]
    members = [v for k in cliques for v in k]
    if len(members) != len(adj) or set(members) != adj.keys():
        raise GraphInputError("cliques do not partition the strip graph")
    order: list[int] = []
    prefix: list[int] = []
    before: tuple[int, ...] = ()  # the previous clique
    for t, clique in enumerate(cliques):
        nxt = set(cliques[t + 1]) if t + 1 < len(cliques) else set()
        reach = [nxt.intersection(adj[v]) for v in clique]
        ranked = sorted(zip(map(len, reach), clique, reach))
        for (_, prev, reach_prev), (_, cur, reach_cur) in zip(ranked, ranked[1:]):
            if not reach_prev <= reach_cur:
                b1 = min(reach_prev - reach_cur)
                b2 = min(reach_cur - reach_prev)
                raise StructuralError(
                    "nesting",
                    (prev, b1, b2, cur),
                    "cross-neighborhoods not nested (square present)",
                )
        start = len(order)
        for _, v, _ in ranked:
            order.append(v)
            prefix.append(start - len(adj[v].intersection(before)) - 1)
        before = clique
    pos = [-1] * (max(members, default=-1) + 1)
    for k, v in enumerate(order):
        pos[v] = k
    return ConsistentOrder(tuple(order), pos, tuple(prefix))


def mwss_on_order(
    co: ConsistentOrder, weights, excluded=frozenset()
) -> tuple[int, tuple[int, ...]]:
    """Maximum weight stable set along a consistent order, minus ``excluded``.

    One pass: taking the node at position k forbids exactly the positions
    after ``prefix[k]``, so the recurrence is best[k] = max(best[k-1],
    w + best[prefix[k]]).  Excluded positions carry the running best
    forward, which is how every G - N[v] subproblem reuses the one
    precomputed order.  Ties prefer not taking the node.
    """
    order = co.order
    prefix = co.prefix
    n = len(order)
    best = [0] * (n + 1)  # best[k+1] is the optimum over positions 0..k
    take = bytearray(n)
    for k in range(n):
        v = order[k]
        skip = best[k]
        if v in excluded:
            best[k + 1] = skip
            continue
        value = weights[v] + best[prefix[k] + 1]
        if value > skip:
            best[k + 1] = value
            take[k] = 1
        else:
            best[k + 1] = skip
    chosen = []
    k = n - 1
    while k >= 0:
        if take[k]:
            chosen.append(order[k])
            k = prefix[k]
        else:
            k -= 1
    return best[n], tuple(sorted(chosen))
