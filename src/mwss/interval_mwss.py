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

    ``pos`` maps each node to its position.  ``prefix[k]`` is the last
    position whose node may be combined with the node at position k: one
    less than the position of its earliest earlier neighbor, or k-1 when
    it has none.
    """

    order: tuple[int, ...]
    pos: dict
    prefix: tuple[int, ...]


def consistent_order(adj: dict, cliques) -> ConsistentOrder:
    """Order the nodes of ``adj`` by clique, then by reach into the next clique.

    ``adj`` maps each node to its neighbor set; ``cliques`` must partition
    its nodes.  Cliques of several strips may follow each other: strips
    do not touch, so at a strip boundary every reach is empty and no
    prefix pointer crosses it.  Verifies the nesting that square-freeness
    promises; a violation is reported as the induced square it implies.
    """
    cliques = [tuple(k) for k in cliques]
    members = [v for k in cliques for v in k]
    if len(members) != len(adj) or set(members) != adj.keys():
        raise GraphInputError("cliques do not partition the strip graph")
    order: list[int] = []
    for t, clique in enumerate(cliques):
        nxt = set(cliques[t + 1]) if t + 1 < len(cliques) else set()
        ranked = sorted(clique, key=lambda v: (len(adj[v] & nxt), v))
        for prev, cur in zip(ranked, ranked[1:]):
            reach_prev = adj[prev] & nxt
            reach_cur = adj[cur] & nxt
            if not reach_prev <= reach_cur:
                b1 = min(reach_prev - reach_cur)
                b2 = min(reach_cur - reach_prev)
                raise StructuralError(
                    "nesting",
                    (prev, b1, b2, cur),
                    "cross-neighborhoods not nested (square present)",
                )
        order.extend(ranked)
    pos = {v: k for k, v in enumerate(order)}
    at = pos.__getitem__
    prefix = tuple(
        min(k, min(map(at, adj[v]), default=k)) - 1 for k, v in enumerate(order)
    )
    return ConsistentOrder(tuple(order), pos, prefix)


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
