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
from itertools import accumulate, chain, repeat
from operator import sub

from .errors import StructuralError


@dataclass(frozen=True)
class ConsistentOrder:
    """Node order and per-node prefix pointers.

    ``prefix[k]`` is the last position whose node may be combined with
    the node at position k: one less than the position of its earliest
    earlier neighbor, or k-1 when it has none.
    """

    order: tuple[int, ...]
    prefix: tuple[int, ...]


def consistent_order(before, after, cliques) -> ConsistentOrder:
    """Order the nodes of ``cliques`` by clique, then by reach into the next clique.

    ``before`` and ``after`` hold each node's neighbors in the clique
    before and after its own, as sorted tuples indexed by node id, as
    ``interval_transform`` keeps them (``IntervalResult``).  Precondition,
    not checked: ``cliques``, a sequence of node sequences, holds each
    node with a non-empty row exactly once and no other id.
    ``interval_transform``'s output meets it whenever that function's own
    precondition holds (``mwss.checks.strip_partition_violation`` checks
    the latter off the solve path).  Cliques of several strips may follow
    each other: strips do not touch, so at a strip boundary every reach is
    empty and no prefix pointer crosses it.  Verifies the nesting that
    square-freeness promises; a violation is reported as the induced
    square it implies.

    A node's reach is its ``after`` row.  Nested reaches make its
    ``before`` row a suffix of the previous clique's order, so its
    earliest earlier neighbor sits ``len(before[v])`` places before its
    own clique starts.  No row is intersected with a clique.  Nothing
    whole-strip is held longer than it is read: the ranked cliques, read
    once into the order tuple, are dropped before the prefix pointers are
    built.
    """
    ranked = [sorted(clique, key=lambda v: (len(after[v]), v)) for clique in cliques]
    for clique in ranked:
        for prev, cur in zip(clique, clique[1:]):
            reach_prev, reach_cur = after[prev], after[cur]
            if reach_prev != reach_cur and not set(reach_cur).issuperset(reach_prev):
                b1 = min(set(reach_prev).difference(reach_cur))
                b2 = min(set(reach_cur).difference(reach_prev))
                raise StructuralError(
                    "nesting",
                    (prev, b1, b2, cur),
                    "cross-neighborhoods not nested (square present)",
                )
    order = tuple(chain.from_iterable(ranked))
    del ranked
    sizes = [len(clique) for clique in cliques]
    # prefix[k] = (start of its clique - 1) - len(before[order[k]])
    ends = chain.from_iterable(map(repeat, accumulate(sizes, initial=-1), sizes))
    prefix = tuple(map(sub, ends, map(len, map(before.__getitem__, order))))
    return ConsistentOrder(order, prefix)


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
