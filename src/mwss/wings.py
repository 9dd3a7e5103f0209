"""Wings and the wing graph.

With respect to a maximal stable set, every bound node sees exactly two
stable nodes and lands in the wing of that pair.  A free node joins the
wing of (its stable neighbor, t) when it has a free neighbor anchored at
t; a free node with no dissimilar free neighbor belongs to no wing.  A
free node reaching two different wings certifies a claw or a net.
"""

from __future__ import annotations

from .errors import GraphInputError, StructuralError
from .graph import Graph


def build_wing_table(g: Graph, stable: tuple[int, ...]) -> dict:
    """W(s, t) for every non-empty wing of the canonical stable set
    ``stable`` (ascending): a dict from ``(s, t)``, s < t, to the
    ascending tuple of its bound nodes and free nodes with a partner.

    One walk over the stable nodes' rows, in ascending order, gives every
    other node its one or two stable neighbors, lower id first.  A free
    node's partners are the anchors of its free neighbors other than its
    own; two or more of them raise a claw or net, found by a scan of its
    row in order.
    """
    nbrs = g._nbrs
    first = [-1] * g.n  # lowest stable neighbor of each non-stable node
    second = [-1] * g.n  # the other one of a bound node
    for s in stable:
        for u in nbrs[s]:
            if first[u] < 0:
                first[u] = s
            else:
                second[u] = s
    anchor = [a if b < 0 else -1 for a, b in zip(first, second)]  # free nodes only
    wings: dict[tuple[int, int], list[int]] = {}
    for u, (s, t) in enumerate(zip(first, second)):
        if s < 0:
            continue  # a stable node
        if t < 0:
            partners = set(map(anchor.__getitem__, nbrs[u]))
            partners.discard(-1)
            partners.discard(s)
            if not partners:
                continue
            if len(partners) > 1:
                _raise_two_wings(g, anchor, u)
            (t,) = partners
        key = (s, t) if s < t else (t, s)
        if key in wings:
            wings[key].append(u)
        else:
            wings[key] = [u]
    return {key: tuple(members) for key, members in wings.items()}


def _raise_two_wings(g: Graph, anchor: list, u: int):
    """The claw or net at a free node ``u`` whose free neighbors carry two
    anchors other than its own, from the first two in row order."""
    s = anchor[u]
    partner = witness_nbr = None
    for v in g.neighbors(u):
        t = anchor[v]
        if t < 0 or t == s:
            continue
        if partner is None:
            partner, witness_nbr = t, v
        elif t != partner:
            if g.has_edge(witness_nbr, v):
                raise StructuralError(
                    "net", (u, witness_nbr, v, s, partner, t), "free node in two wings"
                )
            raise StructuralError(
                "claw", (u, s, witness_nbr, v), "free node in two wings"
            )


def build_wing_graph(wings: dict, stable: tuple[int, ...]) -> tuple[int, ...]:
    """The wing graph H(S, T) on the ascending stable nodes ``stable``, one
    edge per key of the ``build_wing_table`` dict ``wings``, as the tuple of
    its nodes in walk order.

    Past ``wing_degree`` every component is a path or a cycle, so one walk
    from the lowest end (or ``stable[0]``) covers all of ``stable`` exactly
    when the graph is connected; else ``wing_disconnected`` names the
    nodes outside ``stable[0]``'s component.  The orientation is fixed: a
    path starts at its lower-id end, a cycle at its lowest node and moves
    toward that node's lower-id neighbor.  With four or more stable nodes
    the two ends of a path are never adjacent, so the graph is a cycle
    exactly when the first and last nodes of the order share a wing."""
    if len(stable) < 4:
        raise GraphInputError("wing graph needs a stable set of size at least 4")
    nbrs: dict[int, list[int]] = {s: [] for s in stable}
    for s, t in wings:
        nbrs[s].append(t)
        nbrs[t].append(s)
    for s in stable:
        if len(nbrs[s]) > 2:
            raise StructuralError(
                "wing_degree",
                (s, *sorted(nbrs[s])),
                "stable node defines more than two wings",
            )
    ends = [s for s in stable if len(nbrs[s]) == 1]
    start = ends[0] if ends else stable[0]
    order, prev, cur = [start], start, min(nbrs[start], default=start)
    while cur != start:
        order.append(cur)
        # on to the neighbor not just left; an end leads back to start
        step = [v for v in nbrs[cur] if v != prev]
        prev, cur = cur, step[0] if step else start
    if len(order) != len(stable):
        reached, stack = {stable[0]}, [stable[0]]
        while stack:
            for v in nbrs[stack.pop()]:
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
        raise StructuralError(
            "wing_disconnected",
            tuple(s for s in stable if s not in reached),
            "wing graph is disconnected",
        )
    return tuple(order)
