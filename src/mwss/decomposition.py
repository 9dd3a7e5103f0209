"""Bisimplicial clique selection and clique-strip construction.

Given a canonical stable set of size at least four, the wing graph is a
path or cycle s1...st, and each wing is the tuple of its members.  A
maximal clique anchored at s2 or s3 (chosen by which of four wing-cover
intersections is empty) is bisimplicial: its neighborhood splits into
cliques X and Y.  Removing X leaves at most two clique-strips, each a
tuple of cliques (sorted tuples of node ids), built here as BFS layers
away from X and Y in G - Q, or as (Q, Y, V - N[Q]) in the dominating
case.  The strips partition V - X and touch only between consecutive
cliques by construction (see ``build_strips``), which is the precondition
of ``interval_transform``; ``mwss.checks.strip_partition_violation``
checks it off the solve path.  Every stage here that reads ``g`` takes
an optional ``live`` mask and then works on the marked component of
``g``, in ``g``'s ids (see ``graph.live_nodes``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphInputError, StructuralError
from .graph import (
    Graph,
    _extend_clique,
    closed_neighborhood,
    is_regular_node,
    live_nodes,
    neighborhood,
)
from .wings import build_wing_graph, build_wing_table


@dataclass(frozen=True)
class Anchor:
    case: str  # "a" | "b"
    position: int  # index into the wing order


@dataclass(frozen=True)
class Decomposition:
    """Q, the cliques X and Y splitting N(Q), and the one or two strips
    covering V - X, each strip a tuple of cliques in which only
    consecutive cliques touch."""

    core: tuple[int, ...]  # the bisimplicial clique
    removal: tuple[int, ...]  # X, deleted before the strip solve
    companion: tuple[int, ...]  # Y, the other side of N(core)
    kind: str  # "dominating" | "strongly_bisimplicial"
    anchor: Anchor
    strips: tuple[tuple[tuple[int, ...], ...], ...]
    wing_order: tuple[int, ...]


def select_q(
    g: Graph, order: tuple[int, ...], wings: dict, live=None
) -> tuple[tuple[int, ...], Anchor]:
    """Pick the bisimplicial clique and the anchor case it certifies.

    ``wings`` is the ``build_wing_table`` dict and ``order`` the wing-graph
    walk ``build_wing_graph`` builds from it.  The four sets A, A', B, B'
    intersect the wing of (s1, s2) with the clique cover of s2 and the
    wing of (s3, s4) with the cover of s3, the two cliques
    ``is_regular_node`` returns (it raises ``irregular`` for a stable node
    that has none).  The first empty one fixes the clique directly; when
    all four are non-empty, the wing between s2 and s3 restricted to
    N(s2) is itself a clique and is grown to a maximal one.  Each step of
    ``order`` follows a wing-graph edge, a key of ``wings``, so the three
    wings read here exist.
    """
    s1, s2, s3, s4 = order[0], order[1], order[2], order[3]
    cov2 = is_regular_node(g, s2, live)
    cov3 = is_regular_node(g, s3, live)
    m12 = set(wings[(s1, s2) if s1 < s2 else (s2, s1)])
    m34 = set(wings[(s3, s4) if s3 < s4 else (s4, s3)])
    if m12.isdisjoint(cov2[0]):
        return cov2[1], Anchor("a", 1)
    if m12.isdisjoint(cov2[1]):
        return cov2[0], Anchor("a", 1)
    if m34.isdisjoint(cov3[0]):
        return cov3[1], Anchor("b", 2)
    if m34.isdisjoint(cov3[1]):
        return cov3[0], Anchor("b", 2)
    w23 = wings[(s2, s3) if s2 < s3 else (s3, s2)]
    core = [s2] + sorted(set(w23).intersection(g.neighbors(s2)))
    bad = g.non_edge(core)
    if bad is not None:
        raise StructuralError(
            "non_clique", bad, "wing restriction to N(s2) is not a clique"
        )
    candidates = g.neighbors(s2)
    if live is not None:
        candidates = filter(live.__getitem__, candidates)
    return _extend_clique(g, core, candidates), Anchor("b", 1)


def classify_q(
    g: Graph, q, order: tuple[int, ...], anchor: Anchor, live=None
) -> tuple[tuple[int, ...], tuple[int, ...], str]:
    """Split N(Q) into the cliques X and Y prescribed by the anchor case.
    X is checked to be a clique, so (|X| - 1)^2 <= |X|(|X| - 1) <= 2m and
    |X| <= isqrt(2m) + 1, which bounds the strip route's |X| + 1 DP passes.
    ``order`` is the wing-graph walk, read around ``anchor.position``."""
    t = len(order)
    i = anchor.position
    s_prev = order[(i - 1) % t]
    s_here = order[i]
    s_next = order[(i + 1) % t]
    nq = neighborhood(g, q)
    if live is not None:
        nq = tuple(filter(live.__getitem__, nq))
    close_prev = {s_prev, *g.neighbors(s_prev)}
    close_here = {s_here, *g.neighbors(s_here)}
    close_next = {s_next, *g.neighbors(s_next)}
    if anchor.case == "a":
        x = tuple(u for u in nq if u in close_here or u in close_next)
        y = tuple(u for u in nq if u in close_prev)
    else:
        x = tuple(u for u in nq if u in close_prev or u in close_here)
        y = tuple(u for u in nq if u in close_next)
    if set(x) & set(y) or len(x) + len(y) != len(nq):
        raise StructuralError(
            "partition", tuple(sorted(set(x) & set(y))) or nq,
            "X, Y do not partition N(Q)",
        )
    for side in (x, y):
        bad = g.non_edge(side)
        if bad is not None:
            raise StructuralError("non_clique", bad, "side of N(Q) is not a clique")
    ys = set(y)
    dominating = any(not ys.isdisjoint(g.neighbors(u)) for u in x)
    return x, y, "dominating" if dominating else "strongly_bisimplicial"


def _clique_layers(g: Graph, sources, removed, label: str, live=None) -> list[tuple[int, ...]]:
    """Layers of a breadth-first search from ``sources`` that never enters
    ``removed`` (sources excepted) or a node ``live`` leaves unmarked, each
    sorted, and each required to be a clique: every node of a layer sees
    the rest of it."""
    nbrs = g._nbrs
    dist = [-1] * g.n if live is None else [-1 if x else -2 for x in live]
    for v in removed:
        dist[v] = -2
    frontier = list(dict.fromkeys(sources))
    for s in frontier:
        dist[s] = 0
    layers = []
    d = 0
    while frontier:
        layer = tuple(sorted(frontier))
        layers.append(layer)
        frontier = []
        for u in layer:
            same = 0
            for v in nbrs[u]:
                dv = dist[v]
                if dv == -1:
                    dist[v] = d + 1
                    frontier.append(v)
                elif dv == d:
                    same += 1
            if same != len(layer) - 1:
                raise StructuralError(
                    "non_clique_layer", g.non_edge(layer), f"{label} layer is not a clique"
                )
        d += 1
    return layers


def build_strips(
    g: Graph,
    q,
    x,
    y,
    kind: str,
    anchor: Anchor,
    wing_order: tuple[int, ...],
    live=None,
) -> Decomposition:
    """Fill in the clique-strips covering G - X and package them with the
    wing-graph walk ``wing_order``.

    Each strip is a tuple of sorted clique tuples: (Q, Y, V - N[Q]) in
    the dominating case.  Otherwise Q is followed by the BFS layers from
    Y in G - Q, less X when that search reaches X; when it does not, the
    BFS layers from X past X itself form a second strip.  An empty Y
    has no layers.

    For ``decompose``'s arguments the strips meet ``interval_transform``'s
    precondition.  G is connected (each component holds a stable node and
    no wing spans two, so ``build_wing_graph`` rejects a disconnected G),
    Q is a clique, ``classify_q`` checked that X and Y are cliques that
    partition N(Q), and each layer and V - N[Q] is checked below.  Q's
    neighbors outside X lie in Y, the clique after Q.  In the dominating
    case Q, X + Y and V - N[Q] partition V, and V - N[Q] misses Q.
    Otherwise every node of G - Q reaches X + Y inside G - Q, and a layer
    sees only itself and the layers next to it.  Separate strips: the
    search from X covers X's component of G - Q and missed the clique Y,
    so the two searches cover disjoint components.

    Shared strip: removing X empties layers only at the end, because X
    lies in the last two Y layers L_last-1, L_last and, if it meets
    L_last-1, holds all of L_last.  Q is not dominating, so no node of X
    is in Y or sees Y: X, a clique, lies in L_j + L_j+1, where j >= 2 is
    the lowest layer it meets.  Suppose some node w outside X lay in a
    layer above j, which is what either claim failing gives.  Take the
    lowest such w: in L_j+1, its parent in L_j is in X or sees X inside
    the clique L_j; in L_j+2, its parent in L_j+1 is in X.  So w is one
    or two steps from X in G - Q.  A node x of X in L_j has a parent p in
    L_j-1, one step from X, and p has a parent in L_j-2, two steps from
    X; neither sees w.  Then the first or the second layer of the search
    from X, which runs before the one from Y, is not a clique, and
    ``_clique_layers`` has raised ``non_clique_layer``.
    """
    q = tuple(sorted(q))
    x = tuple(sorted(x))
    y = tuple(sorted(y))
    if kind == "dominating":
        outside = set(live_nodes(g, live)).difference(closed_neighborhood(g, q))
        p = tuple(sorted(outside))
        bad = g.non_edge(p)
        if bad is not None:
            raise StructuralError(
                "non_clique", bad, "V minus N[Q] is not a clique in the dominating case"
            )
        strips = [(q, y, p) if p else (q, y)]
    else:
        x_layers = _clique_layers(g, x, q, "X", live)
        y_layers = _clique_layers(g, y, q, "Y", live)
        if y and any(y[0] in layer for layer in x_layers):
            # One shared component: X sits at the end of the Y layers.
            xs = set(x)
            family = [q] + [tuple(sorted(set(layer) - xs)) for layer in y_layers]
            strips = [tuple(k for k in family if k)]
        else:
            strips = [(q, *y_layers)]
            if len(x_layers) > 1:
                strips.append(tuple(x_layers[1:]))
    return Decomposition(q, x, y, kind, anchor, tuple(strips), wing_order)


def decompose(g: Graph, stable: tuple[int, ...], live=None) -> Decomposition:
    """Full pipeline from a canonical stable set, an ascending tuple, to
    the strip decomposition (of the component ``live`` marks, if given)."""
    if len(stable) < 4:
        raise GraphInputError("decomposition needs a canonical set of size >= 4")
    wings = build_wing_table(g, stable, live)
    order = build_wing_graph(wings, stable)
    q, anchor = select_q(g, order, wings, live)
    x, y, kind = classify_q(g, q, order, anchor, live)
    return build_strips(g, q, x, y, kind, anchor, order, live)
