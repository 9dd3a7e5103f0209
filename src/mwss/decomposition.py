"""Bisimplicial clique selection and clique-strip construction.

Given a canonical stable set of size at least four, the wing graph is a
path or cycle s1...st.  A maximal clique anchored at s2 or s3 (chosen by
which of four wing-cover intersections is empty) is bisimplicial: its
neighborhood splits into cliques X and Y.  Removing X leaves at most two
clique-strips, built here as BFS layers away from X and Y in G - Q, or as
(Q, Y, V - N[Q]) in the dominating case.  That the strips partition
V - X and touch only between consecutive cliques is checked where their
rows are built, in ``interval_transform``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import CanonicalState
from .errors import GraphInputError, StructuralError
from .graph import Graph, closed_neighborhood, is_regular_node, neighborhood
from .wings import WingGraph, WingTable, build_wing_graph, build_wing_table


@dataclass(frozen=True)
class CliqueStrip:
    """An ordered clique family in which only consecutive cliques touch."""

    cliques: tuple[tuple[int, ...], ...]

    @property
    def nodes(self) -> frozenset:
        out: set[int] = set()
        for k in self.cliques:
            out.update(k)
        return frozenset(out)

    def __len__(self) -> int:
        return len(self.cliques)


@dataclass(frozen=True)
class Anchor:
    case: str  # "a" | "b"
    position: int  # index into the wing order


@dataclass(frozen=True)
class Decomposition:
    core: tuple[int, ...]  # the bisimplicial clique
    removal: tuple[int, ...]  # X, deleted before the strip solve
    companion: tuple[int, ...]  # Y, the other side of N(core)
    kind: str  # "dominating" | "strongly_bisimplicial"
    anchor: Anchor
    strips: tuple[CliqueStrip, ...]
    wing_order: tuple[int, ...]
    covers: tuple  # ((C_s2, C'_s2), (C_s3, C'_s3)) clique covers used


def _cover(g: Graph, s: int):
    res = is_regular_node(g, s)
    if not res.is_regular:
        raise StructuralError(
            "irregular", (s, *res.odd_cycle), "stable node is not regular"
        )
    return res.cliques


def select_q(
    g: Graph, st: CanonicalState, wg: WingGraph, wt: WingTable
) -> tuple[tuple[int, ...], Anchor, tuple]:
    """Pick the bisimplicial clique and the anchor case it certifies.

    The four sets A, A', B, B' intersect the wing of (s1, s2) with the
    clique cover of s2 and the wing of (s3, s4) with the cover of s3.
    The first empty one fixes the clique directly; when all four are
    non-empty, the wing between s2 and s3 restricted to N(s2) is itself a
    clique and is grown to a maximal one.
    """
    order = wg.order
    s1, s2, s3, s4 = order[0], order[1], order[2], order[3]
    cov2 = _cover(g, s2)
    cov3 = _cover(g, s3)
    w12 = wt.wing_between(s1, s2)
    w34 = wt.wing_between(s3, s4)
    if w12 is None or w34 is None:
        raise StructuralError("wing_missing", (s1, s2, s3, s4), "expected wings absent")
    m12 = set(w12.members)
    m34 = set(w34.members)
    a_set = [u for u in cov2[0] if u in m12]
    abar_set = [u for u in cov2[1] if u in m12]
    b_set = [u for u in cov3[0] if u in m34]
    bbar_set = [u for u in cov3[1] if u in m34]
    covers = (cov2, cov3)
    if not a_set:
        return cov2[1], Anchor("a", 1), covers
    if not abar_set:
        return cov2[0], Anchor("a", 1), covers
    if not b_set:
        return cov3[1], Anchor("b", 2), covers
    if not bbar_set:
        return cov3[0], Anchor("b", 2), covers
    w23 = wt.wing_between(s2, s3)
    if w23 is None:
        raise StructuralError("wing_missing", (s2, s3), "expected wing absent")
    core = [s2] + sorted(set(w23.members).intersection(g.neighbors(s2)))
    bad = g.non_edge(core)
    if bad is not None:
        raise StructuralError(
            "non_clique", bad, "wing restriction to N(s2) is not a clique"
        )
    members = set(core)
    for u in g.neighbors(s2):
        if u not in members and len(members.intersection(g.neighbors(u))) == len(core):
            core.append(u)
            members.add(u)
    return tuple(sorted(core)), Anchor("b", 1), covers


def classify_q(
    g: Graph, q, st: CanonicalState, wg: WingGraph, anchor: Anchor
) -> tuple[tuple[int, ...], tuple[int, ...], str]:
    """Split N(Q) into the cliques X and Y prescribed by the anchor case."""
    order = wg.order
    t = len(order)
    i = anchor.position
    s_prev = order[(i - 1) % t]
    s_here = order[i]
    s_next = order[(i + 1) % t]
    nq = neighborhood(g, q)
    close_prev = set(closed_neighborhood(g, (s_prev,)))
    close_here = set(closed_neighborhood(g, (s_here,)))
    close_next = set(closed_neighborhood(g, (s_next,)))
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


def _clique_layers(g: Graph, sources, removed, label: str) -> list[tuple[int, ...]]:
    """Layers of a breadth-first search from ``sources`` that never enters
    ``removed`` (sources excepted), each sorted, and each required to be a
    clique: every node of a layer sees the rest of it."""
    nbrs = g._nbrs
    dist = [-1] * g.n
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
    wg: WingGraph,
    covers,
) -> Decomposition:
    """Fill in the clique-strips covering G - X and package the result."""
    q = tuple(sorted(q))
    x = tuple(sorted(x))
    y = tuple(sorted(y))
    strips: list[CliqueStrip]
    if kind == "dominating":
        outside = set(range(g.n)) - set(closed_neighborhood(g, q))
        p = tuple(sorted(outside))
        bad = g.non_edge(p)
        if bad is not None:
            raise StructuralError(
                "non_clique", bad, "V minus N[Q] is not a clique in the dominating case"
            )
        family = [q, y] + ([p] if p else [])
        strips = [CliqueStrip(tuple(family))]
    else:
        x_layers = _clique_layers(g, x, q, "X")
        if not y:
            strips = [CliqueStrip((q,))]
            if len(x_layers) > 1:
                strips.append(CliqueStrip(tuple(x_layers[1:])))
        else:
            x_nodes = set()
            for layer in x_layers:
                x_nodes.update(layer)
            if y[0] in x_nodes:
                # One shared component: X sits inside the last two Y layers.
                y_layers = _clique_layers(g, y, q, "Y")
                last = len(y_layers) - 1
                xs = set(x)
                allowed = set(y_layers[last]) | (set(y_layers[last - 1]) if last >= 1 else set())
                if not xs <= allowed:
                    raise StructuralError(
                        "strip_overlap",
                        tuple(sorted(xs - allowed)),
                        "X reaches beyond the last two Y layers",
                    )
                if last >= 1 and (xs & set(y_layers[last - 1])) and (set(y_layers[last]) - xs):
                    raise StructuralError(
                        "strip_overlap",
                        tuple(sorted(set(y_layers[last]) - xs)),
                        "X meets the second-to-last layer but not all of the last",
                    )
                family = [q] + [
                    tuple(sorted(set(layer) - xs)) for layer in y_layers
                ]
                family = [k for k in family if k]
                strips = [CliqueStrip(tuple(family))]
            else:
                y_layers = _clique_layers(g, y, q, "Y")
                strips = [CliqueStrip(tuple([q] + y_layers))]
                if len(x_layers) > 1:
                    strips.append(CliqueStrip(tuple(x_layers[1:])))
    return Decomposition(q, x, y, kind, anchor, tuple(strips), wg.order, covers)


def decompose(g: Graph, st: CanonicalState) -> Decomposition:
    """Full pipeline from a canonical stable set to the strip decomposition."""
    if len(st.members) < 4:
        raise GraphInputError("decomposition needs a canonical set of size >= 4")
    wt = build_wing_table(g, st)
    wg = build_wing_graph(wt, st)
    q, anchor, covers = select_q(g, st, wg, wt)
    x, y, kind = classify_q(g, q, st, wg, anchor)
    return build_strips(g, q, x, y, kind, anchor, wg, covers)
