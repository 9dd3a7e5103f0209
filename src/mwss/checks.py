"""The pipeline's structural invariants, each defined once.

Every check returns ``None`` when its invariant holds and otherwise a
witness tuple that starts with the violation's name.  ``CanonicalState``
classifies each node by its stable neighbors, for the canonical-set
checks; the solver hands its stable set on as a plain tuple.
``mwss selftest``, the acceptance suite and the unit tests call these;
no solver module imports this one, so none of it runs on the solve path.
"""

from __future__ import annotations

from itertools import islice

from .canonical import stable_counts
from .errors import GraphInputError
from .graph import Graph
from .interval_mwss import ConsistentOrder
from .patterns import find_claw, find_square_in, square_semi_homogeneous_check


class CanonicalState:
    """A maximal stable set of ``graph`` plus the per-node classification.

    Non-members are classified by their number of stable neighbors:
    0 superfree, 1 free, 2 bound.  The set is checked by
    ``stable_counts``, so three or more stable neighbors of one node
    raise ``StructuralError`` (a claw).
    """

    __slots__ = ("graph", "members", "_count")

    def __init__(self, graph: Graph, members):
        self.members = frozenset(members)
        self._count = stable_counts(graph, self.members)
        self.graph = graph

    @property
    def stable_set(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def classification(self, v: int) -> str:
        if v in self.members:
            return "stable"
        return ("superfree", "free", "bound")[self._count[v]]

    def is_stable_node(self, v: int) -> bool:
        return v in self.members

    def is_free(self, v: int) -> bool:
        return v not in self.members and self._count[v] == 1

    def is_bound(self, v: int) -> bool:
        return v not in self.members and self._count[v] == 2

    def stable_neighbor(self, v: int) -> int:
        """S(u): the unique stable neighbor of a free node."""
        if not self.is_free(v):
            raise GraphInputError(f"node {v} is not free")
        return next(s for s in self.graph.neighbors(v) if s in self.members)

    def free_nodes(self) -> tuple[int, ...]:
        return tuple(filter(self.is_free, range(self.graph.n)))


def find_augmenting_p3(st: CanonicalState, s: int) -> tuple[int, int] | None:
    """Two non-adjacent free neighbors of the stable node ``s``."""
    if not st.is_stable_node(s):
        raise GraphInputError(f"node {s} is not in the stable set")
    g = st.graph
    free = [u for u in g.neighbors(s) if st.is_free(u)]
    for i, x in enumerate(free):
        ax = set(g.neighbors(x))
        for y in free[i + 1 :]:
            if y not in ax:
                return (x, y)
    return None


def find_dominating_free(st: CanonicalState, s: int) -> int | None:
    """A free neighbor x of s with N[x] strictly containing N[s].

    Among candidates, returns the one of maximum closed degree, ties to
    the lowest id.  Equality N[x] = N[s] would mean the two are twins; it
    is excluded defensively so twin-laden inputs stay safe.
    """
    if not st.is_stable_node(s):
        raise GraphInputError(f"node {s} is not in the stable set")
    g = st.graph
    nb_s = g.neighbors(s)
    best = None
    for x in nb_s:
        if not st.is_free(x):
            continue
        ax = set(g.neighbors(x))
        if all(t == x or t in ax for t in nb_s) and g.degree(x) > g.degree(s):
            if best is None or g.degree(x) > g.degree(best):
                best = x
    return best


def canonical_violation(st: CanonicalState, steps: int | None = None) -> tuple | None:
    """An augmenting P3 ``(s, x, y)``, a dominating free node ``(s, x)``, or
    a ``canonicalize`` step count ``steps`` above 50 * (n + m)."""
    for s in st.stable_set:
        pair = find_augmenting_p3(st, s)
        if pair is not None:
            return ("augmenting_p3", (s, *pair))
        x = find_dominating_free(st, s)
        if x is not None:
            return ("dominating_free", (s, x))
    g = st.graph
    if steps is not None and steps > 50 * (g.n + g.m):
        return ("steps", (steps,))
    return None


def strip_violation(g: Graph, dec) -> tuple | None:
    """The first consecutive clique pair of a decomposition's strips that
    is not square-semi-homogeneous in ``g``: its square and the node
    breaking semi-homogeneity."""
    for strip in dec.strips:
        for lo, hi in zip(strip, strip[1:]):
            bad = square_semi_homogeneous_check(g, lo, hi)
            if bad is not None:
                sq, v = bad
                return ("not_square_semi_homogeneous", (*sq.nodes, v))
    return None


def strip_partition_violation(g: Graph, strips, removal) -> tuple | None:
    """The first way the clique families ``strips`` break the precondition
    of ``interval_transform`` with X = ``removal``, as ``(kind, witness)``.
    In this order: ``strip_cover`` unless the cliques partition V - X (an
    X id out of range counts for nothing), naming the first node met
    twice, or else up to four missing and four extra nodes; ``non_clique``,
    the first non-edge of the first clique that misses one; and
    ``strip_adjacent``, ``(v, u)`` for the first v, strip after strip, and
    its first neighbor u outside X, in row order, that lies in another
    strip or skips a clique."""
    cliques = [k for strip in strips for k in strip]
    n = g.n
    mark = bytearray(n)  # 1: in a clique, 2: in X
    extra = set()  # clique ids out of range, then X nodes in a clique
    for k in cliques:
        for v in k:
            if 0 <= v < n and not mark[v]:
                mark[v] = 1
            elif 0 <= v < n or v in extra:
                return ("strip_cover", (v,))
            else:
                extra.add(v)
    for x in removal:
        if 0 <= x < n:
            if mark[x] == 1:
                extra.add(x)
            else:
                mark[x] = 2
    if extra or 0 in mark:
        missing = tuple(islice((v for v in range(n) if not mark[v]), 4))
        return ("strip_cover", missing + tuple(sorted(extra))[:4])
    bad = next(filter(None, map(g.non_edge, cliques)), None)
    if bad is not None:
        return ("non_clique", bad)
    place = {  # node -> (strip, clique) index
        v: (si, ki) for si, strip in enumerate(strips) for ki, k in enumerate(strip) for v in k
    }
    for v, (si, ki) in place.items():
        for u in g.neighbors(v):
            at = place.get(u)  # None in X
            if at is not None and (at[0] != si or abs(at[1] - ki) > 1):
                return ("strip_adjacent", (v, u))
    return None


def verify_consistent(gbar: Graph, co: ConsistentOrder) -> tuple[int, int, int] | None:
    """Exhaustive consistency check; returns a violating triple or None."""
    order = co.order
    pos = {v: k for k, v in enumerate(order)}
    for k, v in enumerate(order):
        av = set(gbar.neighbors(v))
        for u in gbar.neighbors(v):
            i = pos[u]
            if i >= k:
                continue
            for j in range(i + 1, k):
                if order[j] not in av:
                    return (u, order[j], v)
    return None


def transformed_graph(g: Graph, interval) -> Graph:
    """The graph ``interval_transform`` leaves, built from ``g``'s rows:
    the strips with their added diagonals, and the removal clique's nodes
    left isolated."""
    inside = bytearray(g.n)
    for clique in interval.cliques:
        for v in clique:
            inside[v] = 1
    rows = [
        set(filter(inside.__getitem__, g.neighbors(v))) if inside[v] else set()
        for v in range(g.n)
    ]
    for u, v in interval.added_edges:
        rows[u].add(v)
        rows[v].add(u)
    return Graph._from_rows([tuple(sorted(row)) for row in rows], g.weights)


def interval_violation(g: Graph, interval, order: ConsistentOrder) -> tuple | None:
    """A claw in the transformed strips, a square across consecutive
    cliques, or a triple breaking the consistency of ``order``."""
    gbar = transformed_graph(g, interval)
    claw = find_claw(gbar)
    if claw is not None:
        return ("claw", claw.nodes)
    for lo, hi in zip(interval.cliques, interval.cliques[1:]):
        sq = find_square_in(gbar, lo, hi)
        if sq is not None:
            return ("square", sq.nodes)
    triple = verify_consistent(gbar, order)
    if triple is not None:
        return ("inconsistent", triple)
    return None


def semi_homog_pair_certificate(adj: dict, a1: int, bbar, universe) -> tuple | None:
    """The kill-diags certificate: ({a1}, Bbar) is semi-homogeneous and
    each pair (a1, b) with b in Bbar is the diagonal of a square.

    Evaluated on a full overlay ``adj`` of the strip (node -> neighbor
    set, earlier diagonals included) before the stage adds its edges.
    """
    bbar = set(bbar)
    for u in universe:
        if u == a1 or u in bbar:
            continue
        au = adj[u]
        if a1 in au:
            continue
        hits = au & bbar
        if hits and hits != bbar:
            return ("not_semi_homogeneous", u)
    for b in bbar:
        common = adj[a1] & adj[b]
        if not any(common - adj[p] - {p} for p in common):
            return ("not_a_diagonal", a1, b)
    return None
