"""Square elimination inside clique-strips by weighted diagonal insertion.

For each consecutive clique pair the active sides are A (nodes of the
lower clique seeing the upper one) and B (the converse).  Stages then
either retire a node of A universal to B, or add the cheaper diagonal of
an isolated square, or join a node to all but the heaviest of its
non-neighbors in B.  Every added edge is a diagonal of a square of the
current graph, which keeps the graph claw-free and leaves the maximum
stable set weight of the strip, and of every subgraph obtained by
deleting a removal-clique neighborhood, unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StructuralError
from .graph import Graph

MAX_STAGE_SLACK = 8  # stages per pair are bounded by 3*|K_i|; guard a bit above


class EliminationState:
    """Stage machine for one consecutive clique pair over a mutable overlay.

    ``a`` lists the live nodes of A in stage order, ``b`` is the set of
    live nodes of B, and ``d`` counts each live node's neighbors on the
    other side.
    """

    __slots__ = ("adj", "weights", "a", "b", "d", "added", "actions", "limit")

    def __init__(self, adj: dict, weights, ki, kj):
        self.adj = adj
        self.weights = weights
        self.limit = 3 * len(ki) + MAX_STAGE_SLACK
        # d counts a node's neighbors on the other side; the overlay is
        # symmetric, so those neighbors all lie in A or B
        d = self.d = {}
        self.a = []
        self.b = set()
        for u in ki:
            count = len(adj[u].intersection(kj))
            if count:
                d[u] = count
                self.a.append(u)
        for v in kj:
            count = len(adj[v].intersection(ki))
            if count:
                d[v] = count
                self.b.add(v)
        self._rank_a()
        self.added: list[tuple[int, int]] = []
        self.actions: list[str] = []

    def _rank_a(self):
        """Keep A in stage order: most neighbors in B first, then lowest id."""
        d = self.d
        self.a.sort(key=lambda u: (-d[u], u))

    def _add_edge(self, u: int, v: int):
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.added.append((u, v) if u < v else (v, u))
        self.d[u] += 1
        self.d[v] += 1

    def stage(self) -> str:
        """Run one stage; A must be non-empty.  Returns the action taken."""
        a, b, d, adj = self.a, self.b, self.d, self.adj
        a_max = a[0]
        if d[a_max] == len(b):
            # a_max sees all of B: retire it, and every node of B it leaves
            # with no neighbor in A; no degree in A changes
            del a[0]
            dead = []
            for v in b:
                d[v] -= 1
                if not d[v]:
                    dead.append(v)
            b.difference_update(dead)
            self.actions.append("remove")
            return "remove"
        if d[a_max] == len(b) - 1:
            (b1,) = b - adj[a_max]
            in_a = adj[b1].intersection(a)
            if not in_a:
                raise StructuralError(
                    "stage", (b1,), "square-elimination stage found b1 null to A"
                )
            a2 = min(in_a)
            if d[a2] == len(b) - 1:
                (b2,) = b - adj[a2]
                w = self.weights
                if w[a2] + w[b2] >= w[a_max] + w[b1]:
                    self._add_edge(a_max, b1)
                else:
                    self._add_edge(a2, b2)
                action = "kill_c4"
            else:
                self._kill_diags(a2)
                action = "kill_diags"
        else:
            self._kill_diags(a_max)
            action = "kill_diags"
        self._rank_a()
        self.actions.append(action)
        return action

    def _kill_diags(self, abar: int):
        """Join abar to each node of B it misses except the heaviest; the
        kill-diags certificate in ``mwss.checks`` is why this is safe."""
        missing = self.b - self.adj[abar]
        w = self.weights
        spare = max(missing, key=lambda v: (w[v], -v))
        for v in sorted(missing):
            if v != spare:
                self._add_edge(abar, v)

    def run(self) -> int:
        """Run stages until A drains; returns their number."""
        stages = 0
        while self.a:
            if stages > self.limit:
                raise StructuralError(
                    "stage", tuple(sorted(self.a)), "stage budget exceeded"
                )
            self.stage()
            stages += 1
        return stages


@dataclass(frozen=True)
class IntervalResult:
    """The strips after elimination, as one overlay over V - X.

    The overlay holds only what elimination and the consistent order
    read: each node's neighbors in the cliques just before and just after
    its own, added diagonals included.  Edges inside a clique are implied
    by the clique and not stored.
    """

    adj: dict  # node of V - X -> its neighbors in the adjacent cliques
    cliques: tuple[tuple[int, ...], ...]  # every strip's cliques, strip after strip
    added_edges: tuple[tuple[int, int], ...]
    stage_counts: tuple[tuple[int, ...], ...]  # per strip, per pair


def interval_transform(g: Graph, strips, removal) -> IntervalResult:
    """Destroy every square inside each strip, preserving stable set weights.

    ``strips`` is a sequence of clique families (ordered cliques of node
    ids), as produced by the decomposition, and ``removal`` is the
    removal clique X.  The strips must partition V - X, and an edge
    between two of their nodes must lie in one clique or join consecutive
    cliques of one strip; otherwise ``StructuralError`` ``strip_cover`` or
    ``strip_adjacent`` names the first violation.  Both are checked while
    the overlay is built, in one pass over the strip nodes' rows: a row's
    part in the cliques next to the node's own is its overlay entry, and
    as the cliques are cliques, every other neighbor lies in X or in the
    node's clique exactly when deg(v) = (|K_t| - 1) + |N(v) & K_t-1| +
    |N(v) & K_t+1| + |N(v) & X|.  Each strip's consecutive pairs then add
    their diagonals in place.
    """
    families = [tuple(tuple(k) for k in getattr(s, "cliques", s)) for s in strips]
    cliques = tuple(k for family in families for k in family)
    _check_cover(g.n, cliques, removal)
    nbrs = g._nbrs
    removal = set(removal)
    x_degree = [0] * g.n  # neighbors in X
    for x in removal:
        if 0 <= x < g.n:
            for u in nbrs[x]:
                x_degree[u] += 1
    adj = {}
    for family in families:
        for i, k in enumerate(family):
            near = set(family[i - 1]) if i else set()
            if i + 1 < len(family):
                near.update(family[i + 1])
            others = len(k) - 1
            for v in k:
                row = nbrs[v]
                cross = near.intersection(row)
                if len(row) != others + len(cross) + x_degree[v]:
                    _raise_strip_adjacent(g, families, removal, v)
                adj[v] = cross
    added: list[tuple[int, int]] = []
    stage_counts = []
    for family in families:
        counts = []
        for ki, kj in zip(family, family[1:]):
            state = EliminationState(adj, g.weights, ki, kj)
            counts.append(state.run())
            added.extend(state.added)
        stage_counts.append(tuple(counts))
    return IntervalResult(adj, cliques, tuple(added), tuple(stage_counts))


def _check_cover(n: int, cliques, removal):
    """Raise ``strip_cover`` unless ``cliques`` partition V - X: the first
    node met twice, or else up to four missing and four extra nodes."""
    nodes = [v for k in cliques for v in k]
    covered = set(nodes)
    if len(covered) != len(nodes):
        seen = set()
        for v in nodes:
            if v in seen:
                raise StructuralError("strip_cover", (v,), "node in two cliques")
            seen.add(v)
    expected = set(range(n)).difference(removal)
    if covered != expected:
        missing = tuple(sorted(expected - covered))[:4]
        extra = tuple(sorted(covered - expected))[:4]
        raise StructuralError(
            "strip_cover", missing + extra, "strips do not cover V minus X exactly"
        )


def _raise_strip_adjacent(g: Graph, families, removal, v: int):
    """Raise ``strip_adjacent`` for the first neighbor of ``v``, in row
    order, outside X that lies in another strip or skips a clique.  With
    none, the degree count was off for a clique missing an edge, which
    the cover check leaves alone, and this returns."""
    where = {
        u: (si, ki)
        for si, family in enumerate(families)
        for ki, k in enumerate(family)
        for u in k
    }
    si, ki = where[v]
    for u in g.neighbors(v):
        if u in removal:
            continue
        sj, kj = where[u]
        if si != sj:
            raise StructuralError("strip_adjacent", (v, u), "edge between different strips")
        if abs(ki - kj) > 1:
            raise StructuralError("strip_adjacent", (v, u), "edge skips a strip layer")
