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
    """Stage machine for one consecutive clique pair over a mutable overlay."""

    __slots__ = ("adj", "weights", "a", "b", "d", "added", "actions", "limit")

    def __init__(self, adj: dict, weights, ki, kj):
        self.adj = adj
        self.weights = weights
        self.limit = 3 * len(ki) + MAX_STAGE_SLACK
        ki_set, kj_set = set(ki), set(kj)
        self.a = {u for u in ki if not adj[u].isdisjoint(kj_set)}
        self.b = {v for v in kj if not adj[v].isdisjoint(ki_set)}
        self.d = {u: len(adj[u] & self.b) for u in self.a}
        for v in self.b:
            self.d[v] = len(adj[v] & self.a)
        self.added: list[tuple[int, int]] = []
        self.actions: list[str] = []

    def _add_edge(self, u: int, v: int):
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.added.append((u, v) if u < v else (v, u))
        self.d[u] += 1
        self.d[v] += 1

    def stage(self) -> str:
        """Run one stage; A must be non-empty.  Returns the action taken."""
        a_max = max(self.a, key=lambda u: (self.d[u], -u))
        if self.d[a_max] == len(self.b):
            self.a.discard(a_max)
            dead = []
            for v in self.b:
                if a_max in self.adj[v]:
                    self.d[v] -= 1
                    if self.d[v] == 0:
                        dead.append(v)
            for v in dead:
                self.b.discard(v)
            self.actions.append("remove")
            return "remove"
        if self.d[a_max] == len(self.b) - 1:
            (b1,) = self.b - self.adj[a_max]
            in_a = self.adj[b1] & self.a
            if not in_a:
                raise StructuralError(
                    "stage", (b1,), "square-elimination stage found b1 null to A"
                )
            a2 = min(in_a)
            if self.d[a2] == len(self.b) - 1:
                (b2,) = self.b - self.adj[a2]
                w = self.weights
                if w[a2] + w[b2] >= w[a_max] + w[b1]:
                    self._add_edge(a_max, b1)
                else:
                    self._add_edge(a2, b2)
                self.actions.append("kill_c4")
                return "kill_c4"
            self._kill_diags(a2)
            self.actions.append("kill_diags")
            return "kill_diags"
        self._kill_diags(a_max)
        self.actions.append("kill_diags")
        return "kill_diags"

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
    """The strips after elimination, as one overlay over V - X."""

    adj: dict  # node -> neighbor set within V - X, added diagonals included
    cliques: tuple[tuple[int, ...], ...]  # every strip's cliques, strip after strip
    added_edges: tuple[tuple[int, int], ...]
    stage_counts: tuple[tuple[int, ...], ...]  # per strip, per pair


def interval_transform(g: Graph, strips) -> IntervalResult:
    """Destroy every square inside each strip, preserving stable set weights.

    ``strips`` is a sequence of clique families (ordered cliques of node
    ids), as produced by the decomposition.  The strips partition V - X
    and do not touch, so one overlay holds them all: each node's
    neighbors minus the removal clique X, to which each strip's pairs add
    their diagonals in place.
    """
    families = [tuple(tuple(k) for k in getattr(s, "cliques", s)) for s in strips]
    cliques = tuple(k for family in families for k in family)
    adj = {v: set(g.neighbors(v)) for k in cliques for v in k}
    for x in range(g.n):
        if x not in adj:
            for u in g.neighbors(x):
                if u in adj:
                    adj[u].discard(x)
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
