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
from itertools import chain, islice

from .errors import StructuralError
from .graph import Graph

MAX_STAGE_SLACK = 8  # stages per pair are bounded by 3*|K_i|; guard a bit above


class EliminationState:
    """Stage machine for one consecutive clique pair K_i, K_j of a strip.

    ``before`` and ``after`` are the overlay rows of ``interval_transform``
    (a node's neighbors in the previous and in the next clique of its
    strip, as sorted tuples), indexable by node id.  A node of K_i meets
    K_j only through ``after`` and a node of K_j meets K_i only through
    ``before``, so ``d``, which counts each live node's neighbors on the
    other side, starts from the row lengths.  ``a`` lists the live nodes
    of A in stage order and ``b`` is the set of live nodes of B.

    A ``remove`` stage reads only ``d``.  The other stages read a node's
    row as a set, built on first use and kept in ``a_sets`` (A node ->
    its neighbors in K_j) or ``b_sets`` (B node -> its neighbors in K_i);
    added diagonals extend those sets.  ``run`` writes the rows of nodes
    that gained diagonals back as sorted tuples.  A diagonal joins an
    ``after`` row of K_i to a ``before`` row of K_j, which no other pair
    reads.
    """

    __slots__ = (
        "before", "after", "weights", "a", "b", "d", "a_sets", "b_sets",
        "added", "limit",
    )

    def __init__(self, before, after, weights, ki, kj):
        self.before = before
        self.after = after
        self.weights = weights
        self.limit = 3 * len(ki) + MAX_STAGE_SLACK
        d = self.d = {}
        for u in ki:
            count = len(after[u])
            if count:
                d[u] = count
        self.a = list(d)
        self._rank_a()
        b = self.b = set()
        for v in kj:
            count = len(before[v])
            if count:
                d[v] = count
                b.add(v)
        self.a_sets: dict[int, set] = {}
        self.b_sets: dict[int, set] = {}
        self.added: list[tuple[int, int]] = []

    def _rank_a(self):
        """Keep A in stage order: most neighbors in B first, then lowest id
        (a stable sort by id, then by count, which keeps ties in id order)."""
        self.a.sort()
        self.a.sort(key=self.d.__getitem__, reverse=True)

    def _a_set(self, u: int) -> set:
        """The neighbors in K_j of the A node ``u``."""
        s = self.a_sets.get(u)
        if s is None:
            s = self.a_sets[u] = set(self.after[u])
        return s

    def _b_set(self, v: int) -> set:
        """The neighbors in K_i of the B node ``v``."""
        s = self.b_sets.get(v)
        if s is None:
            s = self.b_sets[v] = set(self.before[v])
        return s

    def _add_edge(self, u: int, v: int):
        """Join the A node ``u`` to the B node ``v``."""
        self._a_set(u).add(v)
        self._b_set(v).add(u)
        self.added.append((u, v) if u < v else (v, u))
        self.d[u] += 1
        self.d[v] += 1

    def stage(self) -> str:
        """Run one stage; A must be non-empty.  Returns the action taken."""
        a, b, d = self.a, self.b, self.d
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
            return "remove"
        if d[a_max] == len(b) - 1:
            (b1,) = b - self._a_set(a_max)
            in_a = self._b_set(b1).intersection(a)
            if not in_a:
                raise StructuralError(
                    "stage", (b1,), "square-elimination stage found b1 null to A"
                )
            a2 = min(in_a)
            if d[a2] == len(b) - 1:
                (b2,) = b - self._a_set(a2)
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
        return action

    def _kill_diags(self, abar: int):
        """Join abar to each node of B it misses except the heaviest; the
        kill-diags certificate in ``mwss.checks`` is why this is safe."""
        missing = self.b - self._a_set(abar)
        w = self.weights
        spare = max(missing, key=lambda v: (w[v], -v))
        for v in sorted(missing):
            if v != spare:
                self._add_edge(abar, v)

    def run(self) -> int:
        """Run stages until A drains, then write the grown rows back;
        returns the number of stages."""
        stages = 0
        while self.a:
            if stages > self.limit:
                raise StructuralError(
                    "stage", tuple(sorted(self.a)), "stage budget exceeded"
                )
            self.stage()
            stages += 1
        if self.added:
            for rows, sets in ((self.after, self.a_sets), (self.before, self.b_sets)):
                for v, s in sets.items():
                    if len(s) != len(rows[v]):  # sets only grow
                        rows[v] = tuple(sorted(s))
        return stages


@dataclass(frozen=True)
class IntervalResult:
    """The strips after elimination, as two rows per node of V - X.

    ``before[v]`` holds v's neighbors in the clique before its own, and
    ``after[v]`` those in the clique after it, in its strip; both are
    sorted tuples with the added diagonals included.  Edges inside a
    clique are implied by the clique and not stored.  Both rows are lists
    indexed by node id; a node of X, or at a strip's end, has ``()``.
    """

    before: list  # node -> sorted neighbors in the previous clique of its strip
    after: list  # node -> sorted neighbors in the next clique of its strip
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
    ``strip_adjacent`` names the first violation.  The cover is checked
    first (see ``_check_cover``); adjacency while the rows are built, in
    one pass over the strip nodes' graph rows: the parts of v's row in
    K_t-1 and K_t+1, filtered in row order, are its ``before`` and
    ``after`` rows, and as the cliques are cliques, every other neighbor
    lies in X or in v's clique K_t exactly when deg(v) = (|K_t| - 1) +
    |before| + |after| + |N(v) & X|.  A count that is off with no such
    stray neighbor means v misses a mate in K_t: ``non_clique``.  A
    missing mate that a stray neighbor makes up for goes unseen, so the
    cliques must be cliques.  A clique's membership set is built
    when the walk reaches the clique before it and dropped once the
    clique after it is done, so at most three are alive at once.  Each
    strip's consecutive pairs then add their diagonals to those rows.
    """
    families = [tuple(map(tuple, s)) for s in strips]
    cliques = tuple(k for family in families for k in family)
    _check_cover(g.n, cliques, removal)
    nbrs = g._nbrs
    removal = set(removal)
    x_degree = [0] * g.n  # neighbors in X
    for x in removal:
        if 0 <= x < g.n:
            for u in nbrs[x]:
                x_degree[u] += 1
    before: list = [()] * g.n
    after: list = [()] * g.n
    for family in families:
        # the cliques' membership tests, each built one clique ahead of the walk
        has = chain((None,), (set(k).__contains__ for k in family), (None,))
        prev_has, here_has = next(has), next(has)
        for k, next_has in zip(family, has):
            others = len(k) - 1
            for v in k:
                row = nbrs[v]
                lo = tuple(filter(prev_has, row)) if prev_has else ()
                hi = tuple(filter(next_has, row)) if next_has else ()
                if len(row) != others + len(lo) + len(hi) + x_degree[v]:
                    _raise_strip_adjacent(g, families, removal, v)
                before[v] = lo
                after[v] = hi
            prev_has, here_has = here_has, next_has
    added: list[tuple[int, int]] = []
    stage_counts = []
    for family in families:
        counts = []
        for ki, kj in zip(family, family[1:]):
            state = EliminationState(before, after, g.weights, ki, kj)
            counts.append(state.run())
            added.extend(state.added)
        stage_counts.append(tuple(counts))
    return IntervalResult(before, after, cliques, tuple(added), tuple(stage_counts))


def _check_cover(n: int, cliques, removal):
    """Raise ``strip_cover`` unless ``cliques`` partition V - X: the first
    node met twice, or else up to four missing and four extra nodes.

    One ``bytearray`` pass marks the clique nodes and then the X nodes in
    range (an X id out of range counts for nothing).  The extra nodes are
    the clique ids out of range and the X nodes in a clique; the missing
    ones are those left unmarked.
    """
    mark = bytearray(n)  # 1: in a clique, 2: in X
    extra = set()  # clique ids out of range, then X nodes in a clique
    for k in cliques:
        for v in k:
            if 0 <= v < n and not mark[v]:
                mark[v] = 1
            elif 0 <= v < n or v in extra:
                raise StructuralError("strip_cover", (v,), "node in two cliques")
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
        extra = tuple(sorted(extra))[:4]
        raise StructuralError("strip_cover", missing + extra, "strips do not cover V minus X exactly")


def _raise_strip_adjacent(g: Graph, families, removal, v: int):
    """Raise ``strip_adjacent`` for the first neighbor of ``v``, in row
    order, outside X that lies in another strip or skips a clique.  With
    none, the degree count was off because ``v`` misses a mate in its own
    clique, and this raises ``non_clique`` with that clique's first
    non-edge."""
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
    clique = families[si][ki]
    raise StructuralError("non_clique", g.non_edge(clique), "strip clique is not a clique")
