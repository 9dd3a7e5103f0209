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
from itertools import pairwise

from .graph import Graph


class EliminationState:
    """Stage machine for one consecutive clique pair K_i, K_j of a strip.

    ``after`` maps each node of K_i to its neighbors in K_j as a tuple;
    ``interval_transform`` passes a dict of this pair's rows only, and
    any container indexable by node id will do.  These rows are the only
    adjacency the pair holds: a node of K_j meets K_i only through them,
    so B is the set of nodes they hold and ``b_len`` counts each B node's
    neighbors in K_i, added diagonals included.  ``d`` counts each live
    node's live neighbors on the other side: a retired A node sees all
    of B, a diagonal joins A to B, and B drops a node once its ``d`` is
    0, when no live A node sees it.  ``a`` lists the live nodes of A in
    stage order and ``b`` is the set of live nodes of B.

    A ``remove`` stage reads only ``d``.  The other stages read an A
    node's row as a set, built on first use and kept in ``a_sets`` (the
    search for a2, the lowest live A node seeing b1, builds those of all
    live A nodes); added diagonals extend the sets, and the rows given
    are never changed.  So a node's final row into K_j is its set if a
    stage built one, else its ``after`` row.  A diagonal joins a K_i
    node to a K_j node, which no other pair reads, so
    ``interval_transform`` builds and drops the rows pair by pair.
    """

    __slots__ = ("after", "weights", "a", "b", "d", "b_len", "a_sets", "added")

    def __init__(self, after, weights, ki):
        self.after = after
        self.weights = weights
        d = self.d = {}
        b_len = self.b_len = {}
        for u in ki:
            row = after[u]
            if row:
                d[u] = len(row)
                for v in row:
                    b_len[v] = b_len.get(v, 0) + 1
        self.a = list(d)
        self._rank_a()
        self.b = set(b_len)
        d.update(b_len)
        self.a_sets: dict[int, set] = {}
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

    def _add_edge(self, u: int, v: int):
        """Join the A node ``u`` to the B node ``v``."""
        self._a_set(u).add(v)
        self.added.append((u, v) if u < v else (v, u))
        self.d[u] += 1
        self.d[v] += 1
        self.b_len[v] += 1

    def stage(self) -> str:
        """Run one stage; A must be non-empty.  Returns the action taken.
        The b1 that ``a_max`` misses is live, so it has a live A neighbor."""
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
            a2 = min(u for u in a if b1 in self._a_set(u))
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
        """Run stages until A drains; returns the number of stages, at most
        3|A| <= 3|K_i|.

        Nesting: a live A node u sees only live B nodes, and ``remove``
        retires u only when ``d[u]`` = |B|, so its final row is the live B
        of that moment.  B only shrinks, so the final rows of K_i (empty
        off A) form the chain under inclusion that ``consistent_order``
        takes as its precondition.
        Stage bound: Φ, the sum over live A nodes of 1 + min(|B| - d, 2),
        starts at most 3|A| and is positive while A is non-empty.
        ``remove`` drops its node's term and shrinks |B| only by nodes no
        live A node sees.  ``kill_c4`` takes a node missing one B node to
        none, and ``kill_diags`` one missing at least two to one (a_max
        misses two in that branch, and a2 does, as ``d[a2]`` <
        ``d[a_max]`` = |B| - 1).  So every stage lowers Φ by at least 1.
        """
        stages = 0
        while self.a:
            self.stage()
            stages += 1
        return stages


@dataclass(frozen=True)
class IntervalResult:
    """The strips after elimination, as two reach lengths per node of V - X.

    ``before_len[v]`` counts v's neighbors in the clique before its own,
    and ``after_len[v]`` those in the clique after it, in its strip, the
    added diagonals included: all that ``consistent_order`` reads of the
    rows.  Both are lists indexed by node id; a node of X, or at a
    strip's end, has 0.  The rows themselves are ``g``'s rows cut to the
    neighbouring cliques plus ``added_edges``, which is how
    ``mwss.checks.transformed_graph`` rebuilds them.
    """

    before_len: list  # node -> neighbors in the previous clique of its strip
    after_len: list  # node -> neighbors in the next clique of its strip
    cliques: tuple[tuple[int, ...], ...]  # every strip's cliques, strip after strip
    added_edges: tuple[tuple[int, int], ...]
    stage_counts: tuple[tuple[int, ...], ...]  # per strip, per pair


def interval_transform(g: Graph, strips) -> IntervalResult:
    """Destroy every square inside each strip, preserving stable set weights.

    ``strips`` is a sequence of clique families (ordered cliques of node
    ids); the nodes outside them form the removal clique X.  Unchecked
    precondition (``build_strips`` proves it for ``decompose``'s strips,
    ``mwss.checks.strip_partition_violation`` checks it): the cliques are
    cliques, partition V - X, and touch only between consecutive cliques
    of one strip.  So the part of a K_i node's row in K_i+1, filtered in
    row order, is its sorted ``after`` row, and a K_i+1 node meets K_i
    only through those rows.

    The consecutive clique pair is the unit of work.  For each pair the
    ``after`` rows of K_i are split from ``g``'s rows through one
    membership set of K_i+1, ``EliminationState`` adds the pair's
    diagonals, and only the final row lengths are kept.  No other pair
    reads those rows, so one pair's rows and one clique membership set
    are alive at a time.
    """
    nbrs = g._nbrs
    before_len = [0] * g.n
    after_len = [0] * g.n
    cliques: list[tuple[int, ...]] = []
    added: list[tuple[int, int]] = []
    stage_counts = []
    for strip in strips:
        family = tuple(map(tuple, strip))
        cliques.extend(family)
        counts = []
        for ki, kj in pairwise(family):
            in_kj = set(kj).__contains__
            after = {u: tuple(filter(in_kj, nbrs[u])) for u in ki}
            state = EliminationState(after, g.weights, ki)
            counts.append(state.run())
            added.extend(state.added)
            for u, row in after.items():
                after_len[u] = len(state.a_sets.get(u) or row)
            for v, count in state.b_len.items():
                before_len[v] = count
        stage_counts.append(tuple(counts))
    return IntervalResult(before_len, after_len, tuple(cliques), tuple(added), tuple(stage_counts))
