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

    ``after`` maps each node of K_i to its neighbors in K_j and ``before``
    each node of K_j to its neighbors in K_i, as sorted tuples;
    ``interval_transform`` passes dicts of this pair's rows only, and any
    container indexable by node id will do.  A node of K_i meets
    K_j only through ``after`` and a node of K_j meets K_i only through
    ``before``, so ``d`` starts from the row lengths.  It counts each
    live node's live neighbors on the other side: a retired A node sees
    all of B, a diagonal joins A to B, and B drops a node once its ``d``
    is 0, when no live A node sees it.  ``a`` lists the live nodes of A
    in stage order and ``b`` is the set of live nodes of B.

    A ``remove`` stage reads only ``d``.  The other stages read a node's
    row as a set, built on first use and kept in ``a_sets`` (A node ->
    its neighbors in K_j) or ``b_sets`` (B node -> its neighbors in K_i);
    added diagonals extend those sets.  ``run`` writes the rows of nodes
    that gained diagonals back as sorted tuples.  A diagonal joins an
    ``after`` row of K_i to a ``before`` row of K_j, which no other pair
    reads, so ``interval_transform`` builds and drops the rows pair by
    pair.
    """

    __slots__ = ("before", "after", "weights", "a", "b", "d", "a_sets", "b_sets", "added")

    def __init__(self, before, after, weights, ki, kj):
        self.before = before
        self.after = after
        self.weights = weights
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
            a2 = min(self._b_set(b1).intersection(a))
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
        returns the number of stages, at most 3|A| <= 3|K_i|.

        Nesting: a live A node u sees only live B nodes, and ``remove``
        retires u only when ``d[u]`` = |B|, so its final ``after`` row is
        the live B of that moment.  B only shrinks, so the ``after`` rows
        of K_i (empty off A) form the chain under inclusion that
        ``consistent_order`` takes as its precondition.
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
        if self.added:
            for rows, sets in ((self.after, self.a_sets), (self.before, self.b_sets)):
                for v, s in sets.items():
                    if len(s) != len(rows[v]):  # sets only grow
                        rows[v] = tuple(sorted(s))
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
    row order, is its ``after`` row, and the part of a K_i+1 node's row in
    K_i is its ``before`` row.

    The consecutive clique pair is the unit of work.  For each pair the
    ``after`` rows of K_i and the ``before`` rows of K_i+1 are split from
    ``g``'s rows, ``EliminationState`` adds the pair's diagonals to them,
    and only their lengths are kept.  No other pair reads those rows, so
    one pair's rows and at most three clique membership sets are alive at
    a time.
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
        members = ((k, set(k).__contains__) for k in family)
        for (ki, in_ki), (kj, in_kj) in pairwise(members):
            after = {u: tuple(filter(in_kj, nbrs[u])) for u in ki}
            before = {v: tuple(filter(in_ki, nbrs[v])) for v in kj}
            state = EliminationState(before, after, g.weights, ki, kj)
            counts.append(state.run())
            added.extend(state.added)
            for u, row in after.items():
                after_len[u] = len(row)
            for v, row in before.items():
                before_len[v] = len(row)
        stage_counts.append(tuple(counts))
    return IntervalResult(before_len, after_len, tuple(cliques), tuple(added), tuple(stage_counts))
