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
from itertools import chain, pairwise

from .graph import Graph


class EliminationState:
    """Stage machine for one consecutive clique pair K_i, K_j of a strip.

    ``rows`` maps each node of K_i that sees K_j to the set of its
    neighbours in K_j, the only adjacency the pair holds; stages add
    their diagonals to these sets in place.  ``a`` lists the live A nodes
    in stage order (longest row first, then lowest id), and ``b`` maps
    each live B node to the number of live A rows holding it, dropping it
    at 0.  So every live A row lies inside ``b``, and its length is its
    node's degree into B.
    """

    __slots__ = ("rows", "weights", "a", "b", "added")

    def __init__(self, rows: dict, weights):
        self.rows = rows
        self.weights = weights
        self.a = list(rows)
        self._rank_a()
        b = self.b = {}
        for v in chain.from_iterable(rows.values()):
            b[v] = b.get(v, 0) + 1
        self.added: list[tuple[int, int]] = []

    def _rank_a(self):
        rows = self.rows
        self.a.sort()
        self.a.sort(key=lambda u: len(rows[u]), reverse=True)

    def _add_edge(self, u: int, v: int):
        """Join the A node ``u`` to the B node ``v``."""
        self.rows[u].add(v)
        self.b[v] += 1
        self.added.append((u, v) if u < v else (v, u))

    def stage(self) -> str:
        """Run one stage; A must be non-empty.  Returns the action taken.
        The b1 that ``a_max`` misses is live, so a live A row holds it."""
        a, b, rows = self.a, self.b, self.rows
        a_max = a[0]
        row = rows[a_max]
        if len(row) == len(b):
            # a_max sees all of B: retire it, and every node of B that no
            # other live A row holds; no row changes
            del a[0]
            for v in row:
                b[v] -= 1
                if not b[v]:
                    del b[v]
            return "remove"
        if len(row) == len(b) - 1:
            (b1,) = b.keys() - row
            a2 = min(u for u in a if b1 in rows[u])
            if len(rows[a2]) == len(b) - 1:
                (b2,) = b.keys() - rows[a2]
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
        missing = self.b.keys() - self.rows[abar]
        w = self.weights
        spare = max(missing, key=lambda v: (w[v], -v))
        for v in sorted(missing):
            if v != spare:
                self._add_edge(abar, v)

    def run(self) -> int:
        """Run stages until A drains; returns the number of stages, at most
        3|A| <= 3|K_i|.

        Nesting: a live A row lies inside B, and ``remove`` retires its
        node only when len(row) = |B|, so its final row is the live B of
        that moment.  B only shrinks (a diagonal joins a node already in
        it), so the final rows of K_i (empty off A) form the chain under
        inclusion that ``consistent_order`` takes as its precondition.
        Stage bound: with R_u the row of u, Φ = Σ over live A nodes of
        1 + min(|B| - |R_u|, 2) starts at most 3|A| and is positive while
        A is non-empty.  ``remove`` drops its node's term and shrinks B
        only by nodes no live row holds.  ``kill_c4`` takes a node missing
        one B node to none, and ``kill_diags`` one missing at least two to
        one (a_max misses two in that branch, and a2 does, as |R_a2| <
        |R_a_max| = |B| - 1).  So every stage lowers Φ by at least 1.
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
    of one strip.  So a K_i+1 node meets K_i only through the rows of
    K_i cut to K_i+1.

    The consecutive clique pair is the unit of work.  For each pair those
    rows are cut from ``g``'s rows through one membership set of K_i+1,
    ``EliminationState`` adds the pair's diagonals to them, and only
    their lengths are kept: a K_i node's ``after_len`` is its final
    row's, and a K_i+1 node's ``before_len`` counts the final rows that
    hold it.  No other pair reads those rows, so one pair's rows and one
    clique membership set are alive at a time.
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
            kj_set = set(kj)
            rows = {u: row for u in ki if (row := kj_set.intersection(nbrs[u]))}
            state = EliminationState(rows, g.weights)
            counts.append(state.run())
            added.extend(state.added)
            for u, row in rows.items():
                after_len[u] = len(row)
                for v in row:
                    before_len[v] += 1
        stage_counts.append(tuple(counts))
    return IntervalResult(before_len, after_len, tuple(cliques), tuple(added), tuple(stage_counts))
