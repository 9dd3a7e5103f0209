"""Immutable weighted graph model and the neighborhood/partition primitives.

Node ids are dense 0-based integers.  Weights are exact signed integers;
the solver never touches floating point.  A ``Graph`` is immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, compress
from typing import Iterable, Iterator, Sequence

from .errors import GraphInputError


class Graph:
    """Simple undirected graph with exact, unbounded integer node weights.

    Adjacency is held once, as one sorted tuple of neighbors per node
    (the rows), with no per-node or per-edge set.  ``has_edge`` bisects a
    row in O(log deg); code testing membership in one neighborhood many
    times builds a set from that row.  No self-loops, no parallel edges.
    """

    __slots__ = ("n", "m", "weights", "_nbrs")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        weights: Sequence[int] | None = None,
    ):
        if n < 0:
            raise GraphInputError("node count must be non-negative")
        if weights is None:
            weights = (1,) * n
        else:
            weights = tuple(int(w) for w in weights)
            if len(weights) != n:
                raise GraphInputError(f"expected {n} weights, got {len(weights)}")
        lists: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphInputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphInputError(f"self-loop at node {u}")
            lists[u].append(v)
            lists[v].append(u)
        duplicate = sort_rows(lists)
        if duplicate is not None:
            raise GraphInputError("duplicate edge (%d, %d)" % duplicate)
        self.n = n
        self.m = sum(map(len, lists)) // 2
        self.weights = weights
        self._nbrs = tuple(map(tuple, lists))

    @classmethod
    def _from_rows(cls, rows: Iterable[tuple[int, ...]], weights: Iterable[int]) -> Graph:
        """Graph whose node v has the open neighborhood ``rows[v]``.

        The rows must already be sorted, symmetric and free of self-loops;
        nothing is checked or re-sorted.
        """
        g = cls.__new__(cls)
        g._nbrs = tuple(rows)
        g.n = len(g._nbrs)
        g.m = sum(map(len, g._nbrs)) // 2
        g.weights = tuple(weights)
        return g

    def _bad_id(self, v) -> GraphInputError:
        return GraphInputError(f"node id {v} out of range for n={self.n}")

    def _check_ids(self, nodes: Sequence[int]):
        if nodes and not (0 <= min(nodes) and max(nodes) < self.n):
            raise self._bad_id(next(v for v in nodes if not 0 <= v < self.n))

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted open neighborhood of ``v``."""
        if 0 <= v < self.n:
            return self._nbrs[v]
        raise self._bad_id(v)

    def adj(self, v: int) -> frozenset:
        """Open neighborhood of ``v`` as a frozenset, built on each call."""
        return frozenset(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        if not 0 <= v < self.n:
            raise self._bad_id(v)
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending."""
        for u in range(self.n):
            for v in self._nbrs[u]:
                if v > u:
                    yield (u, v)

    def weight_of(self, nodes: Iterable[int]) -> int:
        w = self.weights
        return sum(w[v] for v in nodes)

    def is_stable(self, nodes: Iterable[int]) -> bool:
        """No two of ``nodes`` adjacent and none repeated."""
        nodes = list(nodes)
        self._check_ids(nodes)
        mark = bytearray(self.n)
        for v in nodes:
            if mark[v]:
                return False
            mark[v] = 1
        rows = map(self._nbrs.__getitem__, nodes)
        return not any(map(mark.__getitem__, chain.from_iterable(rows)))

    def non_edge(self, nodes: Iterable[int]) -> tuple[int, int] | None:
        """The first pair of ``nodes``, in their order, that is not an edge
        (a repeated node included), or None for a clique."""
        nodes = list(nodes)
        self._check_ids(nodes)
        members = set(nodes)
        others = len(nodes) - 1
        if len(members) == len(nodes) and all(
            len(members.intersection(self._nbrs[u])) == others for u in nodes
        ):
            return None
        pairs = ((u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :])
        return next((p for p in pairs if not self.has_edge(*p)), None)

    def is_clique(self, nodes: Iterable[int]) -> bool:
        return self.non_edge(nodes) is None

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.weights == other.weights
            and self._nbrs == other._nbrs
        )

    def __hash__(self):
        return hash((self.n, self.weights, self._nbrs))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def sort_rows(lists: list[list[int]]) -> tuple[int, int] | None:
    """Sort each adjacency list in place.  A parallel edge shows up as two
    equal neighbors in a sorted list; returns the first one, (u, v), or None."""
    for u, row in enumerate(lists):
        row.sort()
        if len(set(row)) != len(row):
            return u, next(a for a, b in zip(row, row[1:]) if a == b)
    return None


def _check_subset(g: Graph, nodes: Iterable[int]) -> list[int]:
    out = []
    for v in nodes:
        if not (0 <= v < g.n):
            raise GraphInputError(f"node id {v} out of range for n={g.n}")
        out.append(v)
    return out


def neighborhood(g: Graph, nodes: Iterable[int]) -> tuple[int, ...]:
    """N(W): nodes outside W adjacent to some node of W."""
    inside = set(_check_subset(g, nodes))
    out: set[int] = set()
    for v in inside:
        out.update(g._nbrs[v])
    return tuple(sorted(out - inside))


def closed_neighborhood(g: Graph, nodes: Iterable[int]) -> tuple[int, ...]:
    """N[W] = N(W) ∪ W."""
    nodes = _check_subset(g, nodes)
    return tuple(sorted(set(neighborhood(g, nodes)).union(nodes)))


@dataclass(frozen=True)
class SubgraphMap:
    """Id mapping produced by :func:`induced_subgraph`: subgraph node i is
    ``to_orig[i]``."""

    to_orig: tuple

    def lift(self, sub_nodes: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(self.to_orig[v] for v in sub_nodes))


def induced_subgraph(
    g: Graph, keep: Iterable[int], weights: Sequence[int] | None = None
) -> tuple[Graph, SubgraphMap]:
    """Subgraph induced by ``keep``, node v weighing ``weights[v]``
    (``g.weights`` by default).

    New ids are dense, assigned in ascending order of the original ids;
    each row is filtered and renumbered from ``g``'s and stays sorted.
    """
    keep_sorted = sorted(set(keep))
    g._check_ids(keep_sorted)
    weights = g.weights if weights is None else weights
    # a dict, not n-long arrays: solve induces many small components of g
    new_id = dict(zip(keep_sorted, range(len(keep_sorted))))
    inside, renumber = new_id.__contains__, new_id.__getitem__
    sub = Graph._from_rows(
        [tuple(map(renumber, filter(inside, g._nbrs[v]))) for v in keep_sorted],
        [weights[v] for v in keep_sorted],
    )
    return sub, SubgraphMap(tuple(keep_sorted))


def connected_components(
    g: Graph, nodes: Iterable[int] | None = None
) -> list[tuple[int, ...]]:
    """Node sets of the connected components of the subgraph induced by
    ``nodes`` (all of V by default), each ascending, ordered by smallest id."""
    nodes = range(g.n) if nodes is None else sorted(nodes)
    g._check_ids(nodes)
    seen = bytearray(b"\x01") * g.n
    for v in nodes:
        seen[v] = 0
    nbrs = g._nbrs
    comps = []
    for start in nodes:
        if seen[start]:
            continue
        seen[start] = 1
        comp = [start]
        for u in comp:  # the list grows while it is walked: a BFS queue
            for v in nbrs[u]:
                if not seen[v]:
                    seen[v] = 1
                    comp.append(v)
        comps.append(tuple(sorted(comp)))
    return comps


@dataclass(frozen=True)
class TwinReduction:
    """Result of :func:`remove_twins`, in the input graph's ids.

    ``live`` holds the surviving nodes, ascending; ``weights[v]`` is the
    merged weight of a live node v.  ``steps`` records the applied
    reductions in order: ``("merge", survivor, removed)`` for a
    non-adjacent twin whose weight was folded into the survivor,
    ``("drop", kept, removed)`` for an adjacent twin removal.  ``lift``
    replays the log backwards to expand a stable set of the graph induced
    by ``live`` (under ``weights``) into one of the input graph with the
    same total weight.
    """

    live: tuple
    weights: tuple
    steps: tuple

    def lift(self, nodes: Iterable[int]) -> tuple[int, ...]:
        chosen = set(nodes)
        for kind, survivor, removed in reversed(self.steps):
            if kind == "merge" and survivor in chosen:
                chosen.add(removed)
        return tuple(sorted(chosen))


_TWIN_LABEL_SEED = 0x7E1A  # fixes the neighborhood keys; results never depend on it


def remove_twins(g: Graph) -> TwinReduction:
    """Drop non-positive nodes, then collapse all twins among the rest;
    preserves the optimal stable set weight.

    A node of weight <= 0 is dead from the start: no optimum needs it, so
    it is neither live nor logged as a step.  Two live nodes are twins
    when their live neighborhoods satisfy N(u)∖{v} = N(v)∖{u}.
    Non-adjacent twins are merged into the lowest one (weights added); of
    adjacent twins only a maximum-weight one survives.  A round is one
    pass for each kind, non-adjacent first; passes repeat until two in a
    row remove nothing, so the graph induced by ``live`` is twin-free.

    Each node keeps a key, the sum of fixed pseudo-random labels over its
    live open neighborhood (a dead node's label is 0), which a removal
    updates in O(deg).  A pass groups the live nodes by key (plus their
    own label for closed neighborhoods) and splits each group exactly by
    comparing live neighbor sets, so a key collision never merges two
    non-twins.  A round costs O(n + m); no graph is built: dead nodes are
    marked in a bytearray and every result is in ``g``'s ids.
    """
    n = g.n
    nbrs = g._nbrs
    weight = list(g.weights)
    alive = bytearray(w > 0 for w in weight)
    rng = random.Random(_TWIN_LABEL_SEED)
    # 40-bit labels keep each key within a machine word, where sum() is fast.
    label = [rng.getrandbits(40) if a else 0 for a in alive]
    label_of = label.__getitem__
    live = list(compress(range(n), alive))
    key = [sum(map(label_of, row)) if a else 0 for row, a in zip(nbrs, alive)]
    steps: list[tuple] = []
    closed = False
    # After two passes in a row that removed nothing, the next pass would
    # see the same graph as the last pass of its kind.
    idle = 0
    while idle < 2:
        if closed:
            keys = [key[v] + label[v] for v in live]
        else:
            keys = [key[v] for v in live]
        classes = _twin_classes(g, alive, live, keys, closed)
        for members in classes:
            # Every live weight is positive, so an open class merges into
            # its lowest member; of adjacent twins a heaviest one survives.
            kept = max(members, key=lambda u: (weight[u], -u)) if closed else members[0]
            for u in members:
                if u == kept:
                    continue
                if closed:
                    steps.append(("drop", kept, u))
                else:
                    weight[kept] += weight[u]
                    steps.append(("merge", kept, u))
                alive[u] = 0
                lu = label[u]
                for x in nbrs[u]:
                    key[x] -= lu
        if classes:
            idle = 0
            live = list(compress(range(n), alive))
        else:
            idle += 1
        closed = not closed
    return TwinReduction(tuple(live), tuple(weight), tuple(steps))


def _twin_classes(g: Graph, alive, live, keys, closed: bool) -> list[list[int]]:
    """Classes of twins among the ``live`` nodes, whose neighborhood keys
    are ``keys``: nodes with equal open neighborhoods, or equal closed
    ones when ``closed``.  Each class is ascending; classes are ordered by
    their lowest member."""
    counts = Counter(keys)
    if len(counts) == len(keys):
        return []
    groups: dict[int, list[int]] = {}
    for v, k in zip(live, keys):
        if counts[k] > 1:
            groups.setdefault(k, []).append(v)
    nbrs = g._nbrs
    is_alive = alive.__getitem__

    def live_row(v: int) -> tuple[int, ...]:
        # Removed nodes no longer count as neighbors; a closed neighborhood
        # also holds the node itself.
        row = list(filter(is_alive, nbrs[v]))
        if closed:
            insort(row, v)
        return tuple(row)

    classes = []
    for members in groups.values():
        split: dict[tuple[int, ...], list[int]] = {}
        for v in members:
            split.setdefault(live_row(v), []).append(v)
        classes.extend(c for c in split.values() if len(c) > 1)
    classes.sort()
    return classes


@dataclass(frozen=True)
class RegularityResult:
    """Outcome of :func:`is_regular_node`.

    For a regular node, ``cliques`` holds two maximal cliques covering
    N[v], both containing ``v``.  Otherwise ``odd_cycle`` holds an
    odd-length cycle of the complement of G[N(v)] as refutation.
    """

    node: int
    cliques: tuple[tuple[int, ...], tuple[int, ...]] | None
    odd_cycle: tuple[int, ...] | None

    @property
    def is_regular(self) -> bool:
        return self.cliques is not None


def is_regular_node(g: Graph, v: int) -> RegularityResult:
    """Try to split N(v) into two cliques.

    Works on the complement of G[N(v)]: the node is regular iff that
    complement is bipartite.  The 2-coloring is deterministic (BFS per
    complement component, seeded at the lowest id, seed on side one), and
    each side is then extended to a maximal clique containing ``v``.
    """
    _check_subset(g, (v,))
    nb = g.neighbors(v)
    color = {}
    side_one: list[int] = []
    side_two: list[int] = []
    for seed in nb:
        if seed in color:
            continue
        color[seed] = 0
        parent = {seed: None}
        queue = deque([seed])
        while queue:
            u = queue.popleft()
            au = set(g._nbrs[u])
            for x in nb:
                if x == u or x in au:
                    continue  # complement edges are the non-adjacent pairs
                if x not in color:
                    color[x] = color[u] ^ 1
                    parent[x] = u
                    queue.append(x)
                elif color[x] == color[u]:
                    return RegularityResult(v, None, _odd_cycle(parent, u, x))
    for u in nb:
        (side_one if color[u] == 0 else side_two).append(u)
    # An empty side stays the bare {v}; extending it would just duplicate
    # the other cover clique.
    c1 = _extend_clique(g, [v] + sorted(side_one), sorted(side_two)) if side_one else (v,)
    c2 = _extend_clique(g, [v] + sorted(side_two), sorted(side_one)) if side_two else (v,)
    return RegularityResult(v, (c1, c2), None)


def _extend_clique(g: Graph, base: list[int], candidates: list[int]) -> tuple[int, ...]:
    clique = set(base)
    for u in candidates:
        if len(clique.intersection(g._nbrs[u])) == len(clique):
            clique.add(u)
    return tuple(sorted(clique))


def _odd_cycle(parent: dict, u: int, x: int) -> tuple[int, ...]:
    """Cycle through two same-colored BFS nodes joined by a complement edge."""
    path_u = [u]
    while parent[path_u[-1]] is not None:
        path_u.append(parent[path_u[-1]])
    path_x = [x]
    while parent[path_x[-1]] is not None:
        path_x.append(parent[path_x[-1]])
    on_u = {node: i for i, node in enumerate(path_u)}
    meet = next(i for i, node in enumerate(path_x) if node in on_u)
    join = path_x[meet]
    cycle = path_u[: on_u[join] + 1] + list(reversed(path_x[:meet]))
    return tuple(cycle)
