"""Immutable weighted graph model and the neighborhood/partition primitives.

Node ids are dense 0-based integers.  Weights are exact signed integers;
the solver never touches floating point.  A ``Graph`` is immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from itertools import chain, compress
from operator import index
from typing import Iterable, Iterator, Sequence

from .errors import GraphInputError, StructuralError


def _weight_error(weights) -> GraphInputError:
    """The error naming the first node whose weight ``operator.index``
    rejects (a float or a string is not an integer)."""
    if not isinstance(weights, Iterable):
        return GraphInputError(f"weights {weights!r} are not a sequence")
    for v, w in enumerate(weights):
        if not hasattr(type(w), "__index__"):
            return GraphInputError(f"weight {w!r} of node {v} is not an integer")
    return GraphInputError("weights are not integers")


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
        if not isinstance(n, int):
            raise GraphInputError(f"node count {n!r} is not an integer")
        if n < 0:
            raise GraphInputError("node count must be non-negative")
        if weights is None:
            weights = (1,) * n
        else:
            try:
                weights = tuple(map(index, weights))
            except TypeError:
                raise _weight_error(weights) from None
            if len(weights) != n:
                raise GraphInputError(f"expected {n} weights, got {len(weights)}")
        lists: list[list[int]] = [[] for _ in range(n)]
        for edge in edges:
            try:  # an id that is not an integer fails a comparison or an index
                u, v = edge
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphInputError(f"edge ({u}, {v}) out of range for n={n}")
                if u == v:
                    raise GraphInputError(f"self-loop at node {u}")
                lists[u].append(v)
                lists[v].append(u)
            except GraphInputError:  # a ValueError too, raised just above
                raise
            except (TypeError, ValueError):  # ValueError: not two items to unpack
                raise GraphInputError(f"edge {edge!r} is not a pair of integer node ids") from None
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


def live_nodes(g: Graph, live=None) -> Iterable[int]:
    """The nodes the mask ``live`` marks, ascending, or all of ``g``'s
    when ``live`` is None.

    A pipeline stage that takes ``live`` runs on one connected component
    of ``g`` in ``g``'s own ids and rows: ``live[v]`` is true exactly for
    the component's nodes, and a stage skips the unmarked (dead) ids that
    its rows hold.  No live node has a live neighbour outside the
    component, so a row filtered by the mask is the component's row.
    """
    return range(g.n) if live is None else compress(range(g.n), live)


def neighborhood(g: Graph, nodes: Iterable[int]) -> tuple[int, ...]:
    """N(W): nodes outside W adjacent to some node of W."""
    nodes = list(nodes)
    g._check_ids(nodes)
    inside = set(nodes)
    out: set[int] = set()
    for v in inside:
        out.update(g._nbrs[v])
    return tuple(sorted(out - inside))


def closed_neighborhood(g: Graph, nodes: Iterable[int]) -> tuple[int, ...]:
    """N[W] = N(W) ∪ W."""
    nodes = list(nodes)
    return tuple(sorted(set(neighborhood(g, nodes)).union(nodes)))


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph induced by ``keep``, with ``g``'s weights.

    New ids are dense, assigned in ascending order of the original ids,
    so subgraph node i is ``sorted(set(keep))[i]``; each row is filtered
    and renumbered from ``g``'s and stays sorted.
    """
    keep_sorted = sorted(set(keep))
    g._check_ids(keep_sorted)
    # a dict, not n-long arrays: solve induces many small components of g
    new_id = dict(zip(keep_sorted, range(len(keep_sorted))))
    inside, renumber = new_id.__contains__, new_id.__getitem__
    return Graph._from_rows(
        [tuple(map(renumber, filter(inside, g._nbrs[v]))) for v in keep_sorted],
        [g.weights[v] for v in keep_sorted],
    )


def connected_components(
    g: Graph, nodes: Iterable[int] | None = None
) -> list[tuple[int, ...]]:
    """Node sets of the connected components of the subgraph induced by
    ``nodes`` (all of V by default), each ascending, ordered by smallest id.

    A search keeps the set of nodes not yet placed and takes each row's
    unplaced neighbours with one set intersection, after an ``isdisjoint``
    test that skips a row with none; it stops once every node is placed.
    So a dense component costs one C-level pass per row, not a Python step
    per edge, and the rows walked after the last node is placed cost
    nothing.
    """
    nodes = range(g.n) if nodes is None else sorted(nodes)
    g._check_ids(nodes)
    unseen = set(nodes)
    nbrs = g._nbrs
    comps = []
    for start in nodes:
        if start not in unseen:
            continue
        unseen.discard(start)
        comp = [start]
        for u in comp:  # the list grows while it is walked: a BFS queue
            if not unseen:
                break
            row = nbrs[u]
            if not unseen.isdisjoint(row):
                found = unseen.intersection(row)
                unseen -= found
                comp.extend(found)
        if len(comp) == len(nodes):  # one component: ``nodes``, already sorted
            return [tuple(nodes)]
        comps.append(tuple(sorted(comp)))
        if not unseen:
            break
    return comps


def remove_twins(g: Graph) -> tuple[int, ...]:
    """The nodes of positive weight, ascending, less every adjacent twin
    but one heaviest node of its class (the lowest id on ties).

    A node of weight <= 0 is dead from the start: no optimum needs it.
    Two live nodes are adjacent twins when their live closed
    neighborhoods are equal, N[u] = N[v].  That is an equivalence, and a
    dropped node that tells two survivors apart has the same closed
    neighborhood as its class's survivor, which tells them apart too; so
    one pass leaves no two survivors adjacent twins.  The optimum weight
    is kept: a stable set holds at most one node of a class, and the
    survivor weighs no less.

    Non-adjacent twins, N(u) = N(v), are left live.  In a claw-free graph
    they do no harm: with K = N(u) not empty, every x in K sees both u and
    v, so claw-freeness puts N(x) inside K ∪ {u, v} and bounds alpha(K)
    by 2.  The component of u is then {u, v} joined to K, with alpha 2;
    otherwise u is isolated.  ``solve`` sends both to ``alpha3_fallback``,
    which is exact there.

    Each live node's key is the sum of the ids in its live closed
    neighborhood: one C-level ``sum`` over its row, filtered only when
    some node is dead.  Equal neighborhoods give equal keys; unequal ones
    may collide, so each group of equal keys is split exactly on the
    sorted live closed neighborhoods, and a collision never drops a
    non-twin.  The pass costs O(n + m), builds no graph and reads ``g``'s
    rows in place.
    """
    n = g.n
    nbrs = g._nbrs
    weight = g.weights
    alive = [w > 0 for w in weight]  # a list: its __getitem__ is a fast builtin
    live = list(compress(range(n), alive))
    if len(live) == n:
        keys = [sum(nbrs[v], v) for v in live]
    else:
        is_alive = alive.__getitem__
        keys = [sum(filter(is_alive, nbrs[v]), v) for v in live]
    for members in _twin_classes(g, alive, live, keys):
        kept = max(members, key=lambda u: (weight[u], -u))
        for u in members:
            if u != kept:
                alive[u] = False
    return tuple(compress(range(n), alive))


def _twin_classes(g: Graph, alive, live, keys) -> list[list[int]]:
    """Classes of adjacent twins, two or more nodes with equal live closed
    neighborhoods, among the ``live`` nodes, whose neighborhood keys are
    ``keys``."""
    counts = Counter(keys)
    if len(counts) == len(keys):
        return []
    groups: dict[int, list[int]] = {}
    for v, k in zip(live, keys):
        if counts[k] > 1:
            groups.setdefault(k, []).append(v)
    nbrs = g._nbrs
    all_alive = len(live) == g.n
    is_alive = alive.__getitem__
    classes = []
    for members in groups.values():
        split: dict[tuple[int, ...], list[int]] = {}
        for v in members:
            # dead nodes do not count; a closed neighborhood holds v itself
            row = nbrs[v] if all_alive else tuple(filter(is_alive, nbrs[v]))
            i = bisect_left(row, v)
            split.setdefault(row[:i] + (v,) + row[i:], []).append(v)
        classes.extend(c for c in split.values() if len(c) > 1)
    return classes


def is_regular_node(g: Graph, v: int, live=None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two maximal cliques, both containing ``v``, that cover N[v]
    (within the component that ``live`` marks, see ``live_nodes``).

    Works on the complement of G[N(v)]: the node is regular iff that
    complement is bipartite.  The 2-coloring is deterministic (BFS per
    complement component, seeded at the lowest id, seed on side one), and
    each side is then extended to a maximal clique containing ``v``.  An
    irregular node raises ``StructuralError("irregular", (v, *cycle))``
    with ``cycle`` an odd cycle of that complement.
    """
    nb = g.neighbors(v)
    if live is not None:
        nb = tuple(filter(live.__getitem__, nb))
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
                    raise StructuralError(
                        "irregular", (v, *_odd_cycle(parent, u, x)), "stable node is not regular"
                    )
    for u in nb:
        (side_one if color[u] == 0 else side_two).append(u)
    # An empty side stays the bare {v}; extending it would just duplicate
    # the other cover clique.
    c1 = _extend_clique(g, [v] + sorted(side_one), sorted(side_two)) if side_one else (v,)
    c2 = _extend_clique(g, [v] + sorted(side_two), sorted(side_one)) if side_two else (v,)
    return c1, c2


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
