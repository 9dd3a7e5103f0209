"""Immutable weighted graph model and the neighborhood/partition primitives.

Node ids are dense 0-based integers.  Weights are exact signed integers;
the solver never touches floating point.  A ``Graph`` is immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import GraphInputError

NodeSet = tuple  # sorted tuple of node ids; the package-wide carrier for node sets


class Graph:
    """Simple undirected graph with exact, unbounded integer node weights.

    Adjacency is held both as sorted tuples (deterministic iteration) and
    as frozensets (constant-time membership).  No self-loops, no parallel
    edges.
    """

    __slots__ = ("n", "m", "weights", "_nbrs", "_sets")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        weights: Sequence[int] | None = None,
        _trusted: bool = False,
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
        m = 0
        if _trusted:
            for u, v in edges:
                lists[u].append(v)
                lists[v].append(u)
                m += 1
        else:
            seen = set()
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphInputError(f"edge ({u}, {v}) out of range for n={n}")
                if u == v:
                    raise GraphInputError(f"self-loop at node {u}")
                key = (u, v) if u < v else (v, u)
                if key in seen:
                    raise GraphInputError(f"duplicate edge ({u}, {v})")
                seen.add(key)
                lists[u].append(v)
                lists[v].append(u)
                m += 1
        self.n = n
        self.m = m
        self.weights = weights
        self._nbrs = tuple(tuple(sorted(row)) for row in lists)
        self._sets = tuple(frozenset(row) for row in self._nbrs)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted open neighborhood of ``v``."""
        return self._nbrs[v]

    def adj(self, v: int) -> frozenset:
        """Open neighborhood of ``v`` as a frozenset."""
        return self._sets[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._sets[u]

    def degree(self, v: int) -> int:
        return len(self._nbrs[v])

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
        nodes = list(nodes)
        node_set = set(nodes)
        if len(node_set) != len(nodes):
            return False
        return all(not (self._sets[v] & node_set) for v in nodes)

    def is_clique(self, nodes: Iterable[int]) -> bool:
        nodes = list(nodes)
        for i, u in enumerate(nodes):
            au = self._sets[u]
            for v in nodes[i + 1 :]:
                if v not in au:
                    return False
        return True

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
        out.update(g._sets[v])
    return tuple(sorted(out - inside))


def closed_neighborhood(g: Graph, nodes: Iterable[int]) -> tuple[int, ...]:
    """N[W] = N(W) ∪ W."""
    inside = set(_check_subset(g, nodes))
    out = set(inside)
    for v in inside:
        out.update(g._sets[v])
    return tuple(sorted(out))


@dataclass(frozen=True)
class SubgraphMap:
    """Bidirectional id mapping produced by :func:`induced_subgraph`."""

    to_sub: dict
    to_orig: tuple

    def lift(self, sub_nodes: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(self.to_orig[v] for v in sub_nodes))


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, SubgraphMap]:
    """Subgraph induced by ``keep``, with weights carried over.

    New ids are dense, assigned in ascending order of the original ids.
    """
    keep_sorted = sorted(set(_check_subset(g, keep)))
    to_sub = {v: i for i, v in enumerate(keep_sorted)}
    edges = []
    for u in keep_sorted:
        su = to_sub[u]
        for v in g._nbrs[u]:
            if v > u and v in to_sub:
                edges.append((su, to_sub[v]))
    sub = Graph(
        len(keep_sorted),
        edges,
        [g.weights[v] for v in keep_sorted],
        _trusted=True,
    )
    return sub, SubgraphMap(to_sub, tuple(keep_sorted))


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Partition of V into maximal connected node sets, ordered by smallest id."""
    seen = bytearray(g.n)
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = 1
        queue = deque([start])
        comp = [start]
        while queue:
            u = queue.popleft()
            for v in g._nbrs[u]:
                if not seen[v]:
                    seen[v] = 1
                    comp.append(v)
                    queue.append(v)
        comps.append(tuple(sorted(comp)))
    return comps


@dataclass(frozen=True)
class TwinReduction:
    """Result of :func:`remove_twins`.

    ``steps`` records the applied reductions in order, over original ids:
    ``("merge", survivor, removed)`` for a non-adjacent twin whose weight
    was folded into the survivor, ``("drop", kept, removed)`` for an
    adjacent twin removal.  ``lift`` replays the log backwards to expand a
    stable set of the reduced graph into one of the original graph with
    the same total weight.
    """

    graph: Graph
    to_orig: tuple
    to_sub: dict
    steps: tuple

    def lift(self, reduced_nodes: Iterable[int]) -> tuple[int, ...]:
        chosen = {self.to_orig[v] for v in reduced_nodes}
        for kind, survivor, removed in reversed(self.steps):
            if kind == "merge" and survivor in chosen:
                chosen.add(removed)
        return tuple(sorted(chosen))


def remove_twins(g: Graph) -> TwinReduction:
    """Collapse all twins; preserves the optimal stable set weight.

    Two nodes are twins when N(u)∖{v} = N(v)∖{u}.  Non-adjacent twins are
    merged (weights added); of adjacent twins only a maximum-weight one
    survives.  Detection groups nodes by neighborhood signature and
    iterates to a fixpoint, so the output graph is twin-free.
    """
    adj: dict[int, set[int]] = {v: set(g._sets[v]) for v in range(g.n)}
    weight = list(g.weights)
    steps: list[tuple] = []
    alive = sorted(adj)
    while True:
        changed = False
        # Non-adjacent twins: identical open neighborhoods.  Only positive
        # weights are worth merging; a non-positive twin is deleted outright
        # (no optimum ever needs it next to its surviving twin).
        groups: dict[frozenset, list[int]] = {}
        for v in alive:
            groups.setdefault(frozenset(adj[v]), []).append(v)
        for members in groups.values():
            if len(members) < 2:
                continue
            positives = [u for u in members if weight[u] > 0]
            if positives:
                survivor = positives[0]
            else:
                survivor = max(members, key=lambda u: (weight[u], -u))
            for u in members:
                if u == survivor:
                    continue
                if weight[u] > 0:
                    weight[survivor] += weight[u]
                    steps.append(("merge", survivor, u))
                else:
                    steps.append(("drop", survivor, u))
                for x in adj[u]:
                    adj[x].discard(u)
                del adj[u]
            changed = True
        if changed:
            alive = sorted(adj)
        # Adjacent twins: identical closed neighborhoods.
        groups = {}
        for v in alive:
            groups.setdefault(frozenset(adj[v]) | {v}, []).append(v)
        for members in groups.values():
            if len(members) < 2:
                continue
            kept = max(members, key=lambda v: (weight[v], -v))
            for u in members:
                if u == kept:
                    continue
                for x in adj[u]:
                    adj[x].discard(u)
                del adj[u]
                steps.append(("drop", kept, u))
            changed = True
        if not changed:
            break
        alive = sorted(adj)
    to_orig = tuple(alive)
    to_sub = {v: i for i, v in enumerate(to_orig)}
    edges = [
        (to_sub[u], to_sub[v]) for u in to_orig for v in adj[u] if v > u
    ]
    reduced = Graph(len(to_orig), edges, [weight[v] for v in to_orig], _trusted=True)
    return TwinReduction(reduced, to_orig, to_sub, tuple(steps))


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
            au = g._sets[u]
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
    clique = list(base)
    for u in candidates:
        au = g._sets[u]
        if all(x in au for x in clique):
            clique.append(u)
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
