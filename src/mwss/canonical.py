"""Canonical stable sets: augmentation and alternation to a fixpoint.

A maximal stable set is canonical when no stable node has two
non-adjacent free neighbors (an augmenting P3) and no free node's closed
neighborhood strictly contains that of its unique stable neighbor (a
dominating free node).  ``canonicalize`` reaches that state in two
sequential phases over the seed set, mirroring the constructive proof:
augmentations first, then alternations, never re-scanning nodes that the
operations introduced.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphInputError, StructuralError
from .graph import Graph

STABLE = "stable"
FREE = "free"
BOUND = "bound"
SUPERFREE = "superfree"


class CanonicalState:
    """A stable set plus the derived per-node classification.

    Non-members are classified by their number of stable neighbors:
    0 superfree, 1 free, 2 bound.  Three or more stable neighbors of one
    node form a claw with it, so that raises ``StructuralError``.
    """

    __slots__ = ("graph", "members", "_count")

    def __init__(self, graph: Graph, members):
        members = frozenset(members)
        for v in members:
            if not (0 <= v < graph.n):
                raise GraphInputError(f"node id {v} out of range")
        count = [0] * graph.n
        for s in members:
            for u in graph._nbrs[s]:
                if u in members:
                    raise GraphInputError(f"set is not stable: edge ({s}, {u})")
                count[u] += 1
        for u in range(graph.n):
            if u in members:
                continue
            if count[u] >= 3:
                stable_nbrs = [s for s in graph.neighbors(u) if s in members]
                raise StructuralError(
                    "claw",
                    (u, *stable_nbrs[:3]),
                    "node with three stable neighbors (input contains a claw)",
                )
            if count[u] == 0:
                raise GraphInputError(f"set is not maximal: node {u} is uncovered")
        self.graph = graph
        self.members = members
        self._count = tuple(count)

    @classmethod
    def _from_counts(cls, graph: Graph, members, count) -> CanonicalState:
        """The state of a stable set ``members`` whose stable-neighbor
        counts ``count`` the caller already holds.  Stability is the
        caller's to guarantee; a node with three or more stable neighbors,
        or a non-member with none, is reported as the constructor would."""
        members = frozenset(members)
        if max(count, default=0) >= 3 or count.count(0) != len(members):
            return cls(graph, members)
        st = cls.__new__(cls)
        st.graph = graph
        st.members = members
        st._count = tuple(count)
        return st

    @property
    def stable_set(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def classification(self, v: int) -> str:
        if v in self.members:
            return STABLE
        c = self._count[v]
        return (SUPERFREE, FREE, BOUND)[c]

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
        for s in self.graph.neighbors(v):
            if s in self.members:
                return s
        raise AssertionError("free node without stable neighbor")

    def free_nodes(self) -> tuple[int, ...]:
        return tuple(
            v for v in range(self.graph.n) if v not in self.members and self._count[v] == 1
        )


@dataclass
class CanonicalizeStats:
    steps: int = 0
    augmentations: int = 0
    alternations: int = 0


def greedy_members(g: Graph, seed: tuple[int, ...] = ()) -> list[int]:
    """Ascending greedy maximal stable set extending the stable set
    ``seed``: after the seed, take each node no member sees."""
    nbrs = g._nbrs
    blocked = bytearray(g.n)
    members = list(seed)
    for s in members:
        blocked[s] = 1
        for u in nbrs[s]:
            blocked[u] = 1
    for v in range(g.n):
        if not blocked[v]:
            members.append(v)
            for u in nbrs[v]:
                blocked[u] = 1
    return members


def greedy_maximal_stable_set(g: Graph) -> CanonicalState:
    """Deterministic seed set: take nodes in ascending id when possible."""
    return CanonicalState(g, greedy_members(g))


def canonicalize(
    g: Graph, seed: CanonicalState
) -> tuple[CanonicalState, CanonicalizeStats]:
    """Grow a maximal stable set into a canonical one.

    Phase one scans the seed's stable nodes in ascending id and applies
    augmentations; phase two scans the surviving set and applies
    alternations.  Nodes added by either operation are never re-scanned;
    no new augmenting P3 or dominating free node can appear at them, so a
    single pass per phase suffices and total work stays linear in the
    edge count (tracked by ``stats.steps``).
    """
    if seed.graph is not g:
        seed = CanonicalState(g, seed.members)
    members = set(seed.members)
    count = list(seed._count)
    stats = CanonicalizeStats()
    nbrs = g._nbrs

    def shift(v: int, delta: int):
        for u in nbrs[v]:
            count[u] += delta
        stats.steps += len(nbrs[v])

    # Phase one: augmentations at the original stable nodes.
    for s in sorted(seed.members):
        if s not in members:
            continue
        free = [u for u in nbrs[s] if u not in members and count[u] == 1]
        stats.steps += len(nbrs[s])
        pair = None
        for i, x in enumerate(free):
            ax = set(nbrs[x])
            for y in free[i + 1 :]:
                stats.steps += 1
                if y not in ax:
                    pair = (x, y)
                    break
            if pair:
                break
        if pair is None:
            continue
        x, y = pair
        ax, ay = set(nbrs[x]), set(nbrs[y])
        for t in free:
            stats.steps += 1
            if t not in (x, y) and t not in ax and t not in ay:
                raise StructuralError(
                    "claw", (s, x, y, t), "three independent free neighbors"
                )
        members.discard(s)
        members.add(x)
        members.add(y)
        shift(s, -1)
        shift(x, +1)
        shift(y, +1)
        stats.augmentations += 1

    # Phase two: alternations at the surviving phase-one nodes.
    for s in sorted(members):
        deg_s = len(nbrs[s])
        best = None
        best_deg = -1
        for x in nbrs[s]:
            if x in members or count[x] != 1:
                continue
            ax = set(nbrs[x])
            dominated = True
            for t in nbrs[s]:
                stats.steps += 1
                if t != x and t not in ax:
                    dominated = False
                    break
            if dominated and len(nbrs[x]) > deg_s and len(nbrs[x]) > best_deg:
                best = x
                best_deg = len(nbrs[x])
        stats.steps += deg_s
        if best is None:
            continue
        members.discard(s)
        members.add(best)
        shift(s, -1)
        shift(best, +1)
        stats.alternations += 1

    return CanonicalState._from_counts(g, members, count), stats
