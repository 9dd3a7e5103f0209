"""Wings and the wing graph.

With respect to a maximal stable set, every bound node sees exactly two
stable nodes and lands in the bound-wing of that pair.  A free node joins
the wing of (its stable neighbor, t) when it has a free neighbor anchored
at t; a free node with no dissimilar free neighbor belongs to no wing,
which is harmless downstream and reported as ``unassigned``.  A free node
reaching two different wings certifies a claw or a net.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .canonical import CanonicalState
from .errors import GraphInputError, StructuralError
from .graph import Graph


@dataclass(frozen=True)
class Wing:
    """W(s, t): bound members plus the two directed free sides."""

    ends: tuple[int, int]
    bound: tuple[int, ...]
    free_lo: tuple[int, ...]  # free nodes anchored at min(ends)
    free_hi: tuple[int, ...]  # free nodes anchored at max(ends)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.bound) | set(self.free_lo) | set(self.free_hi)))


@dataclass(frozen=True)
class WingTable:
    wings: tuple[Wing, ...]
    wing_of: dict
    unassigned_free: tuple[int, ...]

    def wing_between(self, s: int, t: int) -> Wing | None:
        key = (s, t) if s < t else (t, s)
        for w in self.wings:
            if w.ends == key:
                return w
        return None


def build_wing_table(g: Graph, st: CanonicalState) -> WingTable:
    """Assign every bound node, and each free node that has one, to its wing."""
    if st.graph is not g:
        raise GraphInputError("state was built for a different graph")
    anchor = {}
    for u in range(g.n):
        if st.is_free(u):
            anchor[u] = st.stable_neighbor(u)
    buckets: dict[tuple[int, int], dict] = {}

    def bucket(s, t):
        key = (s, t) if s < t else (t, s)
        return buckets.setdefault(key, {"bound": [], "lo": [], "hi": []})

    unassigned = []
    for u in range(g.n):
        if st.is_bound(u):
            s, t = (v for v in g.neighbors(u) if st.is_stable_node(v))
            bucket(s, t)["bound"].append(u)
        elif st.is_free(u):
            s = anchor[u]
            partner = None
            witness_nbr = None
            for v in g.neighbors(u):
                t = anchor.get(v)
                if t is None or t == s:
                    continue
                if partner is None:
                    partner, witness_nbr = t, v
                elif t != partner:
                    if g.has_edge(witness_nbr, v):
                        raise StructuralError(
                            "net",
                            (u, witness_nbr, v, s, partner, t),
                            "free node in two wings",
                        )
                    raise StructuralError(
                        "claw", (u, s, witness_nbr, v), "free node in two wings"
                    )
            if partner is None:
                unassigned.append(u)
            else:
                side = "lo" if s == min(s, partner) else "hi"
                bucket(s, partner)[side].append(u)
    wings = []
    wing_of = {}
    for key in sorted(buckets):
        data = buckets[key]
        wing = Wing(
            key,
            tuple(sorted(data["bound"])),
            tuple(sorted(data["lo"])),
            tuple(sorted(data["hi"])),
        )
        idx = len(wings)
        wings.append(wing)
        for u in wing.members:
            wing_of[u] = idx
    return WingTable(tuple(wings), wing_of, tuple(unassigned))


@dataclass(frozen=True)
class WingGraph:
    """H(S, T): stable nodes joined when their wing is non-empty.

    For conforming inputs with a canonical set of size >= 4 this is a
    path or a cycle; ``order`` walks it end to end.  The orientation is
    fixed: paths start at the lower-id endpoint, cycles start at the
    lowest node and move toward its lower-id neighbor.
    """

    order: tuple[int, ...]
    shape: str  # "path" | "cycle"
    edges: tuple[tuple[int, int], ...]


def build_wing_graph(wt: WingTable, st: CanonicalState) -> WingGraph:
    stable = st.stable_set
    if len(stable) < 4:
        raise GraphInputError("wing graph needs a stable set of size at least 4")
    nbrs: dict[int, list[int]] = {s: [] for s in stable}
    for wing in wt.wings:
        s, t = wing.ends
        nbrs[s].append(t)
        nbrs[t].append(s)
    for s in stable:
        if len(nbrs[s]) > 2:
            raise StructuralError(
                "wing_degree",
                (s, *sorted(nbrs[s])),
                "stable node defines more than two wings",
            )
        nbrs[s].sort()
    # Connectivity check.
    seen = {stable[0]}
    queue = deque([stable[0]])
    while queue:
        u = queue.popleft()
        for v in nbrs[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    if len(seen) != len(stable):
        raise StructuralError(
            "wing_disconnected",
            tuple(sorted(set(stable) - seen)),
            "wing graph is disconnected",
        )
    ends = [s for s in stable if len(nbrs[s]) == 1]
    if ends:
        if len(ends) != 2:
            raise StructuralError("wing_shape", tuple(ends), "wing graph is not a path")
        start = min(ends)
        shape = "path"
    else:
        start = stable[0]
        shape = "cycle"
    order = [start]
    prev = None
    cur = start
    while True:
        nxt = [v for v in nbrs[cur] if v != prev]
        if not nxt:
            break
        step = min(nxt) if prev is None else nxt[0]
        if shape == "cycle" and step == start:
            break
        order.append(step)
        prev, cur = cur, step
        if len(order) > len(stable):
            raise StructuralError("wing_shape", tuple(order), "wing graph walk failed")
    if len(order) != len(stable):
        raise StructuralError("wing_shape", tuple(order), "wing graph is not a single path or cycle")
    edges = tuple(w.ends for w in wt.wings)
    return WingGraph(tuple(order), shape, edges)
