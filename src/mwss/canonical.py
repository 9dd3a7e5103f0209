"""Canonical stable sets: augmentation and alternation to a fixpoint.

A maximal stable set is canonical when no stable node has two
non-adjacent free neighbors (an augmenting P3) and no free node's closed
neighborhood strictly contains that of its unique stable neighbor (a
dominating free node).  ``canonicalize`` reaches that state in two
sequential phases over the seed set, mirroring the constructive proof:
augmentations first, then alternations, never re-scanning nodes that the
operations introduced, and hands the set on as an ascending tuple.
Members' neighbor counts come from ``stable_counts``; the per-node
classification built on them (``CanonicalState``) is in ``mwss.checks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .errors import GraphInputError, StructuralError
from .graph import Graph, live_nodes


def stable_counts(g: Graph, members, live=None) -> list[int]:
    """Per node, its number of neighbors in the set ``members``.

    Checks that ``members`` is a maximal stable set of ``g`` (of the
    component that ``live`` marks, see ``graph.live_nodes``) in which no
    node has three or more members as neighbors: such a node forms a claw
    with three of them, so that raises ``StructuralError``.  An unmarked
    node's count is kept but not checked.
    """
    for v in members:
        if not (0 <= v < g.n):
            raise GraphInputError(f"node id {v} out of range")
    count = [0] * g.n
    for s in members:
        for u in g._nbrs[s]:
            if u in members:
                raise GraphInputError(f"set is not stable: edge ({s}, {u})")
            count[u] += 1
    for u in live_nodes(g, live):
        if u in members:
            continue
        if count[u] >= 3:
            stable_nbrs = [s for s in g.neighbors(u) if s in members]
            raise StructuralError(
                "claw",
                (u, *stable_nbrs[:3]),
                "node with three stable neighbors (input contains a claw)",
            )
        if count[u] == 0:
            raise GraphInputError(f"set is not maximal: node {u} is uncovered")
    return count


@dataclass
class CanonicalizeStats:
    steps: int = 0
    augmentations: int = 0
    alternations: int = 0


def greedy_members(g: Graph, seed: tuple[int, ...] = (), live=None) -> list[int]:
    """Ascending greedy maximal stable set extending the stable set
    ``seed``: after the seed, take each node no member sees, among the
    nodes that ``live`` marks (see ``graph.live_nodes``)."""
    nbrs = g._nbrs
    blocked = bytearray(g.n)
    members = list(seed)
    for s in members:
        blocked[s] = 1
        for u in nbrs[s]:
            blocked[u] = 1
    for v in live_nodes(g, live):
        if not blocked[v]:
            members.append(v)
            for u in nbrs[v]:
                blocked[u] = 1
    return members


def canonicalize(g: Graph, seed, live=None) -> tuple[tuple[int, ...], CanonicalizeStats]:
    """Grow the maximal stable set ``seed`` (any iterable of its members)
    into a canonical one, returned as an ascending tuple.

    Phase one scans the seed's stable nodes in ascending id and applies
    augmentations; phase two scans the surviving set and applies
    alternations.  Nodes added by either operation are never re-scanned;
    no new augmenting P3 or dominating free node can appear at them, so a
    single pass per phase suffices and total work stays linear in the
    edge count (tracked by ``stats.steps``).  The seed is checked as
    ``stable_counts`` checks it; so is the result when an augmentation
    left a node with three members as neighbors (a claw) or none.

    With ``live`` (see ``graph.live_nodes``) it works on the marked
    component: each row it walks or counts is filtered by the mask first,
    so the set and ``stats.steps`` are those of the component's graph.
    """
    members = set(seed)
    count = stable_counts(g, members, live)
    stats = CanonicalizeStats()
    nbrs = g._nbrs
    if live is None:
        row = nbrs.__getitem__
    else:
        is_live = live.__getitem__

        def row(v: int) -> tuple[int, ...]:
            return tuple(filter(is_live, nbrs[v]))

    def shift(v: int, delta: int):
        r = row(v)
        for u in r:
            count[u] += delta
        stats.steps += len(r)

    # Phase one: augmentations at the original stable nodes.
    for s in sorted(members):
        r = row(s)
        free = [u for u in r if u not in members and count[u] == 1]
        stats.steps += len(r)
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
        r = row(s)
        deg_s = len(r)
        best = None
        best_deg = -1
        for x in r:
            if x in members or count[x] != 1:
                continue
            ax = set(nbrs[x])
            dominated = True
            for t in r:
                stats.steps += 1
                if t != x and t not in ax:
                    dominated = False
                    break
            if dominated:
                deg_x = len(row(x))
                if deg_x > deg_s and deg_x > best_deg:
                    best = x
                    best_deg = deg_x
        stats.steps += deg_s
        if best is None:
            continue
        members.discard(s)
        members.add(best)
        shift(s, -1)
        shift(best, +1)
        stats.alternations += 1

    if live is not None:
        count = list(compress(count, live))  # unmarked nodes' counts are moot
    if max(count, default=0) >= 3 or count.count(0) != len(members):
        stable_counts(g, members, live)  # raises the claw or the uncovered node
    return tuple(sorted(members)), stats
