"""End-to-end solver: preprocessing, dispatch, and the final maximum.

``solve`` keeps the nodes of positive weight less the dropped adjacent
twins, and handles each connected component of those live nodes on its
own, induced straight from the input: components without a stable set of
size four go to exact bounded enumeration, the rest through the strip
pipeline, where the answer is the best of the strip optimum and, for
every node v of the removal clique, v's weight plus the strip optimum
avoiding N[v].  A component's ids map back through its node tuple, so the
chosen set is already one of the input.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress

from .canonical import canonicalize, greedy_members
from .decomposition import Decomposition, decompose
from .errors import MWSSError, StructuralError
from .graph import Graph, connected_components, induced_subgraph, remove_twins
from .interval_mwss import ConsistentOrder, consistent_order, mwss_on_order
from .square_elimination import IntervalResult, interval_transform

ROUTE_ALPHA3 = "alpha3_fallback"
ROUTE_PIPELINE = "strip_pipeline"
ROUTE_MERGE = "component_merge"


@dataclass(frozen=True)
class Solution:
    value: int
    nodes: tuple[int, ...]
    route: str
    certificates: dict | None = None


@dataclass
class PipelineDetail:
    """Intermediate artifacts of one component's pipeline run (trace/tests)."""

    graph: Graph
    stable_set: tuple[int, ...]  # the canonical stable set, ascending
    decomposition: Decomposition
    interval: IntervalResult
    order: ConsistentOrder  # over V - X, strip after strip
    base_value: int
    per_vertex: tuple[tuple[int, int, tuple[int, ...]], ...]
    canonical_steps: int
    dp_passes: int


def _non_neighbour_bits(g: Graph, order) -> list[int]:
    """Per node v, the nodes not adjacent to v (v excluded) as an int whose
    bit i stands for ``order[i]``, parsed from a string of binary digits."""
    n = g.n
    place = [0] * n  # digit index of each node's bit
    for i, v in enumerate(order):
        place[v] = n - 1 - i
    out = []
    for v in range(n):
        digits = bytearray(b"1") * n
        digits[place[v]] = 48  # ord("0")
        for u in g.neighbors(v):
            digits[place[u]] = 48
        out.append(int(digits, 2))
    return out


def _weight_ranked_bits(g: Graph) -> tuple[list[int], list[int]]:
    """(order, bits): the nodes by descending weight, lower id first on
    ties, and ``_non_neighbour_bits`` over that order."""
    order = sorted(range(g.n), key=g.weights.__getitem__, reverse=True)  # stable
    return order, _non_neighbour_bits(g, order)


# (graph, order, bits) that find_stable4 built for a graph it found to have
# alpha <= 3, taken by the alpha3_fallback call on that graph which follows
# it in solve_component, so each such component builds its bits once.  It
# lives until the next call of either; no answer depends on it.
_handoff = None


def find_stable4(g: Graph) -> tuple[int, ...] | None:
    """A stable set of size four, or None exactly when alpha(G) <= 3.

    Fast path: the first four nodes of an ascending greedy maximal stable
    set.  If that stays below four, grow it by augmenting paths (see
    ``_augment_to_four``), which either reaches four members, proves
    alpha(G) <= 3, or raises ``StructuralError("claw")`` with a witness.
    """
    global _handoff
    _handoff = None
    greedy = greedy_members(g)
    if len(greedy) >= 4:
        return tuple(greedy[:4])
    order, nn = _weight_ranked_bits(g)
    members = _augment_to_four(greedy, order, nn)
    if members is None:
        _handoff = (g, order, nn)
        return None
    return tuple(sorted(members))


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def _nodes(bits: int, order):
    """The nodes of a bitset over ``order``, lowest bit first."""
    while bits:
        low = bits & -bits
        bits ^= low
        yield order[low.bit_length() - 1]


def _augment_to_four(members, order, nn) -> list[int] | None:
    """Grow the maximal stable set ``members`` (at most 3 nodes) to four
    nodes by augmenting paths, or return None when it has none.

    Each round sorts the non-members by the members they see: free at s
    (only s) or bound to {s, t}; a node seeing three is a claw.  Every
    member's neighbourhood is checked once for a stable triple (a claw
    centred there).  Then the shortest of these augmenting paths, all
    nodes pairwise non-adjacent, replaces its members: two nodes free at
    s; free at s, bound to {s, t}, free at t; free at s, bound to {s, t},
    bound to {t, u}, free at u.  The set stays maximal, as a node left
    unseen would form a claw with a replaced member and two path nodes.

    The search is exact without claw-freeness elsewhere in the graph: for
    a stable set T one larger than S, each node of T - S sees at most two
    members and each member at most two nodes of T - S, so S and T differ
    along paths and cycles, one of them a path with one more node of T
    than of S.  The same count bounds alpha(G) by 2|S|, so a single
    member needs no search.  Each search costs at most one AND per pair
    of nodes.  Bit i of every set stands for ``order[i]``; ``nn`` holds
    the non-neighbourhoods (see ``_non_neighbour_bits``).
    """
    full = (1 << len(order)) - 1
    checked = {}  # member -> its neighbourhood, checked for a claw once
    while True:
        seen = []
        for s in members:
            ns = checked.get(s)
            if ns is None:
                ns = checked[s] = full ^ nn[s] ^ (1 << order.index(s))
                if ns.bit_count() > 2:
                    _check_claw_at(s, ns, order, nn)
            seen.append(ns)
        if len(members) < 2:
            return None
        if len(members) == 3:
            three = seen[0] & seen[1] & seen[2]
            if three:
                raise StructuralError(
                    "claw",
                    (order[_lowest(three)], *sorted(members)),
                    "node with three stable neighbors (input contains a claw)",
                )
            free = [
                seen[0] & ~(seen[1] | seen[2]),
                seen[1] & ~(seen[0] | seen[2]),
                seen[2] & ~(seen[0] | seen[1]),
            ]
        else:
            free = [seen[0] & ~seen[1], seen[1] & ~seen[0]]
        found = _augmenting_path(members, seen, free, order, nn)
        if found is None:
            return None
        out, added = found
        members = [s for i, s in enumerate(members) if i not in out] + added
        if len(members) == 4:
            return members


def _check_claw_at(s: int, ns: int, order, nn):
    """Raise ``claw`` if the neighbourhood ``ns`` of ``s`` holds a stable
    triple: one AND per non-edge (x, y) inside it, z taken after y."""
    rest = ns
    while rest:
        low = rest & -rest
        rest ^= low
        x = order[low.bit_length() - 1]
        later = nn[x] & rest
        while later:
            low_y = later & -later
            later ^= low_y
            y = order[low_y.bit_length() - 1]
            hit = later & nn[y]
            if hit:
                raise StructuralError(
                    "claw",
                    (s, x, y, order[_lowest(hit)]),
                    "stable triple in a member's neighbourhood (input contains a claw)",
                )


def _augmenting_path(members, seen, free, order, nn):
    """(positions of the members swapped out, nodes added) of a shortest
    augmenting path, or None; ``seen`` and ``free`` hold each member's
    neighbourhood and free class.  See ``_augment_to_four``."""
    for i, rest in enumerate(free):  # x, y free at s
        while rest:
            low = rest & -rest
            rest ^= low
            x = order[low.bit_length() - 1]
            hit = nn[x] & rest
            if hit:
                return (i,), [x, order[_lowest(hit)]]
    pairs = ((0, 1),) if len(seen) == 2 else ((0, 1), (0, 2), (1, 2))
    for i, j in pairs:  # free at s, bound to {s, t}, free at t
        found = _free_bound_free(free[i], seen[i] & seen[j], free[j], order, nn)
        if found:
            return (i, j), found
    if len(seen) == 3:  # free at s, bound to {s, t} and to {t, u}, free at u
        for i, t, j in ((0, 1, 2), (1, 0, 2), (0, 2, 1)):
            found = _three_member_path(
                (members[i], members[t], members[j]),
                free[i], seen[i] & seen[t], seen[t] & seen[j], free[j], order, nn,
            )
            if found:
                return (0, 1, 2), found
    return None


def _three_member_path(stu, free_s, bound_st, bound_tu, free_u, order, nn):
    """Nodes x, b1, b2, y of the four classes, pairwise non-adjacent, or
    None; ``stu`` are the members s, t, u.

    A node bound to {s, t} that sees a node y free at u is a claw centred
    on it, with leaves s, t and y; raising on those first leaves only the
    pairs (x, b1), (b2, y) and (x, y) to test.  So for each x, the nodes
    b2 missing some b1 that x misses are gathered in one bitset, and each
    y that x misses costs one AND: O(n^2) ANDs in all.
    """
    if not (free_s and bound_st and bound_tu and free_u):
        return None
    s, t, u = stu
    for bound, free, ends in ((bound_st, free_u, (s, t)), (bound_tu, free_s, (u, t))):
        for y in _nodes(free, order):
            hit = bound & ~nn[y]
            if hit:
                raise StructuralError(
                    "claw",
                    (order[_lowest(hit)], *ends, y),
                    "bound node seeing a node free at the third member (input contains a claw)",
                )
    for x in _nodes(free_s, order):
        ys = free_u & nn[x]
        if not ys:
            continue
        reach = 0  # nodes missing some b1 that x misses
        for b1 in _nodes(bound_st & nn[x], order):
            reach |= nn[b1]
        reach &= bound_tu
        for y in _nodes(ys if reach else 0, order):
            hit = reach & nn[y]
            if hit:
                b2 = order[_lowest(hit)]
                b1 = order[_lowest(bound_st & nn[x] & nn[b2])]
                return [x, b1, b2, y]
    return None


def _free_bound_free(left, middle, right, order, nn) -> list[int] | None:
    """Nodes x, b, y of ``left``, ``middle`` and ``right``, pairwise
    non-adjacent, or None."""
    if not (left and right):
        return None
    for b in _nodes(middle, order):
        ys = right & nn[b]
        for x in _nodes(left & nn[b] if ys else 0, order):
            hit = ys & nn[x]
            if hit:
                return [x, b, order[_lowest(hit)]]
    return None


def alpha3_fallback(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact optimum when alpha(G) <= 3: scan sets of size 0, 1, 2, 3.

    Only non-edges (u, v) are walked, u ascending and then v ascending;
    a node adjacent to every later node is skipped at once.
    Non-neighbourhood bits are ranked by descending weight, lower id first
    on ties, so the best third node for a non-edge (u, v) is the lowest
    set bit of the two non-neighbourhoods' intersection.  The bits are
    the ones ``find_stable4`` built for ``g`` when it was the last call
    and found alpha(G) <= 3.
    """
    global _handoff
    handoff, _handoff = _handoff, None
    if handoff is not None and handoff[0] is g:
        _, order, nn = handoff
    else:
        order, nn = _weight_ranked_bits(g)
    del handoff
    best = 0
    best_set: tuple[int, ...] = ()
    w = g.weights
    n = g.n
    for v in range(n):
        if w[v] > best:
            best, best_set = w[v], (v,)
    for u in range(n):
        row = g.neighbors(u)
        above = row[bisect_right(row, u) :]
        if len(above) == n - 1 - u:
            continue  # u sees every later node
        unseen = bytearray(b"\x01") * n
        for x in above:
            unseen[x] = 0
        nn_u = nn[u]
        for v in compress(range(u + 1, n), unseen[u + 1 :]):
            pair = w[u] + w[v]
            if pair > best:
                best, best_set = pair, (u, v)
            common = nn_u & nn[v]
            if common:
                z = order[(common & -common).bit_length() - 1]
                if pair + w[z] > best:
                    best, best_set = pair + w[z], tuple(sorted((u, v, z)))
    return best, best_set


def solve_component(
    g: Graph, collect: bool = False
) -> tuple[int, tuple[int, ...], str, PipelineDetail | None]:
    """Solve one connected component (positive-weight, no adjacent twins)."""
    seed4 = find_stable4(g)
    if seed4 is None:
        value, nodes = alpha3_fallback(g)
        return value, nodes, ROUTE_ALPHA3, None
    stable, stats = canonicalize(g, greedy_members(g, seed4))
    dec = decompose(g, stable)
    removal = dec.removal
    if len(removal) > math.isqrt(2 * g.m) + 1:
        raise StructuralError(
            "removal_size", removal, "removal clique exceeds isqrt(2m) + 1 nodes"
        )
    interval = interval_transform(g, dec.strips, removal)
    co = consistent_order(interval.before, interval.after, interval.cliques)
    base_value, base_nodes = mwss_on_order(co, g.weights)
    best_value, best_nodes = base_value, base_nodes
    per_vertex = []
    for v in removal:
        # v lies in X, outside the order, so excluding N(v) excludes N[v].
        value, nodes = mwss_on_order(co, g.weights, set(g.neighbors(v)))
        value += g.weights[v]
        nodes = tuple(sorted(nodes + (v,)))
        if collect:
            per_vertex.append((v, value, nodes))
        if value > best_value or (value == best_value and nodes < best_nodes):
            best_value, best_nodes = value, nodes
    detail = None
    if collect:
        detail = PipelineDetail(
            graph=g,
            stable_set=stable,
            decomposition=dec,
            interval=interval,
            order=co,
            base_value=base_value,
            per_vertex=tuple(per_vertex),
            canonical_steps=stats.steps,
            dp_passes=len(removal) + 1,
        )
    return best_value, best_nodes, ROUTE_PIPELINE, detail


def solve(g: Graph, collect_trace: bool = False) -> Solution:
    """Exact maximum weight stable set of a {claw, net}-free graph.

    ``remove_twins`` leaves the live nodes in ``g``'s ids: those of
    positive weight, less all but a heaviest node of each adjacent-twin
    class.  Each connected component of the live nodes is induced from
    ``g`` (one that is all of ``g`` is ``g`` itself), so its node tuple is
    its one id map.  The input is trusted to be {claw, net}-free; structural
    contract violations surface as ``StructuralError`` with a witness
    mapped through that map, so a claw or net witness names one in ``g``.
    A component whose ascending greedy stable set has fewer than four
    nodes raises ``StructuralError("claw")`` when a greedy or augmented
    member sees a stable triple or a node sees three members, even if its
    stability number is at most three (see ``find_stable4``).
    """
    live = remove_twins(g)
    comps = connected_components(g, live)
    total = 0
    chosen: list[int] = []
    routes = []
    details = [] if collect_trace else None
    for comp in comps:
        if len(comp) == g.n:
            sub = g  # all positive, no adjacent twins, connected
        else:
            sub = induced_subgraph(g, comp)
        try:
            value, nodes, route, detail = solve_component(sub, collect=collect_trace)
        except StructuralError as exc:
            witness = tuple(comp[v] for v in exc.witness)
            raise StructuralError(exc.kind, witness, exc.detail) from exc
        total += value
        chosen.extend(comp[v] for v in nodes)
        routes.append(route)
        if collect_trace:
            details.append(detail)
    if not g.is_stable(chosen):
        raise MWSSError("internal error: produced set is not stable")
    if g.weight_of(chosen) != total:
        raise MWSSError("internal error: produced set weight mismatch")
    if not routes:
        route = ROUTE_ALPHA3
    elif len(routes) == 1:
        route = routes[0]
    else:
        route = ROUTE_MERGE
    certificates = None
    if collect_trace:
        certificates = {
            "routes": tuple(routes),
            "components": len(comps),
            # the dropped adjacent twins: positive nodes that are not live
            "twin_steps": sum(w > 0 for w in g.weights) - len(live),
            "details": details,
        }
    return Solution(total, tuple(sorted(chosen)), route, certificates)
