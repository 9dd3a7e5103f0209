"""End-to-end solver: preprocessing, dispatch, and the final maximum.

``solve`` deletes non-positive-weight nodes, collapses twins, and handles
each connected component on its own: components without a stable set of
size four go to exact bounded enumeration, the rest through the strip
pipeline, where the answer is the best of the strip optimum and, for
every node v of the removal clique, v's weight plus the strip optimum
avoiding N[v].  Witness sets are lifted back through the twin log.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress

from .canonical import CanonicalState, canonicalize, greedy_members
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
    state: CanonicalState
    decomposition: Decomposition
    interval: IntervalResult
    order: ConsistentOrder  # over V - X, strip after strip
    base_value: int
    base_nodes: tuple[int, ...]
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


def find_stable4(g: Graph) -> tuple[int, ...] | None:
    """A stable set of size four, or None exactly when alpha(G) <= 3.

    Fast path: the first four nodes of an ascending greedy maximal stable
    set.  If that stays below four, return the lexicographically smallest
    stable 4-set (see ``smallest_stable4``).
    """
    greedy = greedy_members(g)
    if len(greedy) >= 4:
        return tuple(greedy[:4])
    return smallest_stable4(g)


def smallest_stable4(g: Graph) -> tuple[int, ...] | None:
    """The lexicographically smallest stable 4-set, or None if alpha(G) <= 3.

    Scans non-edges (u, v) ascending and looks for a non-edge (x, y) with
    v < x < y among the nodes seeing neither u nor v, so each stable
    triple is tried once.
    """
    nn = _non_neighbour_bits(g, range(g.n))
    for u in range(g.n):
        later_v = nn[u] >> (u + 1) << (u + 1)
        while later_v:
            low = later_v & -later_v
            later_v ^= low
            v = low.bit_length() - 1
            rest = (nn[u] & nn[v]) >> (v + 1) << (v + 1)
            while rest:
                low = rest & -rest
                rest ^= low
                x = low.bit_length() - 1
                hit = rest & nn[x]
                if hit:
                    return (u, v, x, (hit & -hit).bit_length() - 1)
    return None


def alpha3_fallback(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact optimum when alpha(G) <= 3: scan sets of size 0, 1, 2, 3.

    Only non-edges (u, v) are walked, u ascending and then v ascending;
    a node adjacent to every later node is skipped at once.
    Non-neighbourhood bits are ranked by descending weight, lower id first
    on ties, so the best third node for a non-edge (u, v) is the lowest
    set bit of the two non-neighbourhoods' intersection.
    """
    best = 0
    best_set: tuple[int, ...] = ()
    w = g.weights
    n = g.n
    for v in range(n):
        if w[v] > best:
            best, best_set = w[v], (v,)
    order = sorted(range(n), key=lambda t: (-w[t], t))
    nn = _non_neighbour_bits(g, order)
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
    """Solve one connected component (already positive-weight, twin-free)."""
    seed4 = find_stable4(g)
    if seed4 is None:
        value, nodes = alpha3_fallback(g)
        return value, nodes, ROUTE_ALPHA3, None
    state, stats = canonicalize(g, CanonicalState(g, greedy_members(g, seed4)))
    dec = decompose(g, state)
    removal = dec.removal
    if len(removal) > math.isqrt(2 * g.m) + 1:
        raise StructuralError(
            "removal_size", removal, "removal clique exceeds isqrt(2m) + 1 nodes"
        )
    interval = interval_transform(g, dec.strips, removal)
    co = consistent_order(interval.adj, interval.cliques)
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
            state=state,
            decomposition=dec,
            interval=interval,
            order=co,
            base_value=base_value,
            base_nodes=base_nodes,
            per_vertex=tuple(per_vertex),
            canonical_steps=stats.steps,
            dp_passes=len(removal) + 1,
        )
    return best_value, best_nodes, ROUTE_PIPELINE, detail


def solve(g: Graph, collect_trace: bool = False) -> Solution:
    """Exact maximum weight stable set of a {claw, net}-free graph.

    The input is trusted to be {claw, net}-free; structural contract
    violations surface as ``StructuralError`` with a witness.
    """
    positive = [v for v in range(g.n) if g.weights[v] > 0]
    if len(positive) < g.n:
        g1, keep_map = induced_subgraph(g, positive)
    else:
        g1, keep_map = g, None
    reduction = remove_twins(g1)
    g2 = reduction.graph
    comps = connected_components(g2)
    total = 0
    chosen: list[int] = []
    routes = []
    details = [] if collect_trace else None
    for comp in comps:
        if len(comp) == g2.n:
            sub, sub_map = g2, None
        else:
            sub, sub_map = induced_subgraph(g2, comp)
        value, nodes, route, detail = solve_component(sub, collect=collect_trace)
        total += value
        if sub_map is not None:
            nodes = sub_map.lift(nodes)
        chosen.extend(nodes)
        routes.append(route)
        if collect_trace:
            details.append(detail)
    lifted = reduction.lift(chosen)
    if keep_map is not None:
        lifted = keep_map.lift(lifted)
    if not g.is_stable(lifted):
        raise MWSSError("internal error: produced set is not stable")
    if g.weight_of(lifted) != total:
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
            "twin_steps": len(reduction.steps),
            "details": details,
        }
    return Solution(total, tuple(sorted(lifted)), route, certificates)
