"""End-to-end solver: preprocessing, dispatch, and the final maximum.

``solve`` keeps the nodes of positive weight less the dropped adjacent
twins, and handles each connected component of those live nodes on its
own: one holding more than half of the input's nodes on the input's own
rows, in its ids, each other one induced straight from the input.
Components without a stable set of size four go to exact bounded
enumeration, the rest through the strip pipeline, where the answer is
the best of the strip optimum and, for every node v of the removal
clique, v's weight plus the strip optimum avoiding N[v].  A copied
component's ids map back through its node array, so the chosen set is
already one of the input.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
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
    """Intermediate artifacts of one component's pipeline run (trace/tests),
    in the component's ids, with ``graph`` the component's induced graph."""

    graph: Graph
    stable_set: tuple[int, ...]  # the canonical stable set, ascending
    decomposition: Decomposition
    interval: IntervalResult
    order: ConsistentOrder  # over V - X, strip after strip
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


def find_stable4(g: Graph, bits=None) -> tuple[int, ...] | None:
    """A stable set of size four, or None exactly when alpha(G) <= 3.

    Fast path: the first four nodes of an ascending greedy maximal stable
    set.  If that stays below four, grow it by augmenting paths (see
    ``_augment_to_four``), which either reaches four members, proves
    alpha(G) <= 3, or raises ``StructuralError("claw")`` with a witness.
    The bitsets of that search are ``bits`` when given (see
    ``alpha3_fallback``), else ``_weight_ranked_bits(g)``.
    """
    greedy = greedy_members(g)
    if len(greedy) >= 4:
        return tuple(greedy[:4])
    order, nn = bits or _weight_ranked_bits(g)
    members = _augment_to_four(greedy, order, nn)
    if members is None:
        return None
    return tuple(sorted(members))


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _nodes(bits: int, order):
    """The nodes of a bitset over ``order``, lowest bit first: one pass
    over its binary digits, so a dense set costs no big-int op per node."""
    return compress(order, bin(bits)[:1:-1].encode().translate(_DIGIT_FLAGS))


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
    member needs no search.  A member's claw check costs one OR and one
    AND per neighbour when its neighbourhood splits into two cliques, and
    one AND per non-edge inside it only when it does not (see
    ``_check_claw_at``); each path search costs at most one AND per pair
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
    triple.

    First a certificate that it holds none: a BFS 2-colouring of the
    complement of G[N(s)], one OR per node, with each colour class then
    tested for a clique, one AND per node.  When both classes are cliques
    (in a claw-free graph most nodes' neighbourhoods are covered so), any
    three nodes of N(s) put two in one class, which are adjacent.  Only
    otherwise, say when N(s) induces a C5, does ``_claw_scan`` test the
    non-edges pairwise.
    """
    sides = [0, 0]
    todo = ns
    while todo:
        wave = todo & -todo  # the lowest uncoloured node starts a BFS
        side = 0
        while wave:
            sides[side] |= wave
            todo ^= wave
            reach = 0
            for x in _nodes(wave, order):
                reach |= nn[x]
            wave = reach & todo
            side ^= 1
    if any(nn[x] & cls for cls in sides for x in _nodes(cls, order)):
        _claw_scan(s, ns, order, nn)


def _claw_scan(s: int, ns: int, order, nn):
    """Raise ``claw`` if ``ns`` holds a stable triple: one AND per non-edge
    (x, y) inside it, z taken after y, so the witness is the first such
    triple in bit order."""
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


def alpha3_fallback(g: Graph, bits=None) -> tuple[int, tuple[int, ...]]:
    """Exact optimum when alpha(G) <= 3: the best stable set of 0 to 3 nodes.

    Singles are read in id order.  Each non-edge {u, v} is scanned once,
    from its endpoint of lower rank, with its heaviest third node z: the
    bits are ranked by descending weight, lower id first on ties, so z is
    the lowest set bit of the two non-neighbourhoods' intersection.  Any
    set a non-edge gives weighs at most w[u] + w[v] + top, with top =
    max(max weight, 0), so a non-edge whose bound is below L, the best
    value known, is skipped.  L starts at the weight of a greedy set (the
    heaviest node, its heaviest non-neighbour and their heaviest common
    non-neighbour) and rises with each better set found.  The partners v
    of u with w[v] >= L - w[u] - top are the low bits of u's
    non-neighbourhood; as u runs down the ranks that threshold only
    rises, so the scan ends at the first u left without a partner of
    higher rank.  A skipped non-edge cannot reach the optimum, so the
    value is exact, and so is the set: among sets of optimal value it is
    the first in the order of a full scan (singles by id, then non-edges
    {lo, hi} by (lo, hi), the pair before its triple), which ``best_at``
    keeps as the scan order changes.  The scan visits no non-edge a full
    scan would not, so the worst case, equal weights, stays one n-bit AND
    per non-edge.

    ``bits``, when given, is ``_weight_ranked_bits(g)``: ``solve_component``
    builds it once and passes it to ``find_stable4`` and here, so a
    component builds its bits at most once, and not at all when its greedy
    set has four nodes.
    """
    order, nn = bits or _weight_ranked_bits(g)
    w = g.weights
    best = 0
    best_set: tuple[int, ...] = ()
    for v in range(g.n):
        if w[v] > best:
            best, best_set = w[v], (v,)
    # The best set's place in a full scan: (lo, hi, 0) for a pair, (lo, hi, 1)
    # for a triple found at the non-edge {lo, hi}, lo < hi; (-1,) before.
    best_at = (-1,)
    top = max(w[order[0]], 0) if order else 0
    # L is max(best, greedy): greedy weighs the heaviest node h, its heaviest
    # non-neighbour x and their heaviest common non-neighbour, if positive.
    greedy = 0
    if order and nn[order[0]]:
        h = order[0]
        x = order[_lowest(nn[h])]
        common = nn[h] & nn[x]
        third = max(w[order[_lowest(common)]], 0) if common else 0
        greedy = w[h] + w[x] + third
    k = g.n  # partners of the current u lie among the first k ranks
    for i, u in enumerate(order):
        wu = w[u]
        floor = max(best, greedy) - wu - top
        while k and w[order[k - 1]] < floor:
            k -= 1
        if k <= i + 1:
            break  # floor only rises and k only falls from here
        nn_u = nn[u]
        for v in _nodes(nn_u & ((1 << k) - (2 << i)), order):  # ranks i+1..k-1
            pair = wu + w[v]
            if pair >= best:
                lo, hi = (u, v) if u < v else (v, u)
                if pair > best or (lo <= best_at[0] and (lo, hi, 0) < best_at):
                    best, best_set, best_at = pair, (lo, hi), (lo, hi, 0)
            common = nn_u & nn[v]
            if common:
                z = order[(common & -common).bit_length() - 1]
                value = pair + w[z]
                if value >= best:
                    lo, hi = (u, v) if u < v else (v, u)
                    if value > best or (lo <= best_at[0] and (lo, hi, 1) < best_at):
                        best, best_set = value, tuple(sorted((u, v, z)))
                        best_at = (lo, hi, 1)
    return best, best_set


def solve_component(
    g: Graph, collect: bool = False, live=None
) -> tuple[int, tuple[int, ...], str, PipelineDetail | None] | None:
    """Solve one connected component (positive-weight, no adjacent twins),
    all of ``g`` or the one that the mask ``live`` marks (see
    ``graph.live_nodes``), with the answer in ``g``'s ids.

    The ascending greedy stable set is built once; with four nodes or more
    it seeds the strip route.  Below four the stability number may be at
    most three, and that route's bitsets need dense ids: a masked
    component returns None, so ``solve`` copies it, and all of ``g`` builds
    ``_weight_ranked_bits(g)`` once for ``find_stable4``, which augments the
    set to four or proves alpha(G) <= 3, and for ``alpha3_fallback``.
    Walking a masked component's nodes ascending is walking its copy's
    ``range(n)``, as ``induced_subgraph`` renumbers in that order, so the
    answer, and a witness once mapped, are the copy's.  A masked detail is
    restated in the component's ids (``_in_component_ids``).
    """
    seed = greedy_members(g, live=live)
    if len(seed) < 4:
        if live is not None:
            return None
        bits = _weight_ranked_bits(g)
        seed4 = find_stable4(g, bits)
        if seed4 is None:
            value, nodes = alpha3_fallback(g, bits)
            return value, nodes, ROUTE_ALPHA3, None
        seed = greedy_members(g, seed4)
    value, nodes, route, detail = _strip_route(g, seed, collect, live)
    if collect and live is not None:
        detail = _in_component_ids(detail, list(compress(range(g.n), live)))
    return value, nodes, route, detail


def _strip_route(
    g: Graph, seed, collect: bool, live=None
) -> tuple[int, tuple[int, ...], str, PipelineDetail | None]:
    """The strip pipeline from the maximal stable set ``seed`` (four or
    more nodes), on all of ``g`` or on the component that ``live`` marks
    (see ``graph.live_nodes``), in ``g``'s ids either way.

    The DP passes read only the consistent order, the weights and N(v)
    for v in X.  So once the order is built, only X is kept of the
    ``Decomposition`` and nothing of the ``IntervalResult`` (two reach
    lengths per node, no rows), unless ``collect`` keeps both for
    ``PipelineDetail``.
    """
    stable, stats = canonicalize(g, seed, live)
    dec = decompose(g, stable, live)
    interval = interval_transform(g, dec.strips)
    co = consistent_order(interval.before_len, interval.after_len, interval.cliques)
    removal = dec.removal
    if not collect:
        dec = interval = None  # the DP passes read only X and the order
    best_value, best_nodes = mwss_on_order(co, g.weights)
    for v in removal:
        # v lies in X, outside the order, so excluding N(v) excludes N[v].
        value, nodes = mwss_on_order(co, g.weights, set(g.neighbors(v)))
        value += g.weights[v]
        nodes = tuple(sorted(nodes + (v,)))
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
            canonical_steps=stats.steps,
            dp_passes=len(removal) + 1,
        )
    return best_value, best_nodes, ROUTE_PIPELINE, detail


def _in_component_ids(detail: PipelineDetail, comp) -> PipelineDetail:
    """``detail`` of a strip route run on the input's rows (in its ids),
    restated in the ids of the component ``comp`` (ascending): node i is
    ``comp[i]``, as in ``induced_subgraph(g, comp)``, which becomes the
    detail's graph.  The pipeline is not run again."""
    new_id = dict(zip(comp, range(len(comp))))
    ids = new_id.__getitem__

    def nodes(seq):
        return tuple(map(ids, seq))

    dec, interval = detail.decomposition, detail.interval
    decomposition = replace(
        dec,
        core=nodes(dec.core),
        removal=nodes(dec.removal),
        companion=nodes(dec.companion),
        strips=tuple(tuple(map(nodes, strip)) for strip in dec.strips),
        wing_order=nodes(dec.wing_order),
    )
    interval = replace(
        interval,
        before_len=[interval.before_len[v] for v in comp],
        after_len=[interval.after_len[v] for v in comp],
        cliques=tuple(map(nodes, interval.cliques)),
        added_edges=tuple(map(nodes, interval.added_edges)),
    )
    return replace(
        detail,
        graph=induced_subgraph(detail.graph, comp),
        stable_set=nodes(detail.stable_set),
        decomposition=decomposition,
        interval=interval,
        order=replace(detail.order, order=nodes(detail.order.order)),
    )


def solve(g: Graph, collect_trace: bool = False) -> Solution:
    """Exact maximum weight stable set of a {claw, net}-free graph.

    ``remove_twins`` leaves the live nodes in ``g``'s ids: those of
    positive weight, less all but a heaviest node of each adjacent-twin
    class.  Each connected component of the live nodes is solved on its
    own.  A component holding more than half of ``g``'s nodes (at most
    one does) is solved on ``g``'s own rows, with no copy, unless it
    needs dense ids (see ``solve_component``).  Any other component is
    induced from ``g``, so its nodes are its one id map, held as an
    ``array("q")``: the ids of ``remove_twins`` are fresh ints, which would
    otherwise live to the end of the solve, and the live tuple is let go
    once the components are split.  The input is trusted to be
    {claw, net}-free; structural contract violations surface as
    ``StructuralError`` with a witness in ``g``'s ids, mapped through
    that map for a copy, so a claw or net witness names one in ``g``.
    A component whose ascending greedy stable set has fewer than four
    nodes raises ``StructuralError("claw")`` when a greedy or augmented
    member sees a stable triple or a node sees three members, even if its
    stability number is at most three (see ``find_stable4``).
    ``certificates["details"]`` holds each component's ``PipelineDetail``
    in the component's ids, as if it had been copied.
    """
    live = remove_twins(g)
    comps = [array("q", comp) for comp in connected_components(g, live)]
    live_count = len(live)
    del live
    total = 0
    chosen: list[int] = []
    routes = []
    details = [] if collect_trace else None
    for comp in comps:
        result = None
        if len(comp) == g.n:
            result = solve_component(g, collect_trace)
        elif 2 * len(comp) > g.n:
            mask = bytearray(g.n)
            for v in comp:
                mask[v] = 1
            result = solve_component(g, collect_trace, mask)
        if result is None:
            sub = induced_subgraph(g, comp)
            try:
                value, nodes, route, detail = solve_component(sub, collect=collect_trace)
            except StructuralError as exc:
                witness = tuple(comp[v] for v in exc.witness)
                raise StructuralError(exc.kind, witness, exc.detail) from exc
            result = value, tuple(comp[v] for v in nodes), route, detail
        value, nodes, route, detail = result
        total += value
        chosen.extend(nodes)
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
            "twin_steps": sum(w > 0 for w in g.weights) - live_count,
            "details": details,
        }
    return Solution(total, tuple(sorted(chosen)), route, certificates)
