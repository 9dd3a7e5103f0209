import random
from collections import deque
from dataclasses import dataclass

from mwss import (
    CanonicalState,
    Decomposition,
    GenSpec,
    Graph,
    GraphInputError,
    OracleSizeError,
    PatternWitness,
    StructuralError,
    canonicalize,
    classify_q,
    consistent_order,
    decompose,
    gen_rejection,
    gen_strip_instance,
    interval_transform,
    select_q,
)
from mwss.canonical import greedy_members
from mwss.graph import closed_neighborhood, connected_components
from mwss.interval_mwss import ConsistentOrder
from mwss.square_elimination import IntervalResult
from mwss.wings import build_wing_table
from mwss.solver import (
    ROUTE_ALPHA3,
    ROUTE_MERGE,
    Solution,
    find_stable4,
    solve_component,
)


def path_graph(n, weights=None):
    return Graph(n, [(i, i + 1) for i in range(n - 1)], weights)


def cycle_graph(n, weights=None):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], weights)


def complete_graph(n, weights=None):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)], weights)


def adj(g, v):
    """Open neighborhood of ``v`` in ``g`` as a frozenset."""
    return frozenset(g.neighbors(v))


def overlay(g, nodes=None):
    """Node -> neighbor set of the subgraph induced by ``nodes`` (all of
    ``g`` by default), the shape ``semi_homog_pair_certificate`` reads."""
    nodes = range(g.n) if nodes is None else nodes
    node_set = set(nodes)
    return {v: set(g.neighbors(v)) & node_set for v in nodes}


def strip_rows(g, cliques):
    """(before, after): each node's sorted neighbors in the clique before
    and after its own along ``cliques``, as lists indexed by node id (``()``
    off the cliques); ``after`` holds the rows ``EliminationState`` reads."""
    before, after = [()] * g.n, [()] * g.n
    for lo, hi in zip(cliques, cliques[1:]):
        lo_set, hi_set = set(lo), set(hi)
        for v in hi:
            before[v] = tuple(sorted(adj(g, v) & lo_set))
        for v in lo:
            after[v] = tuple(sorted(adj(g, v) & hi_set))
    return before, after


def strip_lengths(g, cliques):
    """(before_len, after_len): the lengths of ``strip_rows``, the reaches
    ``consistent_order`` reads.  ``cliques`` may run over several strips
    one after the other, as strips do not touch."""
    before, after = strip_rows(g, cliques)
    return list(map(len, before)), list(map(len, after))


def random_graph(n, p, rng, weights=None):
    """Erdos-Renyi G(n, p), claws and nets included."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges, weights)


def nested_cliques(k, rng, weight_hi=1000):
    """Three nested cliques A, B, C of size k under shuffled ids.

    B[i] sees A[0..i] and C[0..k-1-i]; the opposite nesting keeps it
    {claw, net}-free with stability number 2 for k = 2 and 3 for k >= 3.
    Returns the graph and the chain (A, B, C).
    """
    ids = list(range(3 * k))
    rng.shuffle(ids)
    a, b, c = ids[:k], ids[k : 2 * k], ids[2 * k :]
    edges = []
    for clique in (a, b, c):
        edges += [(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :]]
    for i in range(k):
        edges += [(b[i], a[j]) for j in range(i + 1)]
        edges += [(b[i], c[j]) for j in range(k - i)]
    weights = [rng.randint(1, weight_hi) for _ in range(3 * k)]
    return Graph(3 * k, edges, weights), (a, b, c)


def clique_chain_value(chain, edges, weights):
    """Best weight of a stable set in a chain of cliques where only
    consecutive cliques touch: at most one node per clique, and the state
    is the node taken from the previous clique (None for none)."""
    adjacent = {(u, v) for u, v in edges} | {(v, u) for u, v in edges}
    best = {None: 0}
    for clique in chain:
        step = {None: max(best.values())}
        for x in clique:
            step[x] = weights[x] + max(
                val for p, val in best.items() if p is None or (p, x) not in adjacent
            )
        best = step
    return max(best.values())


def reference_stable4_exact(g):
    """Set-arithmetic search for the lexicographically smallest stable
    4-set; the reference for ``mwss.solver.find_stable4``'s verdict."""
    full = set(range(g.n))
    for u in range(g.n):
        au = adj(g, u)
        for v in range(u + 1, g.n):
            if v in au:
                continue
            rest = sorted(full - au - adj(g, v) - {u, v})
            rest_set = set(rest)
            for x in rest:
                others = rest_set - adj(g, x)
                others.discard(x)
                if others:
                    return tuple(sorted((u, v, x, min(others))))
    return None


def reference_claw_at(s, ns, order, nn):
    """The pairwise claw scan ``mwss.solver._check_claw_at`` ran before its
    two-clique certificate: one AND per non-edge (x, y) of the
    neighbourhood ``ns`` of ``s``, z taken after y; raises ``claw`` with
    the first stable triple in bit order."""
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
                z = order[(hit & -hit).bit_length() - 1]
                raise StructuralError("claw", (s, x, y, z), "stable triple (reference)")


def reference_alpha3(g):
    """Set-arithmetic scan of stable sets of size 0..3 with strict
    improvements in id order; the reference for ``alpha3_fallback``."""
    best = 0
    best_set = ()
    w = g.weights
    for v in range(g.n):
        if w[v] > best:
            best, best_set = w[v], (v,)
    full = set(range(g.n))
    for u in range(g.n):
        au = adj(g, u)
        for v in range(u + 1, g.n):
            if v in au:
                continue
            pair = w[u] + w[v]
            if pair > best:
                best, best_set = pair, (u, v)
            rest = full - au - adj(g, v)
            rest.discard(u)
            rest.discard(v)
            if rest:
                z = max(rest, key=lambda t: (w[t], -t))
                if pair + w[z] > best:
                    best, best_set = pair + w[z], tuple(sorted((u, v, z)))
    return best, best_set


def reference_find_net(g):
    """Net search over every triangle, ascending, with banned-set unions
    for the pendants; the reference for ``mwss.patterns.find_net``'s witness."""
    adj = [frozenset(g.neighbors(v)) for v in range(g.n)]
    for x in range(g.n):
        for y in g.neighbors(x):
            if y <= x:
                continue
            for z in sorted(adj[x] & adj[y]):
                if z <= y:
                    continue
                tri = (x, y, z)
                pendants = []
                for i, a in enumerate(tri):
                    banned = set(tri)
                    for j in range(3):
                        if j != i:
                            banned |= adj[tri[j]]
                    pendants.append([u for u in g.neighbors(a) if u not in banned])
                px, py, pz = pendants
                for ux in px:
                    for uy in py:
                        if uy == ux or uy in adj[ux]:
                            continue
                        for uz in pz:
                            if uz in (ux, uy) or uz in adj[ux] or uz in adj[uy]:
                                continue
                            return PatternWitness("net", (x, y, z, ux, uy, uz))
    return None


def reference_remove_twins(g):
    """Set-based adjacent-twin reduction over a dict-of-sets copy: every
    round re-hashes each closed neighborhood and keeps a heaviest node of
    each class (the lowest id on ties), until a round drops nothing.
    Returns the reduced graph as a copy and the input ids of its nodes;
    ``reference_positive_twins`` runs it the way ``mwss.graph.remove_twins``
    reduces, on the positive nodes only."""
    adj = {v: set(g.neighbors(v)) for v in range(g.n)}
    w = g.weights
    dropped = True
    while dropped:
        dropped = False
        groups = {}
        for v in sorted(adj):
            groups.setdefault(frozenset(adj[v] | {v}), []).append(v)
        for members in groups.values():
            kept = max(members, key=lambda v: (w[v], -v))
            for u in members:
                if u != kept:
                    for x in adj.pop(u):
                        adj[x].discard(u)
                    dropped = True
    return reference_induced_subgraph(g, adj)


def reference_positive_twins(g):
    """``reference_remove_twins`` on the subgraph induced by ``g``'s
    positive nodes, with the ids mapped back to ``g``'s: the graph
    ``mwss.graph.remove_twins(g)`` must leave, and its live nodes."""
    positive, ids = reference_induced_subgraph(g, [v for v in range(g.n) if g.weights[v] > 0])
    reduced, live = reference_remove_twins(positive)
    return reduced, [ids[v] for v in live]


def reference_solve(g):
    """``solve`` as a chain of copies: the positive nodes' subgraph, the
    reference twin reduction's reduced graph and one subgraph per
    component, each with its own id map.  A witness and the chosen set
    are mapped back through all three.  Returns the ``Solution`` with
    ``routes``, ``twin_steps`` and ``components`` as certificates."""
    g1, keep = reference_induced_subgraph(g, [v for v in range(g.n) if g.weights[v] > 0])
    reduced, live = reference_remove_twins(g1)
    comps = connected_components(reduced)
    total = 0
    chosen = []
    routes = []
    for comp in comps:
        sub, _ = reference_induced_subgraph(reduced, comp)
        try:
            value, nodes, route, _ = solve_component(sub)
        except StructuralError as exc:
            witness = tuple(keep[live[comp[v]]] for v in exc.witness)
            raise StructuralError(exc.kind, witness, exc.detail) from exc
        total += value
        chosen.extend(keep[live[comp[v]]] for v in nodes)
        routes.append(route)
    route = routes[0] if len(routes) == 1 else (ROUTE_MERGE if routes else ROUTE_ALPHA3)
    certificates = {"routes": tuple(routes), "twin_steps": g1.n - reduced.n, "components": len(comps)}
    return Solution(total, tuple(sorted(chosen)), route, certificates)


def twin_augmented(g, rng, clones, adjacent_only=False):
    """``g`` plus ``clones`` new nodes under shuffled ids, weights -2..4.

    Each new node copies the open neighbourhood of a random node v (a
    non-adjacent twin), its closed one (an adjacent twin), or sees N[v]
    together with N[u] for a neighbour u of v, which makes it a twin of
    v only once other twins are gone.  Clones of clones occur.  With
    ``adjacent_only`` every new node is an adjacent twin, so a claw-free
    and net-free ``g`` stays so.
    """
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    for _ in range(clones):
        v = rng.randrange(len(adj))
        op = 0.5 if adjacent_only else rng.random()
        if op < 0.4:
            nb = set(adj[v])
        elif op < 0.7:
            nb = adj[v] | {v}
        else:
            u = rng.choice(sorted(adj[v]) or [v])
            nb = adj[v] | adj[u] | {u, v}
        c = len(adj)
        adj.append(nb)
        for x in nb:
            adj[x].add(c)
    n = len(adj)
    ids = list(range(n))
    rng.shuffle(ids)
    edges = [(ids[u], ids[v]) for u in range(n) for v in adj[u] if u < v]
    return Graph(n, edges, [rng.randint(-2, 4) for _ in range(n)])


def reference_components(g, nodes=None):
    """Components of the subgraph induced by ``nodes`` (all of V by
    default) by a plain BFS that visits every edge; the reference for
    ``mwss.graph.connected_components``."""
    inside = set(range(g.n) if nodes is None else nodes)
    seen = set()
    comps = []
    for start in sorted(inside):
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        comp = []
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in g.neighbors(u):
                if v in inside and v not in seen:
                    seen.add(v)
                    queue.append(v)
        comps.append(tuple(sorted(comp)))
    return comps


def reference_induced_subgraph(g, keep):
    """Induced subgraph built from a relabelled edge list through the
    checked constructor; the reference for ``mwss.graph.induced_subgraph``."""
    keep = sorted(set(keep))
    to_sub = {v: i for i, v in enumerate(keep)}
    edges = [(to_sub[u], to_sub[v]) for u, v in g.edges() if u in to_sub and v in to_sub]
    return Graph(len(keep), edges, [g.weights[v] for v in keep]), keep


@dataclass(frozen=True)
class FreeComponent:
    nodes: tuple[int, ...]
    class_count: int
    flagged: bool  # meets three or more similarity classes


def free_components(g, st):
    """Connected components of the free dissimilarity graph (diagnostic)."""
    anchor = {}
    for u in range(g.n):
        if st.is_free(u):
            anchor[u] = st.stable_neighbor(u)
    seen: set[int] = set()
    out = []
    for start in sorted(anchor):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                if v in anchor and v not in seen and anchor[v] != anchor[u]:
                    seen.add(v)
                    comp.append(v)
                    queue.append(v)
        classes = {anchor[u] for u in comp}
        out.append(FreeComponent(tuple(sorted(comp)), len(classes), len(classes) >= 3))
    return out


REGIMES = ("unit", "random", "ties")
DENSITIES = (0.3, 0.5, 0.8)


def acceptance_pool():
    """The acceptance suite's 5000 mixed instances: detector-filtered
    random graphs of 4..22 nodes, then strip graphs of 7..22 nodes."""
    graphs = [
        gen_rejection(GenSpec(seed=i, mode="rejection", nodes=4 + i % 19, weights=REGIMES[i % 3]))
        for i in range(3000)
    ]
    graphs += [
        gen_strip_instance(
            GenSpec(seed=10_000 + i, mode="strip", nodes=7 + i % 16, clique_min=1,
                    clique_max=4, density=DENSITIES[i % 3], weights=REGIMES[i % 3])
        )
        for i in range(2000)
    ]
    return graphs


def dominating_family():
    """Claim-style dominating square instances under several weightings."""
    edges = [
        (4, 2), (4, 3), (4, 5), (4, 6),
        (5, 0), (5, 3), (5, 7),
        (6, 1), (6, 2), (6, 7),
        (7, 0), (7, 1),
    ]
    weightings = (
        None,
        [3, 1, 4, 1, 5, 9, 2, 6],
        [2, 2, 2, 2, 2, 2, 2, 2],
        [10, 1, 1, 10, 1, 10, 1, 1],
    )
    return [Graph(8, edges, w) for w in weightings]


def acceptance_extras():
    """Cycles, weighted paths and the dominating family."""
    graphs = [cycle_graph(n) for n in range(8, 23)]
    graphs += [path_graph(n, [((7 * i) % 5) + 1 for i in range(n)]) for n in range(7, 23)]
    return graphs + dominating_family()


# One malformed graph file per ``GraphParseError`` raise of ``parse_graph``:
# (text, message, line number or None); the error reads "line N: message".
MALFORMED_GRAPHS = (
    ("c hi\n\np mwss 2 0\np mwss 2 0\n", "duplicate problem line", 4),
    ("p edge 2 0\n", "expected 'p mwss <nodes> <edges>'", 1),
    ("p mwss two 0\n", "non-integer problem line", 1),
    ("p mwss -1 0\n", "negative counts in problem line", 1),
    ("n 1 5\np mwss 2 0\n", "weight line before problem line", 1),
    ("p mwss 2 0\nn 1\n", "expected 'n <id> <weight>'", 2),
    ("p mwss 2 0\nn 1 heavy\n", "non-integer weight line", 2),
    ("p mwss 2 0\nn 3 5\n", "node id 3 out of range 1..2", 2),
    ("p mwss 2 0\nn 1 5\nn 1 6\n", "duplicate weight for node 1", 3),
    ("e 1 2\np mwss 2 1\n", "edge line before problem line", 1),
    ("p mwss 2 1\ne 1 2 3\n", "expected 'e <u> <v>'", 2),
    ("p mwss 2 1\ne 1 b\n", "non-integer edge line", 2),
    ("p mwss 2 1\ne 1 3\n", "edge (1, 3) out of range 1..2", 2),
    ("p mwss 2 1\ne 1 1\n", "self-loop at node 1", 2),
    ("p mwss 2 0\nx 1 2\n", "unknown line type 'x'", 2),
    ("c no problem line\n", "missing problem line", None),
    ("p mwss 2 2\ne 1 2\n", "problem line declares 2 edges, found 1", None),
    ("p mwss 3 2\ne 1 2\ne 2 1\n", "duplicate edge (1, 2)", None),
)


def perturbed_strip(seed):
    """A seeded strip graph with 16..50 nodes and 1..4 node pairs flipped
    (edge to non-edge or back), so claws and nets appear; weights 1..100."""
    rng = random.Random(seed)
    spec = GenSpec(
        seed=seed, nodes=rng.randint(16, 50), clique_min=2, clique_max=6,
        density=rng.choice((0.3, 0.5, 0.7)), weights="random",
    )
    g = gen_strip_instance(spec)
    edges = set(g.edges())
    for _ in range(rng.randint(1, 4)):
        u, v = sorted(rng.sample(range(g.n), 2))
        edges ^= {(u, v)}
    return Graph(g.n, sorted(edges), g.weights)


def flipped_strip(seed, nodes=(100, 600), clique_max=8):
    """A seeded strip graph with 1..6 node pairs flipped, each pair a node
    and one within distance 2 of it in the unflipped graph; with the
    defaults and seed = 10,000 + i, graph i of the flip sweep."""
    rng = random.Random(seed)
    g = gen_strip_instance(
        GenSpec(seed=seed, nodes=rng.randint(*nodes), clique_min=2, clique_max=clique_max,
                density=rng.choice((0.3, 0.5, 0.7)), weights="random")
    )
    edges = set(g.edges())
    for _ in range(rng.randint(1, 6)):
        u = rng.randrange(g.n)
        ball = {v for w in g.neighbors(u) for v in (w, *g.neighbors(w))} - {u}
        v = rng.choice(sorted(ball))
        edges ^= {(min(u, v), max(u, v))}
    return Graph(g.n, sorted(edges), g.weights)


def mwss_enumerate(g: Graph, limit: int = 20) -> tuple[int, tuple[int, ...]]:
    """Trust-anchor oracle: dynamic program over all 2^n node subsets."""
    n = g.n
    if n > limit:
        raise OracleSizeError(f"enumeration guard: n={n} exceeds limit {limit}")
    weights = g.weights
    nbr_mask = [0] * n
    for u in range(n):
        for v in g.neighbors(u):
            nbr_mask[u] |= 1 << v
    size = 1 << n
    independent = bytearray(size)
    independent[0] = 1
    total = [0] * size
    best_value = 0
    best_mask = 0
    for mask in range(1, size):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        if independent[rest] and not (nbr_mask[v] & rest):
            independent[mask] = 1
            t = total[rest] + weights[v]
            total[mask] = t
            if t > best_value:
                best_value = t
                best_mask = mask
    chosen = tuple(v for v in range(n) if best_mask >> v & 1)
    return best_value, chosen


def frontier_mwss(g, max_states):
    """Exact maximum weight stable set of any graph, as ``(value, nodes)``
    with ``nodes`` ascending, by a DP over the nodes in BFS order.

    A state is the set of chosen nodes that still have an unvisited
    neighbor, mapped to the best weight reaching it and the chosen nodes
    behind it.  A node of positive weight joins every state holding none
    of its neighbors; a node leaves the states once its last neighbor is
    visited.  The cost is the number of states, small when the BFS
    frontier is narrow; past ``max_states`` it raises ``OracleSizeError``
    rather than return a guess.
    """
    order = []
    placed = bytearray(g.n)
    for root in range(g.n):
        if placed[root]:
            continue
        placed[root] = 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in g.neighbors(u):
                if not placed[v]:
                    placed[v] = 1
                    queue.append(v)
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    leaving = [[] for _ in range(g.n)]  # step after which a node leaves
    for v in order:
        leaving[max((pos[v], *map(pos.__getitem__, g.neighbors(v))))].append(v)
    states = {frozenset(): (0, None)}  # state -> (weight, chain of chosen nodes)
    for i, v in enumerate(order):
        w = g.weights[v]
        gone = frozenset(leaving[i])
        row = g.neighbors(v)
        nxt = {}
        for state, (value, chain) in states.items():
            options = [(state, value, chain)]
            if w > 0 and state.isdisjoint(row):
                options.append((state | {v}, value + w, (v, chain)))
            for key, val, ch in options:
                key = key - gone
                if key not in nxt or val > nxt[key][0]:
                    nxt[key] = (val, ch)
        if len(nxt) > max_states:
            raise OracleSizeError(
                f"frontier DP: {len(nxt)} states at node {i} of {g.n} exceed {max_states}"
            )
        states = nxt
    value, chain = states[frozenset()]
    nodes = []
    while chain is not None:
        v, chain = chain
        nodes.append(v)
    return value, tuple(sorted(nodes))


# References for the strip pipeline's flat passes: the set- and dict-based
# code they replaced, kept to compare outputs and witnesses against.


def reference_build_wing_table(g, st):
    """Wing table through per-node ``CanonicalState`` predicates and a
    per-node scan of every free node's row; the reference for
    ``mwss.wings.build_wing_table``: a dict from (s, t), s < t, to the sorted
    members of W(s, t)."""
    anchor = {}
    for u in range(g.n):
        if st.is_free(u):
            anchor[u] = st.stable_neighbor(u)
    buckets = {}

    def bucket(s, t):
        return buckets.setdefault((min(s, t), max(s, t)), set())

    for u in range(g.n):
        if st.is_bound(u):
            s, t = (v for v in g.neighbors(u) if st.is_stable_node(v))
            bucket(s, t).add(u)
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
            if partner is not None:
                bucket(s, partner).add(u)
    return {key: tuple(sorted(members)) for key, members in buckets.items()}


def wing_shape(wings, order):
    """"cycle" when the wing-graph walk ``order`` closes through a key of
    ``wings``, else "path".  The ends of a path on four or more nodes are
    never adjacent, so this reads the shape off ``build_wing_graph``'s
    order."""
    ends = (order[0], order[-1]) if order[0] < order[-1] else (order[-1], order[0])
    return "cycle" if ends in wings else "path"


def reference_build_wing_graph(wings, stable):
    """(order, shape) of the wing graph, through a BFS connectivity check
    and a guarded walk over sorted neighbor lists; the reference for
    ``mwss.wings.build_wing_graph`` and ``wing_shape``."""
    if len(stable) < 4:
        raise GraphInputError("wing graph needs a stable set of size at least 4")
    nbrs = {s: [] for s in stable}
    for s, t in wings:
        nbrs[s].append(t)
        nbrs[t].append(s)
    for s in stable:
        if len(nbrs[s]) > 2:
            raise StructuralError(
                "wing_degree", (s, *sorted(nbrs[s])), "stable node defines more than two wings"
            )
        nbrs[s].sort()
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
            "wing_disconnected", tuple(sorted(set(stable) - seen)), "wing graph is disconnected"
        )
    ends = [s for s in stable if len(nbrs[s]) == 1]
    if ends:
        if len(ends) != 2:
            raise StructuralError("wing_shape", tuple(ends), "wing graph is not a path")
        start, shape = min(ends), "path"
    else:
        start, shape = stable[0], "cycle"
    order = [start]
    prev, cur = None, start
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
        raise StructuralError(
            "wing_shape", tuple(order), "wing graph is not a single path or cycle"
        )
    return tuple(order), shape


def reference_bfs_layers(g, sources, removed):
    """Dict-based BFS layers; the reference for the layers of
    ``mwss.decomposition._clique_layers``."""
    dist = {}
    queue = deque()
    for s in sources:
        dist[s] = 0
        queue.append(s)
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if v in removed or v in dist:
                continue
            dist[v] = dist[u] + 1
            queue.append(v)
    if not dist:
        return []
    layers = [[] for _ in range(max(dist.values()) + 1)]
    for v, d in dist.items():
        layers[d].append(v)
    return [tuple(sorted(layer)) for layer in layers]


def _reference_clique_layers(g, layers, label):
    for layer in layers:
        bad = g.non_edge(layer)
        if bad is not None:
            raise StructuralError("non_clique_layer", bad, f"{label} layer is not a clique")


def reference_build_strips(g, q, x, y, kind, anchor, wing_order):
    """``mwss.decomposition.build_strips`` over ``reference_bfs_layers``,
    followed by ``reference_validate_cover``."""
    q = tuple(sorted(q))
    x = tuple(sorted(x))
    y = tuple(sorted(y))
    if kind == "dominating":
        outside = set(range(g.n)) - set(closed_neighborhood(g, q))
        p = tuple(sorted(outside))
        bad = g.non_edge(p)
        if bad is not None:
            raise StructuralError(
                "non_clique", bad, "V minus N[Q] is not a clique in the dominating case"
            )
        strips = [tuple([q, y] + ([p] if p else []))]
    else:
        removed = set(q)
        x_layers = reference_bfs_layers(g, x, removed)
        _reference_clique_layers(g, x_layers, "X")
        if not y:
            strips = [(q,)]
            if len(x_layers) > 1:
                strips.append(tuple(x_layers[1:]))
        elif y[0] in {v for layer in x_layers for v in layer}:
            y_layers = reference_bfs_layers(g, y, removed)
            _reference_clique_layers(g, y_layers, "Y")
            last = len(y_layers) - 1
            xs = set(x)
            allowed = set(y_layers[last]) | (set(y_layers[last - 1]) if last >= 1 else set())
            if not xs <= allowed:
                raise StructuralError(
                    "strip_overlap",
                    tuple(sorted(xs - allowed)),
                    "X reaches beyond the last two Y layers",
                )
            if last >= 1 and (xs & set(y_layers[last - 1])) and (set(y_layers[last]) - xs):
                raise StructuralError(
                    "strip_overlap",
                    tuple(sorted(set(y_layers[last]) - xs)),
                    "X meets the second-to-last layer but not all of the last",
                )
            family = [q] + [tuple(sorted(set(layer) - xs)) for layer in y_layers]
            strips = [tuple(k for k in family if k)]
        else:
            y_layers = reference_bfs_layers(g, y, removed)
            _reference_clique_layers(g, y_layers, "Y")
            strips = [tuple([q] + y_layers)]
            if len(x_layers) > 1:
                strips.append(tuple(x_layers[1:]))
    dec = Decomposition(q, x, y, kind, anchor, tuple(strips), wing_order)
    reference_validate_cover(g, dec.strips, dec.removal)
    return dec


def reference_validate_cover(g, strips, removal):
    """Strips must partition V minus X, pairwise null, consecutive-only;
    the reference for the cover and adjacency parts of
    ``mwss.checks.strip_partition_violation``."""
    reference_check_cover(g.n, [k for strip in strips for k in strip], removal)
    seen = {
        v: (si, ki)
        for si, strip in enumerate(strips)
        for ki, clique in enumerate(strip)
        for v in clique
    }
    for v, (si, ki) in seen.items():
        for u in g.neighbors(v):
            if u not in seen:
                continue  # a removal-clique node
            sj, kj = seen[u]
            if si != sj:
                raise StructuralError("strip_adjacent", (v, u), "edge between different strips")
            if abs(ki - kj) > 1:
                raise StructuralError("strip_adjacent", (v, u), "edge skips a strip layer")


def reference_check_cover(n, cliques, removal):
    """The set-based cover check: raise ``strip_cover`` unless ``cliques``
    partition V - X, naming the first node met twice, or else up to four
    missing and four extra nodes; the reference for the cover part of
    ``mwss.checks.strip_partition_violation``."""
    nodes = [v for k in cliques for v in k]
    covered = set(nodes)
    if len(covered) != len(nodes):
        seen = set()
        for v in nodes:
            if v in seen:
                raise StructuralError("strip_cover", (v,), "node in two cliques")
            seen.add(v)
    expected = set(range(n)).difference(removal)
    if covered != expected:
        missing = tuple(sorted(expected - covered))[:4]
        extra = tuple(sorted(covered - expected))[:4]
        raise StructuralError(
            "strip_cover", missing + extra, "strips do not cover V minus X exactly"
        )


def reference_decompose(g, st):
    """(wing table, decomposition) through the reference wing table and
    strip construction; the reference for ``mwss.decomposition.decompose``."""
    wings = reference_build_wing_table(g, st)
    order, _ = reference_build_wing_graph(wings, st.stable_set)
    q, anchor = select_q(g, order, wings)
    x, y, kind = classify_q(g, q, order, anchor)
    return wings, reference_build_strips(g, q, x, y, kind, anchor, order)


class ReferenceEliminationState:
    """``mwss.square_elimination.EliminationState`` with A, B and the
    degrees found by set intersections and every stage re-testing
    adjacency in the overlay."""

    def __init__(self, adj, weights, ki, kj):
        self.adj = adj
        self.weights = weights
        self.limit = 3 * len(ki) + 8
        ki_set, kj_set = set(ki), set(kj)
        self.a = {u for u in ki if not adj[u].isdisjoint(kj_set)}
        self.b = {v for v in kj if not adj[v].isdisjoint(ki_set)}
        self.d = {u: len(adj[u] & self.b) for u in self.a}
        for v in self.b:
            self.d[v] = len(adj[v] & self.a)
        self.added = []

    def _add_edge(self, u, v):
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.added.append((u, v) if u < v else (v, u))
        self.d[u] += 1
        self.d[v] += 1

    def stage(self):
        a_max = max(self.a, key=lambda u: (self.d[u], -u))
        if self.d[a_max] == len(self.b):
            self.a.discard(a_max)
            dead = []
            for v in self.b:
                if a_max in self.adj[v]:
                    self.d[v] -= 1
                    if self.d[v] == 0:
                        dead.append(v)
            for v in dead:
                self.b.discard(v)
            return
        if self.d[a_max] == len(self.b) - 1:
            (b1,) = self.b - self.adj[a_max]
            in_a = self.adj[b1] & self.a
            if not in_a:
                raise StructuralError("stage", (b1,), "square-elimination stage found b1 null to A")
            a2 = min(in_a)
            if self.d[a2] == len(self.b) - 1:
                (b2,) = self.b - self.adj[a2]
                w = self.weights
                if w[a2] + w[b2] >= w[a_max] + w[b1]:
                    self._add_edge(a_max, b1)
                else:
                    self._add_edge(a2, b2)
                return
            self._kill_diags(a2)
            return
        self._kill_diags(a_max)

    def _kill_diags(self, abar):
        missing = self.b - self.adj[abar]
        w = self.weights
        spare = max(missing, key=lambda v: (w[v], -v))
        for v in sorted(missing):
            if v != spare:
                self._add_edge(abar, v)

    def run(self):
        stages = 0
        while self.a:
            if stages > self.limit:
                raise StructuralError("stage", tuple(sorted(self.a)), "stage budget exceeded")
            self.stage()
            stages += 1
        return stages


def reference_interval_transform(g, strips):
    """Elimination over a full neighbor-set overlay of V - X; the reference
    for ``mwss.square_elimination.interval_transform``.  Returns the overlay
    and the result, whose lengths count the overlay restricted to the
    clique before and after each node's own."""
    families = [tuple(map(tuple, s)) for s in strips]
    cliques = tuple(k for family in families for k in family)
    adj = {v: set(g.neighbors(v)) for k in cliques for v in k}
    for x in range(g.n):
        if x not in adj:
            for u in g.neighbors(x):
                if u in adj:
                    adj[u].discard(x)
    added = []
    stage_counts = []
    for family in families:
        counts = []
        for ki, kj in zip(family, family[1:]):
            state = ReferenceEliminationState(adj, g.weights, ki, kj)
            counts.append(state.run())
            added.extend(state.added)
        stage_counts.append(tuple(counts))
    before_len, after_len = [0] * g.n, [0] * g.n
    for family in families:
        for lo, hi in zip(family, family[1:]):
            for v in hi:
                before_len[v] = len(adj[v] & set(lo))
            for v in lo:
                after_len[v] = len(adj[v] & set(hi))
    return adj, IntervalResult(before_len, after_len, cliques, tuple(added), tuple(stage_counts))


def reference_consistent_order(adj, cliques):
    """Order, dict positions and prefix pointers from the minimum position
    over each node's full neighbor set; the reference for
    ``mwss.interval_mwss.consistent_order``."""
    cliques = [tuple(k) for k in cliques]
    order = []
    for t, clique in enumerate(cliques):
        nxt = set(cliques[t + 1]) if t + 1 < len(cliques) else set()
        ranked = sorted(clique, key=lambda v: (len(adj[v] & nxt), v))
        for prev, cur in zip(ranked, ranked[1:]):
            reach_prev = adj[prev] & nxt
            reach_cur = adj[cur] & nxt
            if not reach_prev <= reach_cur:
                b1 = min(reach_prev - reach_cur)
                b2 = min(reach_cur - reach_prev)
                raise StructuralError(
                    "nesting",
                    (prev, b1, b2, cur),
                    "cross-neighborhoods not nested (square present)",
                )
        order.extend(ranked)
    at = {v: k for k, v in enumerate(order)}.__getitem__
    prefix = tuple(min(k, min(map(at, adj[v]), default=k)) - 1 for k, v in enumerate(order))
    return ConsistentOrder(tuple(order), prefix)


def strip_pipeline_outcome(g, reference=False):
    """Everything the strip pipeline builds for ``g`` after its canonical
    set, through the solver's code or the references: (wing table,
    decomposition, before and after lengths, added edges, stage counts,
    order, prefix), or the kind and witness of the first
    ``StructuralError``.  None when the stability number is below four."""
    try:
        seed = find_stable4(g)
        if seed is None:
            return None
        stable, _ = canonicalize(g, greedy_members(g, seed))
        if reference:
            wings, dec = reference_decompose(g, CanonicalState(g, stable))
            adj, interval = reference_interval_transform(g, dec.strips)
            co = reference_consistent_order(adj, interval.cliques)
        else:
            wings = build_wing_table(g, stable)
            dec = decompose(g, stable)
            interval = interval_transform(g, dec.strips)
            co = consistent_order(interval.before_len, interval.after_len, interval.cliques)
    except StructuralError as err:
        return ("error", err.kind, err.witness)
    return (
        wings,
        dec,
        interval.before_len,
        interval.after_len,
        interval.added_edges,
        interval.stage_counts,
        co.order,
        co.prefix,
    )
