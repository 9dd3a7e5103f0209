from collections import deque
from dataclasses import dataclass

from mwss import Graph, TwinReduction


def path_graph(n, weights=None):
    return Graph(n, [(i, i + 1) for i in range(n - 1)], weights)


def cycle_graph(n, weights=None):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], weights)


def complete_graph(n, weights=None):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)], weights)


def overlay(g, nodes=None):
    """Node -> neighbor set of the subgraph induced by ``nodes`` (all of
    ``g`` by default), the shape ``consistent_order`` and
    ``EliminationState`` read."""
    nodes = range(g.n) if nodes is None else nodes
    node_set = set(nodes)
    return {v: set(g.adj(v)) & node_set for v in nodes}


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
    4-set; the reference for ``mwss.solver.smallest_stable4``."""
    full = set(range(g.n))
    for u in range(g.n):
        au = g.adj(u)
        for v in range(u + 1, g.n):
            if v in au:
                continue
            rest = sorted(full - au - g.adj(v) - {u, v})
            rest_set = set(rest)
            for x in rest:
                others = rest_set - g.adj(x)
                others.discard(x)
                if others:
                    return tuple(sorted((u, v, x, min(others))))
    return None


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
        au = g.adj(u)
        for v in range(u + 1, g.n):
            if v in au:
                continue
            pair = w[u] + w[v]
            if pair > best:
                best, best_set = pair, (u, v)
            rest = full - au - g.adj(v)
            rest.discard(u)
            rest.discard(v)
            if rest:
                z = max(rest, key=lambda t: (w[t], -t))
                if pair + w[z] > best:
                    best, best_set = pair + w[z], tuple(sorted((u, v, z)))
    return best, best_set


def reference_remove_twins(g):
    """Set-based twin reduction over a dict-of-sets copy, re-hashing every
    neighborhood each round; the reference for ``mwss.remove_twins``."""
    adj = {v: set(g.adj(v)) for v in range(g.n)}
    weight = list(g.weights)
    steps = []
    alive = sorted(adj)
    while True:
        changed = False
        groups = {}
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
    edges = [(to_sub[u], to_sub[v]) for u in to_orig for v in adj[u] if v > u]
    reduced = Graph(len(to_orig), edges, [weight[v] for v in to_orig])
    return TwinReduction(reduced, to_orig, to_sub, tuple(steps))


def twin_augmented(g, rng, clones):
    """``g`` plus ``clones`` new nodes under shuffled ids, weights -2..4.

    Each new node copies the open neighbourhood of a random node v (a
    non-adjacent twin), its closed one (an adjacent twin), or sees N[v]
    together with N[u] for a neighbour u of v, which makes it a twin of
    v only once other twins are gone.  Clones of clones occur.
    """
    adj = [set(g.adj(v)) for v in range(g.n)]
    for _ in range(clones):
        v = rng.randrange(len(adj))
        op = rng.random()
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


def reference_induced_subgraph(g, keep):
    """Induced subgraph built from a relabelled edge list through the
    checked constructor; the reference for ``mwss.induced_subgraph``."""
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
