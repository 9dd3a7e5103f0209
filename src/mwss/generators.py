"""Seeded generators of {claw, net}-free test instances.

Strip mode builds a chain of cliques with layered cross-adjacencies whose
neighborhoods are nested between layers, which rules claws out by
construction while leaving plenty of induced squares inside each layer;
a chain of cliques cannot contain a net at all (a net's three pendants
would need three pairwise non-adjacent homes around one triangle, and
only two exist).  The result is still verified: by the full detectors at
small sizes, and at scale by the local containment condition that is
equivalent to claw-freeness in a chain.  A build that fails a check is
dropped and the seed redrawn; nothing is repaired.  Rejection mode
filters dense or sparse random graphs through the detectors.  Nested
mode builds three nested cliques of stability number 3, an input of the
alpha <= 3 route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import GraphInputError, MWSSError
from .graph import Graph
from .patterns import find_claw, find_net
from .solver import find_stable4

FULL_DETECTOR_LIMIT = 1200  # run the brute detectors below this many nodes
RESEED_ATTEMPTS = 20
PRNG_NAME = "mt19937"  # random.Random; recorded in golden file headers


@dataclass(frozen=True)
class GenSpec:
    """Reproducible generator parameters: same spec, same graph bytes."""

    seed: int
    mode: str = "strip"  # "strip" | "rejection" | "nested"
    nodes: int = 40
    clique_min: int = 2
    clique_max: int = 6
    density: float = 0.5
    weights: str = "unit"  # "unit" | "random" | "ties"
    weight_lo: int = 1
    weight_hi: int = 100

    def __post_init__(self):  # every mode draws random weights from this range
        if self.weights == "random" and self.weight_lo > self.weight_hi:
            raise GraphInputError("random weights need weight_lo <= weight_hi")


def _draw_weights(rng: random.Random, n: int, spec: GenSpec) -> list[int]:
    if spec.weights == "unit":
        return [1] * n
    if spec.weights == "random":
        return [rng.randint(spec.weight_lo, spec.weight_hi) for _ in range(n)]
    if spec.weights == "ties":
        return [rng.choice((1, 2, 3)) for _ in range(n)]
    raise GraphInputError(f"unknown weight regime {spec.weights!r}")


def _chain_sizes(rng: random.Random, spec: GenSpec) -> list[int]:
    sizes: list[int] = []
    remaining = spec.nodes
    while remaining > 0:
        s = min(remaining, rng.randint(spec.clique_min, spec.clique_max))
        sizes.append(s)
        remaining -= s
    if len(sizes) < 7:
        # alpha >= 4 needs at least seven cliques along the chain
        base, extra = divmod(spec.nodes, 7)
        sizes = [base + (1 if i < extra else 0) for i in range(7)]
        sizes = [s for s in sizes if s > 0]
    return sizes


def _build_chain(rng: random.Random, spec: GenSpec):
    """Lay out the cliques and draw the layered cross-adjacencies.

    Each clique is split into levels ordered by growing left-neighborhood.
    A level's members reach into a solid prefix of the next clique plus a
    random band; later levels stay inside earlier levels' solid prefixes.
    Within a level, members with identical left-neighborhoods draw their
    bands independently (this is where squares come from); a level whose
    members' lefts may differ is rigid and shares one band draw.
    """
    sizes = _chain_sizes(rng, spec)
    starts = []
    total = 0
    for s in sizes:
        starts.append(total)
        total += s
    cliques = [list(range(starts[i], starts[i] + sizes[i])) for i in range(len(sizes))]
    adj: dict[int, set[int]] = {v: set() for v in range(total)}
    for members in cliques:
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                adj[u].add(v)
                adj[v].add(u)
    density = spec.density
    levels: list[tuple[list[int], bool]] = [(list(cliques[0]), False)]
    for bi in range(len(cliques) - 1):
        right = cliques[bi + 1]
        q = len(right)
        ceiling = q
        # region key per 1-based position: ("full", k) -> 2k, ("rand", l) -> 2l+1
        region_of = [0] * (q + 1)
        region_rigid = [False] * (q + 1)
        for li, (members, rigid) in enumerate(levels):
            if ceiling == 0:
                break
            floor = min(ceiling, round(ceiling * density * rng.uniform(0.55, 1.05)))
            if li == 0:
                floor = max(1, floor)  # keep the chain connected
            band = range(floor + 1, ceiling + 1)
            if rigid:
                shared = {j for j in band if rng.random() < density}
                for u in members:
                    for j in range(1, floor + 1):
                        adj[u].add(right[j - 1])
                        adj[right[j - 1]].add(u)
                    for j in shared:
                        adj[u].add(right[j - 1])
                        adj[right[j - 1]].add(u)
                for j in band:
                    region_of[j] = 2 * li + 2 if j in shared else 2 * li
            else:
                for u in members:
                    for j in range(1, floor + 1):
                        adj[u].add(right[j - 1])
                        adj[right[j - 1]].add(u)
                    for j in band:
                        if rng.random() < density:
                            adj[u].add(right[j - 1])
                            adj[right[j - 1]].add(u)
                for j in band:
                    region_of[j] = 2 * li + 1
                    region_rigid[j] = True
            ceiling = floor
        for j in range(1, ceiling + 1):
            region_of[j] = 2 * len(levels)
        buckets: dict[int, list[int]] = {}
        rigid_of: dict[int, bool] = {}
        for j in range(1, q + 1):
            key = region_of[j]
            buckets.setdefault(key, []).append(right[j - 1])
            rigid_of[key] = rigid_of.get(key, False) or region_rigid[j]
        levels = [(sorted(buckets[k]), rigid_of[k]) for k in sorted(buckets)]
    clique_of = [0] * total
    for idx, members in enumerate(cliques):
        for v in members:
            clique_of[v] = idx
    return adj, clique_of, cliques


def _find_chain_claw(adj: dict, cliques) -> tuple[int, int, int, int] | None:
    """A claw in a chain of cliques, if any, as (center, leaf, leaf, leaf).

    Every claw in a chain has its center and one leaf in a clique and the
    other leaves in the two neighboring cliques, so it exists exactly when
    some same-clique pair violates one-sided containment both ways.
    """
    for idx, members in enumerate(cliques):
        left = set(cliques[idx - 1]) if idx > 0 else set()
        right = set(cliques[idx + 1]) if idx + 1 < len(cliques) else set()
        if not left or not right:
            continue
        lefts = {u: adj[u] & left for u in members}
        rights = {u: adj[u] & right for u in members}
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                for w, x in ((u, v), (v, u)):
                    extra_l = lefts[w] - lefts[x]
                    extra_r = rights[w] - rights[x]
                    if extra_l and extra_r:
                        return (w, min(extra_l), x, min(extra_r))
    return None


def gen_strip_instance(spec: GenSpec) -> Graph:
    """A connected {claw, net}-free chain-of-cliques graph with alpha >= 4."""
    if spec.nodes < 7:
        raise GraphInputError("strip mode needs at least 7 nodes for alpha >= 4")
    if not 0.0 < spec.density <= 1.0:
        raise GraphInputError("density must be in (0, 1]")
    if not 1 <= spec.clique_min <= spec.clique_max:
        raise GraphInputError("strip mode needs 1 <= clique_min <= clique_max")
    for attempt in range(RESEED_ATTEMPTS):
        rng = random.Random(spec.seed * 1_000_003 + attempt)
        adj, clique_of, cliques = _build_chain(rng, spec)
        if _find_chain_claw(adj, cliques) is not None:
            continue
        perm = list(range(spec.nodes))
        rng.shuffle(perm)
        final_edges = sorted(
            (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
            for u in adj
            for v in adj[u]
            if u < v
        )
        weights = _draw_weights(rng, spec.nodes, spec)
        g = Graph(spec.nodes, final_edges, weights)
        if spec.nodes <= FULL_DETECTOR_LIMIT:
            if find_claw(g) is not None or find_net(g) is not None:
                continue
        if find_stable4(g) is None:
            continue
        return g
    raise MWSSError(f"strip generator failed after {RESEED_ATTEMPTS} reseeds")


REJECTION_LIMIT = 24
REJECTION_ATTEMPTS = 200_000


def _rejection_schedule(n: int) -> tuple[float, ...]:
    if n <= 8:
        return (0.15, 0.3, 0.5, 0.7, 0.85)
    if n <= 14:
        return (0.08, 0.14, 0.75, 0.85, 0.9)
    return (0.05, 0.09, 0.85, 0.9, 0.94)


def gen_rejection(spec: GenSpec) -> Graph:
    """Random graphs filtered by the claw and net detectors (n <= 24)."""
    if spec.nodes > REJECTION_LIMIT:
        raise GraphInputError(f"rejection mode supports n <= {REJECTION_LIMIT}")
    schedule = _rejection_schedule(spec.nodes)
    for attempt in range(REJECTION_ATTEMPTS):
        rng = random.Random(spec.seed * 1_000_003 + attempt)
        p = schedule[attempt % len(schedule)]
        edges = [
            (u, v)
            for u in range(spec.nodes)
            for v in range(u + 1, spec.nodes)
            if rng.random() < p
        ]
        weights = _draw_weights(rng, spec.nodes, spec)
        g = Graph(spec.nodes, edges, weights)
        if find_claw(g) is None and find_net(g) is None:
            return g
    raise MWSSError("rejection generator exhausted its attempt budget")


def gen_nested_cliques(spec: GenSpec) -> Graph:
    """Three nested cliques A, B, C of size k = nodes / 3 under shuffled ids.

    B[i] sees A[0..i] and C[0..k-1-i].  The two sides nest in opposite
    directions, which keeps the graph {claw, net}-free (nesting both the
    same way would leave a claw at B); its stability number is 3 for
    k >= 3, so ``solve`` takes the alpha <= 3 route.
    """
    if spec.nodes < 3 or spec.nodes % 3:
        raise GraphInputError("nested mode needs a positive multiple of 3 nodes")
    k = spec.nodes // 3
    rng = random.Random(spec.seed)
    ids = list(range(3 * k))
    rng.shuffle(ids)
    a, b, c = ids[:k], ids[k : 2 * k], ids[2 * k :]
    edges = []
    for clique in (a, b, c):
        edges.extend((u, v) for i, u in enumerate(clique) for v in clique[i + 1 :])
    for i in range(k):
        edges.extend((b[i], a[j]) for j in range(i + 1))
        edges.extend((b[i], c[j]) for j in range(k - i))
    return Graph(3 * k, edges, _draw_weights(rng, 3 * k, spec))


def generate(spec: GenSpec) -> Graph:
    if spec.mode == "strip":
        return gen_strip_instance(spec)
    if spec.mode == "rejection":
        return gen_rejection(spec)
    if spec.mode == "nested":
        return gen_nested_cliques(spec)
    raise GraphInputError(f"unknown generator mode {spec.mode!r}")
