"""Seeded inputs of the benchmark workloads.

A workload is one instance graph plus the weight vectors the solver is
called with.  Every call is ``Graph(n, edges, weights)`` through the
public constructor followed by ``solve``, so a caller that re-weights a
fixed graph (a pricing oracle) pays for both.  The same seed gives the
same instance, the same weight vectors and the same node ids.

* ``strip_large``: one ``gen_strip_instance`` graph at n = 64,000
  (cliques 7..11, density 0.6, random weights), solved under its own
  weights.  Time goes to twin reduction, square elimination and the
  decomposition; the alpha <= 3 route never runs.
* ``alpha3_dense``: three nested cliques A, B, C of size k with B[i]
  adjacent to A[0..i] and to C[0..k-1-i], random weights in 1..10^6.
  Its stability number is 3, so ``solve`` goes through the exact branch
  of ``find_stable4`` and ``alpha3_fallback`` and never reaches the strip
  pipeline.
* ``pricing_batch``: one n = 4,000 strip graph solved under many seeded
  weight vectors in which about 70% of the weights are non-positive.
  Dropping those nodes splits the chain into dozens of components, so
  each call makes many small ``Graph`` builds and takes both routes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from mwss import GenSpec, Graph, gen_strip_instance

STRIP_LARGE = GenSpec(
    seed=0, nodes=64_000, clique_min=7, clique_max=11, density=0.6, weights="random"
)
PRICING_GRAPH = replace(STRIP_LARGE, nodes=4_000)
PRICING_VECTORS = 128  # distinct weight vectors; calls cycle through them
NONPOSITIVE_SHARE = 0.7  # near 50% the per-call time spreads several-fold
PRICING_WEIGHT_HI = 1_000
ALPHA3_K = 100  # clique size; solve time grows about cubically in k
ALPHA3_WEIGHT_HI = 1_000_000


@dataclass(frozen=True)
class Workload:
    """One workload's inputs.

    ``chain`` is the clique chain the instance was built on, in the
    instance's node ids, when the builder knows it; otherwise ``spec``
    lets the reference replay the generator to recover it.
    """

    name: str
    graph: Graph  # the instance as generated, with its own weights
    edges: tuple[tuple[int, int], ...]  # the constructor input of every call
    weight_vectors: tuple[tuple[int, ...], ...]  # call i uses vector i mod len
    spec: GenSpec | None
    chain: tuple[tuple[int, ...], ...] | None
    min_calls: int  # timed calls a run makes at least
    min_parses: int  # timed parses of the serialized instance a run makes at least
    trace_calls: int  # calls in the traced unit
    mem_calls: int  # calls measured under tracemalloc

    def call_weights(self, i: int) -> tuple[int, ...]:
        return self.weight_vectors[i % len(self.weight_vectors)]


def strip_large(seed: int, nodes: int = STRIP_LARGE.nodes) -> Workload:
    spec = replace(STRIP_LARGE, seed=seed, nodes=nodes)
    g = gen_strip_instance(spec)
    return Workload(
        "strip_large", g, tuple(g.edges()), (g.weights,), spec, None,
        min_calls=2, min_parses=3, trace_calls=1, mem_calls=1,
    )


def pricing_batch(
    seed: int, nodes: int = PRICING_GRAPH.nodes, vectors: int = PRICING_VECTORS
) -> Workload:
    spec = replace(PRICING_GRAPH, seed=seed, nodes=nodes)
    g = gen_strip_instance(spec)
    rng = random.Random(seed * 7_919 + 17)
    weight_vectors = tuple(
        tuple(
            rng.randint(1 - PRICING_WEIGHT_HI, 0)
            if rng.random() < NONPOSITIVE_SHARE
            else rng.randint(1, PRICING_WEIGHT_HI)
            for _ in range(g.n)
        )
        for _ in range(vectors)
    )
    return Workload(
        "pricing_batch", g, tuple(g.edges()), weight_vectors, spec, None,
        min_calls=140, min_parses=32, trace_calls=min(100, vectors), mem_calls=11,
    )


def nested_cliques(k: int, rng: random.Random):
    """Three nested cliques A, B, C of size k under shuffled ids.

    B[i] sees A[0..i] and C[0..k-1-i].  The two sides nest in opposite
    directions; nesting both the same way would leave a claw at B.
    Returns the sorted edge list and the chain (A, B, C).
    """
    ids = list(range(3 * k))
    rng.shuffle(ids)
    a, b, c = ids[:k], ids[k : 2 * k], ids[2 * k :]
    pairs = []
    for clique in (a, b, c):
        pairs.extend((u, v) for i, u in enumerate(clique) for v in clique[i + 1 :])
    for i in range(k):
        pairs.extend((b[i], a[j]) for j in range(i + 1))
        pairs.extend((b[i], c[j]) for j in range(k - i))
    edges = tuple(sorted((u, v) if u < v else (v, u) for u, v in pairs))
    return edges, (tuple(a), tuple(b), tuple(c))


def alpha3_dense(seed: int, k: int = ALPHA3_K) -> Workload:
    rng = random.Random(seed * 7_919 + 31)
    edges, chain = nested_cliques(k, rng)
    weights = tuple(rng.randint(1, ALPHA3_WEIGHT_HI) for _ in range(3 * k))
    g = Graph(3 * k, edges, weights)
    return Workload(
        "alpha3_dense", g, edges, (weights,), None, chain,
        min_calls=18, min_parses=48, trace_calls=1, mem_calls=1,
    )


# Processes an untraced run pools its samples from.  strip_large has one:
# its memory pass alone takes about 20 s, and each extra process would
# build the instance and its reference again.
ROUNDS = {"strip_large": 1, "alpha3_dense": 6, "pricing_batch": 4}

BUILDERS = {
    "strip_large": strip_large,
    "alpha3_dense": alpha3_dense,
    "pricing_batch": pricing_batch,
}
