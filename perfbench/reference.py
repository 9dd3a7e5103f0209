"""Independent reference optimum: a dynamic program along a clique chain.

Every benchmark instance is a chain of cliques K_0, K_1, ... in which
edges join only nodes of one clique or of consecutive cliques.  A stable
set then holds at most one node per clique, and the best one follows
from a left-to-right DP whose state is the node chosen in the previous
clique, or none.  Nothing here calls the solver's pipeline.

The chain is checked against the call's edge list before it is trusted:
the cliques partition the nodes, every clique is complete, and every
edge stays inside a clique or joins consecutive cliques.
"""

from __future__ import annotations

import random

from mwss import generators


class ChainError(ValueError):
    """The clique chain does not describe the graph."""


class Chain:
    """A checked clique chain with each node's neighbours in the previous clique."""

    def __init__(self, n: int, cliques, edges):
        clique_of = [-1] * n
        for idx, clique in enumerate(cliques):
            for v in clique:
                if not 0 <= v < n or clique_of[v] != -1:
                    raise ChainError(f"node {v} is out of range or in two cliques")
                clique_of[v] = idx
        if -1 in clique_of:
            raise ChainError(f"node {clique_of.index(-1)} is in no clique")
        left: list[set[int]] = [set() for _ in range(n)]
        inner = 0
        for u, v in edges:
            step = clique_of[v] - clique_of[u]
            if step == 0:
                inner += 1
            elif step == 1:
                left[v].add(u)
            elif step == -1:
                left[u].add(v)
            else:
                raise ChainError(f"edge ({u}, {v}) skips a clique of the chain")
        if inner != sum(len(k) * (len(k) - 1) // 2 for k in cliques):
            raise ChainError("a clique of the chain is not complete")
        self.cliques = tuple(tuple(k) for k in cliques)
        self.clique_of = clique_of
        self.left = [frozenset(s) for s in left]

    def optimum(self, weights) -> int:
        """Maximum weight of a stable set; non-positive nodes are never chosen."""
        before = 0  # best over cliques 0..i-2
        best = 0  # best over cliques 0..i-1
        prev: list[tuple[int, int]] = []  # (best ending at u, u) over K_{i-1}, best first
        for clique in self.cliques:
            cur = []
            for v in clique:
                w = weights[v]
                if w <= 0:
                    continue
                left = self.left[v]
                base = before
                for value, u in prev:
                    if value <= base:
                        break
                    if u not in left:
                        base = value
                        break
                cur.append((w + base, v))
            cur.sort(reverse=True)
            before, best = best, max(best, cur[0][0]) if cur else best
            prev = cur
        return best

    def is_stable(self, nodes) -> bool:
        """At most one node per clique and no edge between consecutive picks."""
        picked: dict[int, int] = {}
        for v in nodes:
            if not 0 <= v < len(self.clique_of):
                return False
            idx = self.clique_of[v]
            if idx in picked:
                return False
            picked[idx] = v
        return not any(
            picked.get(idx - 1) in self.left[v] for idx, v in picked.items()
        )


def strip_chain_candidates(spec):
    """Clique chains of ``gen_strip_instance(spec)``'s attempts, in final ids.

    Replays the generator's seeded steps: each attempt draws the chain
    with ``_build_chain`` and then shuffles the ids.  The claw repairs in
    between draw nothing from the generator, so they do not change either;
    the check against the graph picks the attempt the generator kept.
    """
    for attempt in range(generators.RESEED_ATTEMPTS):
        rng = random.Random(spec.seed * 1_000_003 + attempt)
        _, _, cliques = generators._build_chain(rng, spec)
        perm = list(range(spec.nodes))
        rng.shuffle(perm)
        yield [[perm[v] for v in k] for k in cliques]


def chain_for(workload) -> Chain:
    """The checked clique chain of a workload's instance."""
    n = workload.graph.n
    if workload.chain is not None:
        return Chain(n, workload.chain, workload.edges)
    for cliques in strip_chain_candidates(workload.spec):
        try:
            return Chain(n, cliques, workload.edges)
        except ChainError:
            continue
    raise ChainError("no replayed generator attempt matches the instance")
