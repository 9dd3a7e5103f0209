"""Certified detectors for claws, nets and squares.

These run on the generator, test and check paths (``mwss.checks``, the
``check`` and ``selftest`` subcommands), never on the solve path.  All
detectors return the lexicographically first witness under ascending
node-id enumeration, so test expectations are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .errors import GraphInputError
from .graph import Graph

# Edges of each pattern over the positions of its witness tuple, i < j.
PATTERN_EDGES = {
    "claw": frozenset({(0, 1), (0, 2), (0, 3)}),
    "net": frozenset({(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)}),
    "square": frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}),
}


@dataclass(frozen=True)
class PatternWitness:
    """A node tuple inducing a named pattern.

    Tuple layouts: claw ``(center, leaf, leaf, leaf)``; net
    ``(x, y, z, x', y', z')`` with the triangle first and the pendant of
    each triangle node in matching position; square ``(v1, v2, v3, v4)``
    in cycle order.
    """

    kind: str
    nodes: tuple[int, ...]


def validate_witness(g: Graph, w: PatternWitness) -> bool:
    """Re-check that the witness induces exactly the claimed pattern."""
    pattern = PATTERN_EDGES.get(w.kind)
    if pattern is None:
        raise GraphInputError(f"unknown pattern kind {w.kind!r}")
    nodes = w.nodes
    if len(set(nodes)) != 1 + max(j for _, j in pattern):
        return False
    return all(
        g.has_edge(nodes[i], nodes[j]) == ((i, j) in pattern)
        for i, j in combinations(range(len(nodes)), 2)
    )


def row_sets(g: Graph) -> tuple[frozenset, ...]:
    """Every node's open neighborhood as a set, for a whole-graph scan."""
    return tuple(map(frozenset, map(g.neighbors, range(g.n))))


def find_claw(g: Graph) -> PatternWitness | None:
    """First induced claw, scanning centers then leaf triples ascending."""
    adj = row_sets(g)
    for c in range(g.n):
        nb = g.neighbors(c)
        k = len(nb)
        if k < 3:
            continue
        for i in range(k - 2):
            x = nb[i]
            ax = adj[x]
            for j in range(i + 1, k - 1):
                y = nb[j]
                if y in ax:
                    continue
                ay = adj[y]
                for t in range(j + 1, k):
                    z = nb[t]
                    if z not in ax and z not in ay:
                        return PatternWitness("claw", (c, x, y, z))
    return None


def find_net(g: Graph) -> PatternWitness | None:
    """First induced net: a triangle plus three independent pendants.

    Triangles x < y < z come in ascending order, z walking the row of y.
    A pendant of x sees neither y nor z, so each edge (x, y) first keeps
    the parts of the two rows the other one misses, and a triangle is
    dropped as soon as one of its pendant sets is empty.
    """
    adj = row_sets(g)
    for x in range(g.n):
        ax = adj[x]
        for y in g.neighbors(x):
            if y <= x:
                continue
            ay = adj[y]
            x_only = ax - ay  # holds y, which every z sees
            y_only = ay - ax  # holds x
            if len(x_only) < 2 or len(y_only) < 2:
                continue
            for z in g.neighbors(y):
                if z <= y or z not in ax:
                    continue
                az = adj[z]
                px = x_only - az
                if not px:
                    continue
                py = y_only - az
                if not py:
                    continue
                pz = az.difference(ax, ay)
                if not pz:
                    continue
                witness = _independent_pendants(adj, sorted(px), sorted(py), sorted(pz))
                if witness is not None:
                    return PatternWitness("net", (x, y, z) + witness)
    return None


def _independent_pendants(adj, px, py, pz) -> tuple[int, int, int] | None:
    """First pairwise non-adjacent (ux, uy, uz) of the three sorted lists."""
    for ux in px:
        aux = adj[ux]
        for uy in py:
            if uy in aux:
                continue
            auy = adj[uy]
            for uz in pz:
                if uz not in aux and uz not in auy:
                    return (ux, uy, uz)
    return None


def _check_clique_pair(g: Graph, a: Iterable[int], b: Iterable[int]):
    a = tuple(sorted(set(a)))
    b = tuple(sorted(set(b)))
    if set(a) & set(b):
        raise GraphInputError("clique arguments must be disjoint")
    if not g.is_clique(a) or not g.is_clique(b):
        raise GraphInputError("arguments must be cliques")
    return a, b


def iter_squares_in(g: Graph, a, b) -> Iterator[PatternWitness]:
    """All induced squares with two nodes in clique ``a`` and two in ``b``."""
    a, b = _check_clique_pair(g, a, b)
    bset = set(b)
    into_b = [bset.intersection(g.neighbors(v)) for v in a]
    for i, a1 in enumerate(a):
        n1 = into_b[i]
        for j in range(i + 1, len(a)):
            a2, n2 = a[j], into_b[j]
            only1 = sorted(n1 - n2)
            only2 = sorted(n2 - n1)
            for b1 in only1:
                for b2 in only2:
                    yield PatternWitness("square", (a1, b1, b2, a2))


def find_square_in(g: Graph, a, b) -> PatternWitness | None:
    """First induced square across a pair of disjoint cliques, or None.

    Inside a union of two cliques these are the only squares possible.
    """
    return next(iter_squares_in(g, a, b), None)


def semi_homogeneous_violation(g: Graph, x, y) -> int | None:
    """A node breaking the universal-to-X / universal-to-Y / null trichotomy.

    Only neighbors of the two cliques can violate, so the scan is local.
    """
    xs = set(x)
    ys = set(y)
    if not xs or not ys:
        return None
    both = xs | ys
    candidates: set[int] = set()
    for v in both:
        candidates.update(g.neighbors(v))
    for u in sorted(candidates - both):
        nb = g.neighbors(u)
        hit_x = len(xs.intersection(nb))
        hit_y = len(ys.intersection(nb))
        if hit_x == len(xs) or hit_y == len(ys):
            continue
        if hit_x == 0 and hit_y == 0:
            continue
        return u
    return None


def square_semi_homogeneous_check(
    g: Graph, a, b
) -> tuple[PatternWitness, int] | None:
    """Verify every square across (a, b) has semi-homogeneous sides.

    Returns None when the pair is square-semi-homogeneous, else the first
    counterexample as (square witness, violating node).
    """
    for sq in iter_squares_in(g, a, b):
        a1, b1, b2, a2 = sq.nodes
        v = semi_homogeneous_violation(g, (a1, a2), (b1, b2))
        if v is not None:
            return sq, v
    return None

