"""Certified detectors for claws, nets, squares and the S3-minus graph.

These run on the generator, test and check paths (``mwss.checks``, the
``check`` and ``selftest`` subcommands), never on the solve path.  All
detectors return the lexicographically first witness under ascending
node-id enumeration, so test expectations are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import GraphInputError
from .graph import Graph

S3MINUS_EDGES = ((0, 3), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5))


@dataclass(frozen=True)
class PatternWitness:
    """A node tuple inducing a named pattern.

    Tuple layouts: claw ``(center, leaf, leaf, leaf)``; net
    ``(x, y, z, x', y', z')`` with the triangle first and the pendant of
    each triangle node in matching position; square ``(v1, v2, v3, v4)``
    in cycle order; s3minus ``(a, b, c, d, e, f)``.
    """

    kind: str
    nodes: tuple[int, ...]


def validate_witness(g: Graph, w: PatternWitness) -> bool:
    """Re-check that the witness induces exactly the claimed pattern."""
    nodes = w.nodes
    if len(set(nodes)) != len(nodes):
        return False
    if w.kind == "claw":
        c, x, y, z = nodes
        return (
            g.has_edge(c, x) and g.has_edge(c, y) and g.has_edge(c, z)
            and not g.has_edge(x, y) and not g.has_edge(x, z) and not g.has_edge(y, z)
        )
    if w.kind == "net":
        x, y, z, px, py, pz = nodes
        tri = g.has_edge(x, y) and g.has_edge(y, z) and g.has_edge(x, z)
        pend = (
            g.has_edge(x, px) and g.has_edge(y, py) and g.has_edge(z, pz)
            and not g.has_edge(px, y) and not g.has_edge(px, z)
            and not g.has_edge(py, x) and not g.has_edge(py, z)
            and not g.has_edge(pz, x) and not g.has_edge(pz, y)
            and not g.has_edge(px, py) and not g.has_edge(px, pz)
            and not g.has_edge(py, pz)
        )
        return tri and pend
    if w.kind == "square":
        a, b, c, d = nodes
        return (
            g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
            and g.has_edge(d, a) and not g.has_edge(a, c) and not g.has_edge(b, d)
        )
    if w.kind == "s3minus":
        present = {tuple(sorted((nodes[i], nodes[j]))) for i, j in S3MINUS_EDGES}
        for i in range(6):
            for j in range(i + 1, 6):
                e = tuple(sorted((nodes[i], nodes[j])))
                if (e in present) != g.has_edge(*e):
                    return False
        return True
    raise GraphInputError(f"unknown pattern kind {w.kind!r}")


def find_claw(g: Graph) -> PatternWitness | None:
    """First induced claw, scanning centers then leaf triples ascending."""
    for c in range(g.n):
        nb = g.neighbors(c)
        k = len(nb)
        if k < 3:
            continue
        for i in range(k - 2):
            x = nb[i]
            ax = g.adj(x)
            for j in range(i + 1, k - 1):
                y = nb[j]
                if y in ax:
                    continue
                ay = g.adj(y)
                for t in range(j + 1, k):
                    z = nb[t]
                    if z not in ax and z not in ay:
                        return PatternWitness("claw", (c, x, y, z))
    return None


def _triangles(g: Graph) -> Iterator[tuple[int, int, int]]:
    for x in range(g.n):
        ax = g.adj(x)
        for y in g.neighbors(x):
            if y <= x:
                continue
            common = ax & g.adj(y)
            for z in sorted(common):
                if z > y:
                    yield (x, y, z)


def find_net(g: Graph) -> PatternWitness | None:
    """First induced net: a triangle plus three independent pendants."""
    for x, y, z in _triangles(g):
        tri = (x, y, z)
        others = [set(g.adj(a)) for a in tri]
        pendants = []
        for i, a in enumerate(tri):
            banned = set(tri)
            for j in range(3):
                if j != i:
                    banned |= others[j]
            pendants.append([u for u in g.neighbors(a) if u not in banned])
        px, py, pz = pendants
        if not (px and py and pz):
            continue
        for ux in px:
            aux = g.adj(ux)
            for uy in py:
                if uy == ux or uy in aux:
                    continue
                auy = g.adj(uy)
                for uz in pz:
                    if uz in (ux, uy) or uz in aux or uz in auy:
                        continue
                    return PatternWitness("net", (x, y, z, ux, uy, uz))
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
    for i, a1 in enumerate(a):
        n1 = g.adj(a1) & bset
        for a2 in a[i + 1 :]:
            n2 = g.adj(a2) & bset
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
        candidates.update(g.adj(v))
    for u in sorted(candidates - both):
        au = g.adj(u)
        hit_x = len(au & xs)
        hit_y = len(au & ys)
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


def brandstadt_check(g: Graph, h: PatternWitness) -> int | None:
    """Check every node outside an induced S3-minus sees >= 2 of its nodes."""
    if h.kind != "s3minus" or not validate_witness(g, h):
        raise GraphInputError("witness does not induce an S3-minus in this graph")
    members = set(h.nodes)
    for u in range(g.n):
        if u in members:
            continue
        if len(g.adj(u) & members) < 2:
            return u
    return None
