"""DIMACS-flavored graph files.

Format, line oriented, 1-based external ids:

    c <comment>
    p mwss <nodes> <edges>
    n <id> <weight>        # optional; omitted nodes default to weight 1
    e <u> <v>

Edges are normalized to u < v on write, and weight lines are written only
for weights other than 1, so parse(serialize(g)) round-trips exactly.
"""

from __future__ import annotations

from .errors import GraphParseError
from .graph import Graph, sort_rows


def parse_graph(text: str) -> Graph:
    n = None
    m_declared = None
    weights: list[int] = []
    weight_seen: set[int] = set()
    # Rows are filled as edges arrive and duplicates are found in the sorted
    # rows, so a large file leaves no edge list and no set of edge keys.
    rows: list[list[int]] = []
    m = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "p":
            if n is not None:
                raise GraphParseError("duplicate problem line", line_no)
            if len(parts) != 4 or parts[1] != "mwss":
                raise GraphParseError("expected 'p mwss <nodes> <edges>'", line_no)
            try:
                n = int(parts[2])
                m_declared = int(parts[3])
            except ValueError:
                raise GraphParseError("non-integer problem line", line_no) from None
            if n < 0 or m_declared < 0:
                raise GraphParseError("negative counts in problem line", line_no)
            weights = [1] * n
            rows = [[] for _ in range(n)]
        elif kind == "n":
            if n is None:
                raise GraphParseError("weight line before problem line", line_no)
            if len(parts) != 3:
                raise GraphParseError("expected 'n <id> <weight>'", line_no)
            try:
                node = int(parts[1])
                w = int(parts[2])
            except ValueError:
                raise GraphParseError("non-integer weight line", line_no) from None
            if not 1 <= node <= n:
                raise GraphParseError(f"node id {node} out of range 1..{n}", line_no)
            if node in weight_seen:
                raise GraphParseError(f"duplicate weight for node {node}", line_no)
            weight_seen.add(node)
            weights[node - 1] = w
        elif kind == "e":
            if n is None:
                raise GraphParseError("edge line before problem line", line_no)
            if len(parts) != 3:
                raise GraphParseError("expected 'e <u> <v>'", line_no)
            try:
                u = int(parts[1])
                v = int(parts[2])
            except ValueError:
                raise GraphParseError("non-integer edge line", line_no) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphParseError(f"edge ({u}, {v}) out of range 1..{n}", line_no)
            if u == v:
                raise GraphParseError(f"self-loop at node {u}", line_no)
            rows[u - 1].append(v - 1)
            rows[v - 1].append(u - 1)
            m += 1
        else:
            raise GraphParseError(f"unknown line type {kind!r}", line_no)
    if n is None:
        raise GraphParseError("missing problem line")
    if m_declared != m:
        raise GraphParseError(f"problem line declares {m_declared} edges, found {m}")
    duplicate = sort_rows(rows)
    if duplicate is not None:
        u, v = duplicate
        raise GraphParseError(f"duplicate edge ({u + 1}, {v + 1})")
    return Graph._from_rows(map(tuple, rows), weights)


def serialize_graph(g: Graph, comments=()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p mwss {g.n} {g.m}")
    for v in range(g.n):
        if g.weights[v] != 1:
            lines.append(f"n {v + 1} {g.weights[v]}")
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def dump_graph(g: Graph, path, comments=()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_graph(g, comments))
