"""Per-layer spans recorded from outside the program.

``Tracer`` replaces the module attributes through which ``solve`` reaches
each layer with wrappers that record a span (name, parent, start, end),
then restores them.  The solver itself is unchanged, so a traced call
does the work of an untraced one.  A wrapped name that no longer exists
is reported as absent rather than failing the run.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

# (span name, module, attribute path): the entry points ``solve`` uses.
TARGETS = (
    ("graph.build", "mwss.graph", "Graph.__init__"),
    ("graph.validate", "mwss.graph", "Graph.is_stable"),
    ("graph.twins", "mwss.solver", "remove_twins"),
    ("graph.components", "mwss.solver", "connected_components"),
    ("graph.induced", "mwss.solver", "induced_subgraph"),
    ("solver.stable4", "mwss.solver", "find_stable4"),
    ("solver.alpha3", "mwss.solver", "alpha3_fallback"),
    ("canonical.canonicalize", "mwss.solver", "canonicalize"),
    ("decomposition.decompose", "mwss.solver", "decompose"),
    ("wings.table", "mwss.decomposition", "build_wing_table"),
    ("wings.graph", "mwss.decomposition", "build_wing_graph"),
    ("decomposition.select_q", "mwss.decomposition", "select_q"),
    ("decomposition.classify_q", "mwss.decomposition", "classify_q"),
    ("decomposition.build_strips", "mwss.decomposition", "build_strips"),
    ("square_elimination.transform", "mwss.solver", "interval_transform"),
    ("interval_mwss.order", "mwss.solver", "consistent_order"),
    ("interval_mwss.dp", "mwss.solver", "mwss_on_order"),
)
# Spans the benchmark opens itself: a call (Graph build plus solve), the
# solve inside it, and a parse of the serialized instance.
CALL = "call"
SOLVE = "solver.solve"
PARSE = "graphio.parse"
SPAN_NAMES = tuple(name for name, _, _ in TARGETS) + (SOLVE, PARSE)


def _resolve(module: str, path: str):
    """(owner, attribute name, current value), or None if any step is missing."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


class Tracer:
    """Records nested spans while installed (``with tracer: ...``)."""

    def __init__(self, targets=None):
        self.targets = TARGETS if targets is None else targets
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.absent: list[str] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        record = self._begin(name)
        try:
            yield
        finally:
            self._end(record)

    def _begin(self, name: str) -> list:
        record = [name, self._open[-1] if self._open else -1, perf_counter(), 0.0]
        self._open.append(len(self.spans))
        self.spans.append(record)
        return record

    def _end(self, record: list):
        record[3] = perf_counter()
        self._open.pop()

    def _wrap(self, name: str, fn):
        # _begin/_end rather than span(): a pricing_batch unit records about
        # 60,000 spans, and a generator-based context manager costs more.
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(record)

        return wrapper

    def __enter__(self):
        self.absent = []
        for name, module, path in self.targets:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, fn = found
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)
        return False


def layer_times(spans) -> dict[str, list]:
    """Per span name: [total seconds, self seconds, count].

    Total counts a span only when no ancestor has the same name; self time
    is the span's duration minus that of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, parent, start, end) in enumerate(spans):
        row = out.setdefault(name, [0.0, 0.0, 0])
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            row[0] += end - start
        row[1] += end - start - child_time[i]
        row[2] += 1
    return out
