"""mwss benchmark: seeded workloads, checked answers, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload strip_large --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics, pooling the samples of one
or more rounds, each in a fresh process (``--round``).  ``--trace 1`` runs
the workload's traced unit once untraced and once under
``tracing.Tracer``, reports per-layer metrics, and writes its spans to
``.perfbench_out/`` at the repository root.  The lines printed first are
a readable report; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every answer is checked three ways against ``reference.Chain``: the set
is stable, its weight equals the reported value, and the value equals the
chain DP optimum.  A run that cannot import the package from ``src/``
exits with status 2 and prints no result.

The benchmark's own tests: ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import math
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import mwss
    from mwss import Graph, parse_graph, serialize_graph, solve

    import reference
    import tracing
    import workloads
except ImportError as exc:
    print(f"cannot import the mwss package from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)
if Path(mwss.__file__).resolve().parent != ROOT / "src" / "mwss":
    print(f"mwss was imported from {mwss.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
    sys.exit(2)

MIN_SETUPS = 3  # set-ups a run measures at least
ROUND_TIMEOUT_S = 170  # a run must end within 180 s
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = (
    ("solve_s", "s"),
    ("calls_per_s", "1/s"),
    ("call_p90_s", "s"),
    ("load_s", "s"),
    ("peak_mem_mb", "MB"),
    ("setup_s", "s"),
)
COUNTERS = (
    "graph.twin_steps",
    "graph.components",
    "solver.route_alpha3",
    "solver.route_pipeline",
    "canonical.steps",
    "decomposition.removal_size",
    "square_elimination.added_edges",
    "square_elimination.stages",
    "interval_mwss.dp_passes",
    "graphio.bytes",
)


def span_metric_names(span: str) -> tuple[str, str, str]:
    """Total, self and count metric names of a span."""
    self_name = "solver.self_s" if span == tracing.SOLVE else f"{span}_self_s"
    return f"{span}_s", self_name, f"{span}_calls"


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for span in tracing.SPAN_NAMES:
        total, own, calls = span_metric_names(span)
        units.update({total: "s", own: "s", calls: "count"})
    units.update({name: "count" for name in COUNTERS})
    units["graphio.bytes"] = "B"
    units.update(
        {
            "trace.plain_solve_s": "s",
            "trace.overhead_s": "s",
            "trace.covered_share": "ratio",
            "trace.absent": "count",
        }
    )
    return units


@contextlib.contextmanager
def frozen_heap():
    """Keep objects alive so far out of the collector's passes while measuring.

    The benchmark's own data (the instance, its edge list, the reference)
    would otherwise be traversed by every full collection inside a timed
    call, which a caller holding only its own graph does not pay.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str]


class Checker:
    """Counts calls and checks each answer against the chain reference."""

    def __init__(self, workload, chain: reference.Chain):
        self.workload = workload
        self.chain = chain
        self.expected: dict[int, int] = {}  # weight-vector index -> optimum
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def note(self, problem: str):
        if problem not in self.problems:
            self.problems.append(problem)

    def fail(self, i: int, why: str):
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"call {i}: {why}")

    def check(self, i: int, solution) -> bool:
        weights = self.workload.call_weights(i)
        key = i % len(self.workload.weight_vectors)
        if key not in self.expected:
            self.expected[key] = self.chain.optimum(weights)
        nodes = solution.nodes
        if not self.chain.is_stable(nodes):
            self.fail(i, "set is not stable")
        elif sum(weights[v] for v in nodes) != solution.value:
            self.fail(i, f"set weight differs from value {solution.value}")
        elif solution.value != self.expected[key]:
            self.fail(i, f"value {solution.value} != reference {self.expected[key]}")
        else:
            self.attempted += 1
            return True
        return False


def make_call(workload, i: int, tracer: tracing.Tracer | None = None):
    """One call: Graph through the public constructor, then solve.

    Under a tracer the call and the solve inside it are spans, and solve
    collects its certificates.  Returns (solution, build s, solve s).
    """
    span = tracer.span if tracer else _no_span
    weights = workload.call_weights(i)
    with span(tracing.CALL):
        t0 = time.perf_counter()
        g = Graph(workload.graph.n, workload.edges, weights)
        t1 = time.perf_counter()
        with span(tracing.SOLVE):
            solution = solve(g, collect_trace=tracer is not None)
        t2 = time.perf_counter()
    return solution, t1 - t0, t2 - t1


def _no_span(name):
    return contextlib.nullcontext()


def guarded_call(workload, checker: Checker, i: int, tracer=None):
    """make_call, with an error or a wrong answer counted as failed (None)."""
    try:
        result = make_call(workload, i, tracer)
    except Exception as exc:  # any error of the program is a failed call
        traceback.print_exc(file=sys.stderr)
        checker.fail(i, f"raised {type(exc).__name__}: {exc}")
        return None
    return result if checker.check(i, result[0]) else None


def memory_pass(workload, checker: Checker) -> list[float]:
    """Tracemalloc peaks (MB) of the workload's memory calls.

    Runs apart from the timed calls: tracing allocations slows solve
    several-fold.  The Graph is built before tracing starts.
    """
    peaks = []
    for i in range(workload.mem_calls):
        g = Graph(workload.graph.n, workload.edges, workload.call_weights(i))
        tracemalloc.start()
        try:
            solution = solve(g)
            peak = tracemalloc.get_traced_memory()[1]
        except Exception as exc:  # any error of the program is a failed call
            traceback.print_exc(file=sys.stderr)
            checker.fail(i, f"raised {type(exc).__name__}: {exc}")
            continue
        finally:
            tracemalloc.stop()
        if checker.check(i, solution):
            peaks.append(peak / 1e6)
    return peaks


def interleaved(probes: dict, seconds: float) -> tuple[dict, float]:
    """Run probes in turn until ``seconds`` passed and each ran its minimum.

    ``probes`` maps a name to (fn, share, minimum); ``fn()`` runs once and
    returns a sample, or None when it failed.  The next probe is the one
    furthest below its share of the time spent, so every probe samples the
    whole run.  On a shared 2-vCPU virtual machine the speed drifts by
    ±20% over a few seconds; a probe measured in one block would see only
    part of that drift.
    """
    spent = dict.fromkeys(probes, 0.0)
    runs = dict.fromkeys(probes, 0)
    samples: dict[str, list] = {name: [] for name in probes}
    start = time.perf_counter()
    while True:
        if time.perf_counter() - start < seconds:
            due = list(probes)
        else:
            due = [name for name in probes if runs[name] < probes[name][2]]
        if not due:
            return samples, time.perf_counter() - start
        name = min(due, key=lambda n: spent[n] / probes[n][1])
        t0 = time.perf_counter()
        sample = probes[name][0]()
        spent[name] += time.perf_counter() - t0
        runs[name] += 1
        if sample is not None:
            samples[name].append(sample)


def p90(samples) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def measure_round(build, seconds: float, memory: bool) -> dict:
    """One round of an untraced run: raw samples, call counts and problems.

    Builds the workload (a set-up sample), then interleaves calls, parses of
    the serialized instance and further set-ups for ``seconds`` and this
    round's share of each minimum count, with the memory pass, if asked, in
    the middle.
    """
    t0 = time.perf_counter()
    workload = build()
    first_setup = time.perf_counter() - t0
    checker = Checker(workload, reference.chain_for(workload))
    text = serialize_graph(workload.graph)
    call_index = itertools.count()
    rounds = workloads.ROUNDS[workload.name]

    def call():
        return guarded_call(workload, checker, next(call_index))

    def parse():
        t0 = time.perf_counter()
        parsed = parse_graph(text)
        seconds = time.perf_counter() - t0
        if parsed != workload.graph:
            checker.note("parse_graph(serialize_graph(g)) != g")
        return seconds

    def setup():
        t0 = time.perf_counter()
        again = build()
        seconds = time.perf_counter() - t0
        if (again.graph, again.weight_vectors) != (workload.graph, workload.weight_vectors):
            checker.note("the same seed built different inputs")
        return seconds

    probes = {
        "call": (call, 0.6, math.ceil(workload.min_calls / rounds)),
        "parse": (parse, 0.2, math.ceil(workload.min_parses / rounds)),
        "setup": (setup, 0.2, math.ceil(MIN_SETUPS / rounds)),
    }

    def half(first: bool) -> dict:
        return {
            name: (fn, share, math.ceil(least / 2) if first else least // 2)
            for name, (fn, share, least) in probes.items()
        }

    # The memory pass sits between two halves of the measuring, which puts
    # the halves' samples further apart in time.
    with frozen_heap():
        samples, elapsed = interleaved(half(True), seconds / 2)
        peaks = memory_pass(workload, checker) if memory else []
        later, later_elapsed = interleaved(half(False), seconds / 2)
    for name, values in later.items():
        samples[name].extend(values)
    elapsed += later_elapsed
    return {
        "n": workload.graph.n,
        "m": workload.graph.m,
        "bytes": len(text),
        "elapsed": elapsed,
        "setup": [first_setup] + samples["setup"],
        "parse": samples["parse"],
        "call": [[build_s, solve_s] for _, build_s, solve_s in samples["call"]],
        "peak_mb": peaks,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
    }


def run_rounds(workload_name: str, seed: int, seconds: float) -> list[dict]:
    """The rounds of an untraced run, each in a fresh process, one after another.

    On a shared 2-vCPU virtual machine the speed also differs from process
    to process by about ±10%; pooling samples from several processes evens
    that out.  Round 0 also runs the memory pass.
    """
    rounds = workloads.ROUNDS[workload_name]
    results = []
    for r in range(rounds):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload_name, "--seed", str(seed),
            "--seconds", repr(seconds / rounds), "--trace", "0", "--round", str(r),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            results.append({"problems": [f"round {r} exited with status {proc.returncode}"]})
        else:
            results.append(json.loads(lines[-1]))
    return results


def summarize(results: list[dict]) -> tuple[Outcome, dict]:
    """Pool the rounds' samples into the end-to-end metrics."""
    outcome = Outcome(
        sum(r.get("attempted", 0) for r in results),
        sum(r.get("failed", 0) for r in results),
        [p for r in results for p in r.get("problems", ())],
    )

    def pooled(key):
        return [x for r in results for x in r.get(key, ())]

    calls, peaks, parses, setups = pooled("call"), pooled("peak_mb"), pooled("parse"), pooled("setup")
    if not (calls and peaks and parses and setups):
        return outcome, {}
    solves = [solve_s for _, solve_s in calls]
    call_s = [build_s + solve_s for build_s, solve_s in calls]
    beyond = sum(1 for c in call_s if c > p90(call_s))
    first = results[0]
    windows = ", ".join(f"{r.get('elapsed', 0.0):.1f}" for r in results)
    print(f"  n={first['n']} m={first['m']}, rounds measuring {windows} s")
    print(f"  setup_s      median of {len(setups)} set-ups, {len(results)} of them first in their process")
    print(f"  load_s       median of {len(parses)} parses of {first['bytes']} bytes")
    print(f"  peak_mem_mb  median of {len(peaks)} traced-allocation solve(s)")
    print(f"  solve_s      median of {len(solves)} completed calls")
    print(f"  call_p90_s   over {len(call_s)} calls, {beyond} beyond it")
    metrics = {
        "solve_s": statistics.median(solves),
        "calls_per_s": len(call_s) / sum(call_s),
        "call_p90_s": p90(call_s),
        "load_s": statistics.median(parses),
        "peak_mem_mb": statistics.median(peaks),
        "setup_s": statistics.median(setups),
    }
    return outcome, {name: (metrics[name], unit) for name, unit in END_TO_END}


def certificate_counters(solution, counters: dict, absent: set):
    """Add the deterministic counters of one traced solve into ``counters``."""
    certs = solution.certificates or {}
    details = [d for d in certs.get("details") or () if d is not None]
    routes = certs.get("routes")

    def add(name, value):
        if value is None:
            absent.add(name)
        else:
            counters[name] = counters.get(name, 0) + value

    def each(get):
        try:
            return sum(get(d) for d in details)
        except AttributeError:
            return None

    add("graph.twin_steps", certs.get("twin_steps"))
    add("graph.components", certs.get("components"))
    add("solver.route_alpha3", None if routes is None else routes.count("alpha3_fallback"))
    add("solver.route_pipeline", None if routes is None else routes.count("strip_pipeline"))
    add("canonical.steps", each(lambda d: d.canonical_steps))
    add("decomposition.removal_size", each(lambda d: len(d.decomposition.removal)))
    add("square_elimination.added_edges", each(lambda d: len(d.interval.added_edges)))
    add("square_elimination.stages", each(lambda d: sum(map(sum, d.interval.stage_counts))))
    add("interval_mwss.dp_passes", each(lambda d: d.dp_passes))


def run_traced(workload, spans_path: Path | None = None):
    """Per-layer metrics of one traced pass over the workload's traced unit.

    Each call of the unit runs untraced, then traced; both answers are
    checked and must agree.
    """
    checker = Checker(workload, reference.chain_for(workload))
    tracer = tracing.Tracer()
    text = serialize_graph(workload.graph)
    with tracer.span(tracing.PARSE):
        parsed = parse_graph(text)
    if parsed != workload.graph:
        checker.note("parse_graph(serialize_graph(g)) != g")
    counters = {"graphio.bytes": len(text.encode())}
    absent: set[str] = set()
    plain_solve = 0.0
    with frozen_heap():
        for i in range(workload.trace_calls):
            plain = guarded_call(workload, checker, i)
            with tracer:
                traced = guarded_call(workload, checker, i, tracer)
            if plain is None or traced is None:
                continue
            plain_solve += plain[2]
            if (plain[0].value, plain[0].nodes) != (traced[0].value, traced[0].nodes):
                checker.note(f"call {i}: traced answer differs from untraced")
            certificate_counters(traced[0], counters, absent)
    absent.update(tracer.absent)
    layers = tracing.layer_times(tracer.spans)
    metrics = {}
    for span in tracing.SPAN_NAMES:
        total, own, calls = layers.get(span, (0.0, 0.0, 0))
        for name, value in zip(span_metric_names(span), (total, own, calls)):
            metrics[name] = value
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0)
    traced_solve = metrics["solver.solve_s"]
    metrics["trace.plain_solve_s"] = plain_solve
    metrics["trace.overhead_s"] = traced_solve - plain_solve
    metrics["trace.covered_share"] = (
        1.0 - metrics["solver.self_s"] / traced_solve if traced_solve else 0.0
    )
    metrics["trace.absent"] = len(absent)
    print(f"  traced unit of {workload.trace_calls} call(s)")
    if absent:
        print(f"  absent spans or counters: {', '.join(sorted(absent))}")
    if spans_path is not None:
        write_spans(spans_path, tracer, sorted(absent))
    units = per_layer_units()
    outcome = Outcome(checker.attempted, checker.failed, checker.problems)
    return outcome, {name: (metrics[name], units[name]) for name in units}


def write_spans(path: Path, tracer, absent):
    """Spans as [name, parent index, start, end], seconds from the first start."""
    path.parent.mkdir(exist_ok=True)
    origin = tracer.spans[0][2] if tracer.spans else 0.0
    spans = [[n, p, s - origin, e - origin] for n, p, s, e in tracer.spans]
    path.write_text(json.dumps({"absent": absent, "spans": spans}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--round", type=int, help="run one round of an untraced run and print its raw samples"
    )
    args = parser.parse_args(argv)
    builder = workloads.BUILDERS[args.workload]
    if args.round is not None:
        result = measure_round(lambda: builder(args.seed), args.seconds, args.round == 0)
        print(json.dumps(result))
        return 0
    print(f"workload {args.workload} seed {args.seed}")
    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        outcome, metrics = run_traced(builder(args.seed), spans_path)
    else:
        outcome, metrics = summarize(run_rounds(args.workload, args.seed, args.seconds))
    correct = outcome.failed == 0 and not outcome.problems and bool(metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  failed_share {outcome.failed}/{outcome.attempted} = {share:.6g}")
    for problem in outcome.problems:
        print(f"  problem: {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
