"""Command line interface.

Exit codes: 0 success, 1 structural violation or failed check (with a
witness on stderr), 2 usage or parse errors.  External node ids are
1-based; all randomized subcommands require an explicit seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
import tracemalloc

from .canonical import canonicalize, greedy_members
from .errors import GraphInputError, GraphParseError, MWSSError, StructuralError
from .generators import GenSpec, generate
from .graph import Graph, connected_components
from .graphio import load_graph, parse_graph, serialize_graph
from .oracle import DEFAULT_ORACLE_LIMIT, oracle_mwss
from .patterns import find_claw, find_net
from .solver import find_stable4, solve, solve_component
from . import selftest as selftest_mod

ORACLE_LIMIT_ENV = "MWSS_ORACLE_LIMIT"
ORACLE_CHECK_LIMIT = 24  # default gate for solve --oracle-check
NESTED_WEIGHT_HI = 1_000_000  # bench weights of the nested-cliques rungs
STRIP_CLIQUE_MIN, STRIP_CLIQUE_MAX = 7, 11  # clique sizes of the bench's strip rungs
STRIP_DENSITY = 0.6  # cross-adjacency density of the bench's strip rungs


class UsageError(Exception):
    """A bad setting that argparse does not see, such as an environment
    variable; reported like argparse's own errors, with exit code 2."""


def _ext(nodes) -> list[int]:
    return [v + 1 for v in nodes]


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _oracle_limit(default: int = DEFAULT_ORACLE_LIMIT) -> int:
    raw = os.environ.get(ORACLE_LIMIT_ENV)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{ORACLE_LIMIT_ENV} must be an integer, got {raw!r}") from None


def _load(path: str) -> Graph:
    if path == "-":
        return parse_graph(sys.stdin.read())
    return load_graph(path)


def cmd_solve(args) -> int:
    g = _load(args.graph)
    solution = solve(g, collect_trace=args.trace)
    payload = {
        "n": g.n,
        "m": g.m,
        "value": solution.value,
        "set": _ext(solution.nodes),
        "route": solution.route,
    }
    if args.oracle_check:
        limit = _oracle_limit(ORACLE_CHECK_LIMIT)
        if g.n > limit:
            print(
                f"oracle check skipped: n={g.n} exceeds limit {limit}",
                file=sys.stderr,
            )
        else:
            value, _ = oracle_mwss(g, limit)
            payload["oracle_checked"] = True
            payload["oracle_value"] = value
            if value != solution.value:
                print(
                    f"oracle mismatch: solver={solution.value} oracle={value}",
                    file=sys.stderr,
                )
                return 1
    if args.trace and solution.certificates:
        payload["trace"] = {
            "components": solution.certificates["components"],
            "twin_steps": solution.certificates["twin_steps"],
            "routes": list(solution.certificates["routes"]),
        }
    if args.json:
        _emit_json(payload)
    else:
        print(f"value {solution.value}")
        print("set " + " ".join(str(v) for v in _ext(solution.nodes)))
        if payload.get("oracle_checked"):
            print("oracle agreed")
    return 0


def cmd_check(args) -> int:
    g = _load(args.graph)
    claw = find_claw(g)
    net = find_net(g)
    if args.json:
        _emit_json(
            {
                "n": g.n,
                "m": g.m,
                "claw": _ext(claw.nodes) if claw else None,
                "net": _ext(net.nodes) if net else None,
            }
        )
    else:
        print(f"claw: {' '.join(map(str, _ext(claw.nodes))) if claw else 'none'}")
        print(f"net: {' '.join(map(str, _ext(net.nodes))) if net else 'none'}")
    return 1 if (claw or net) else 0


def cmd_decompose(args) -> int:
    g = _load(args.graph)
    comps = connected_components(g)
    if len(comps) > 1:
        print("decompose expects a connected graph", file=sys.stderr)
        return 1
    if find_stable4(g) is None:
        _emit_json({"n": g.n, "alpha_ge_4": False})
        return 0
    _, _, _, detail = solve_component(g, collect=True)
    payload = {"n": g.n, "alpha_ge_4": True}
    dec = detail.decomposition
    payload.update(
        {
            "stable_set": _ext(detail.stable_set),
            "wing_order": _ext(dec.wing_order),
            "core": _ext(dec.core),
            "kind": dec.kind,
            "anchor": {"case": dec.anchor.case, "position": dec.anchor.position},
            "removal_clique": _ext(dec.removal),
            "companion": _ext(dec.companion),
            "strips": [[_ext(k) for k in strip] for strip in dec.strips],
        }
    )
    if args.trace:
        payload["added_edges"] = [[u + 1, v + 1] for u, v in detail.interval.added_edges]
        # one list per strip: the one order runs strip after strip
        order = detail.order.order
        payload["orders"] = []
        for strip in dec.strips:
            size = sum(map(len, strip))
            payload["orders"].append(_ext(order[:size]))
            order = order[size:]
    _emit_json(payload)
    return 0


def cmd_canonicalize(args) -> int:
    g = _load(args.graph)
    stable, stats = canonicalize(g, greedy_members(g))
    if args.json:
        _emit_json(
            {
                "n": g.n,
                "m": g.m,
                "stable_set": _ext(stable),
                "size": len(stable),
                "augmentations": stats.augmentations,
                "alternations": stats.alternations,
                "steps": stats.steps,
            }
        )
    else:
        print("set " + " ".join(str(v) for v in _ext(stable)))
    return 0


def cmd_gen(args) -> int:
    spec = GenSpec(
        seed=args.seed,
        mode=args.mode,
        nodes=args.nodes,
        clique_min=args.clique_min,
        clique_max=args.clique_max,
        density=args.density,
        weights=args.weights,
        weight_lo=args.weight_lo,
        weight_hi=args.weight_hi,
    )
    g = generate(spec)
    # the spec line names every field the mode reads, so it reproduces the file
    shape = (
        f" cliques={spec.clique_min}..{spec.clique_max} density={spec.density}"
        if spec.mode == "strip"
        else ""
    )
    comments = (
        "generated by mwss gen",
        "prng mt19937",
        f"spec seed={spec.seed} mode={spec.mode} nodes={spec.nodes}{shape} "
        f"weights={spec.weights} weight_lo={spec.weight_lo} weight_hi={spec.weight_hi}",
    )
    text = serialize_graph(g, comments)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_oracle(args) -> int:
    g = _load(args.graph)
    value, nodes = oracle_mwss(g, _oracle_limit())
    if args.json:
        _emit_json({"n": g.n, "value": value, "set": _ext(nodes)})
    else:
        print(f"value {value}")
        print("set " + " ".join(str(v) for v in _ext(nodes)))
    return 0


def _median_seconds(fn, repeats: int):
    """Median wall time of ``repeats`` calls of ``fn``, and the last result."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _peak_mb(fn) -> float:
    """Peak traced allocation of one ``fn()`` call, in MB (10^6 bytes).
    Garbage is collected first, so the peak does not depend on when the
    cyclic collector last ran."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def bench_ladder(rungs, repeats: int, seed: int, memory: bool = False) -> list[dict]:
    """Time ``solve`` on one seeded instance per rung.

    A rung is (family, n): "strip" draws a strip instance with cliques of
    ``STRIP_CLIQUE_MIN``..``STRIP_CLIQUE_MAX`` nodes at density
    ``STRIP_DENSITY``, "nested" three nested cliques of n / 3 nodes
    each (the alpha <= 3 route), both with random weights.  Each row holds
    the family, n, m, the generation seconds, the median of ``repeats``
    public ``Graph(n, edges, weights)`` builds from the instance's edge
    list, the median of ``repeats`` solve times, its ratio to the previous
    row of its family and the optimum value, all unrounded.  With
    ``memory`` it also holds ``peak_mb``, the tracemalloc peak of one
    more solve, run after the timed ones since tracing slows a solve
    several-fold.
    """
    rows = []
    prev_median = {}
    for family, n in rungs:
        if family == "nested":
            spec = GenSpec(seed=seed, mode="nested", nodes=n, weights="random",
                           weight_hi=NESTED_WEIGHT_HI)
        else:
            spec = GenSpec(seed=seed, mode="strip", nodes=n, clique_min=STRIP_CLIQUE_MIN,
                           clique_max=STRIP_CLIQUE_MAX, density=STRIP_DENSITY,
                           weights="random")
        t0 = time.perf_counter()
        g = generate(spec)
        gen_s = time.perf_counter() - t0
        edges = list(g.edges())
        build, _ = _median_seconds(lambda: Graph(g.n, edges, g.weights), repeats)
        median, solution = _median_seconds(lambda: solve(g), repeats)
        prev = prev_median.get(family)
        row = {
            "family": family,
            "n": n,
            "m": g.m,
            "gen_seconds": gen_s,
            "median_build_seconds": build,
            "median_solve_seconds": median,
            "ratio_to_previous": (median / prev) if prev else None,
            "value": solution.value,
        }
        if memory:
            row["peak_mb"] = _peak_mb(lambda: solve(g))
        rows.append(row)
        prev_median[family] = median
    return rows


def cmd_bench(args) -> int:
    ladder = bench_ladder(args.sizes, args.repeats, args.seed, memory=args.memory)
    rows = []
    for r in ladder:
        row = {
            **r,
            "gen_seconds": round(r["gen_seconds"], 4),
            "median_build_seconds": round(r["median_build_seconds"], 4),
            "median_solve_seconds": round(r["median_solve_seconds"], 4),
            "ratio_to_previous": (
                round(r["ratio_to_previous"], 3) if r["ratio_to_previous"] else None
            ),
        }
        if args.memory:
            row["peak_mb"] = round(r["peak_mb"], 3)
        rows.append(row)
    if args.json:
        _emit_json({"rows": rows})
    else:
        peak = f" {'peak_mb':>9}" if args.memory else ""
        print(
            f"{'family':<7} {'n':>8} {'m':>9} {'gen_s':>8} {'build_s':>8} "
            f"{'solve_s':>9} {'ratio':>7}{peak}"
        )
        for r in rows:
            ratio = f"{r['ratio_to_previous']:.2f}" if r["ratio_to_previous"] else "-"
            peak = f" {r['peak_mb']:>9.3f}" if args.memory else ""
            print(
                f"{r['family']:<7} {r['n']:>8} {r['m']:>9} {r['gen_seconds']:>8.3f} "
                f"{r['median_build_seconds']:>8.3f} "
                f"{r['median_solve_seconds']:>9.3f} {ratio:>7}{peak}"
            )
    return 0


def cmd_selftest(args) -> int:
    return selftest_mod.run_selftest(
        instances=args.instances, seed=args.seed, out=sys.stdout
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _rung(text: str) -> tuple[str, int]:
    """("strip", n) for "n", ("nested", n) for "nested:n"."""
    family, _, size = text.rpartition(":")
    family = family or "strip"
    if family not in ("strip", "nested"):
        raise argparse.ArgumentTypeError(f"unknown rung family {family!r}")
    n = _positive_int(size)
    if family == "nested" and n % 3:
        raise argparse.ArgumentTypeError(f"nested:{n} is not a multiple of 3 nodes")
    return family, n


def _size_list(text: str) -> list[tuple[str, int]]:
    sizes = [_rung(part) for part in text.split(",") if part]
    if not sizes:
        raise argparse.ArgumentTypeError("needs at least one size")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwss",
        description="Maximum weight stable sets in {claw, net}-free graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a graph file exactly")
    p.add_argument("graph", help="graph file path, or - for stdin")
    p.add_argument("--json", action="store_true")
    p.add_argument("--oracle-check", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="run the claw and net detectors")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="print the strip decomposition as JSON")
    p.add_argument("graph")
    p.add_argument("--trace", action="store_true", help="include added edges and orders")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("canonicalize", help="canonical stable set from a greedy seed")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_canonicalize)

    p = sub.add_parser("gen", help="generate a {claw, net}-free instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("strip", "rejection", "nested"), default="strip")
    p.add_argument("--nodes", type=int, default=40)
    p.add_argument("--clique-min", type=int, default=2)
    p.add_argument("--clique-max", type=int, default=6)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--weights", choices=("unit", "random", "ties"), default="unit")
    p.add_argument("--weight-lo", type=int, default=1)
    p.add_argument("--weight-hi", type=int, default=100)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("oracle", help="brute-force optimum (size guarded)")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="scaling benchmark on strip and nested-clique instances")
    p.add_argument("--sizes", type=_size_list,
                   default="1000,4000,16000,64000,nested:300,nested:600",
                   help="comma-separated node counts, each at least 1: n for a strip "
                        "instance, nested:n for three nested cliques (n a multiple of 3)")
    p.add_argument("--repeats", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--memory", action="store_true",
                   help="add peak_mb: the tracemalloc peak of one untimed solve per size")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("selftest", help="run the invariant suite on seeded instances")
    p.add_argument("--instances", type=_positive_int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except GraphInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except StructuralError as exc:
        witness = tuple(_ext(exc.witness))
        print(f"structural violation: {exc.detail}; witness={witness}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MWSSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"cannot read {exc.filename}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
