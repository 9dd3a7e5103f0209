"""Rules on the package source itself."""

import ast
import re
import sys
from pathlib import Path
from types import ModuleType

import mwss
from mwss import Graph

from helpers import MALFORMED_GRAPHS, flipped_strip, perturbed_strip

SOURCES = sorted(Path(mwss.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # ``python -O`` strips asserts, so no contract of the package may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 10
    assert found == []


ROOT = Path(mwss.__file__).parents[2]


def test_package_exports_exactly_its_documented_all():
    # the package binds its submodules, __version__ and the names of
    # __all__, nothing else public; each of those names is in the README
    public = {
        name
        for name, value in vars(mwss).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(mwss.__all__) == len(set(mwss.__all__)) <= 40
    assert public == set(mwss.__all__)
    readme = (ROOT / "README.md").read_text()
    assert [name for name in mwss.__all__ if not re.search(rf"\b{name}\b", readme)] == []


def test_every_public_definition_is_used_or_documented():
    # a public top-level def or class of src/mwss is referenced outside its
    # own definition by another package line (not __init__.py), by
    # perfbench or by the README; a test-only helper belongs in tests/
    lines = {
        path: path.read_text().splitlines() for path in SOURCES if path.name != "__init__.py"
    }
    outside = "\n".join(
        path.read_text() for path in [ROOT / "README.md", *(ROOT / "perfbench").glob("*.py")]
    )
    unused = []
    for path, text in lines.items():
        for node in ast.parse("\n".join(text)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            word = re.compile(rf"\b{node.name}\b")
            own = range(node.lineno - len(node.decorator_list), node.end_lineno + 1)
            if not word.search(outside) and not any(
                word.search(line)
                for other, rows in lines.items()
                for number, line in enumerate(rows, 1)
                if other != path or number not in own
            ):
                unused.append(f"{path.name}:{node.name}")
    assert unused == []


SOLVER_MODULES = (
    "graph",
    "canonical",
    "wings",
    "decomposition",
    "square_elimination",
    "interval_mwss",
    "solver",
)
CHECK_MODULES = {"patterns", "checks", "oracle", "selftest"}


def _imported_modules(tree):
    """Last dotted component of every module an import statement names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.rsplit(".", 1)[-1]
            if node.module in (None, "mwss"):  # from . import selftest
                yield from (alias.name for alias in node.names)


def test_solver_modules_import_no_check_code():
    # detectors, invariant checks and oracles run on test and check paths,
    # never on the solve path
    root = Path(mwss.__file__).parent
    found = {
        name: sorted(
            set(_imported_modules(ast.parse((root / f"{name}.py").read_text())))
            & CHECK_MODULES
        )
        for name in SOLVER_MODULES
    }
    assert found == {name: [] for name in SOLVER_MODULES}


def test_solver_modules_import_no_random():
    # the solve path keeps no PRNG: no key, label or tie-break of a solve
    # may come from one, seeded or not
    root = Path(mwss.__file__).parent
    found = [
        name
        for name in SOLVER_MODULES
        if "random" in _imported_modules(ast.parse((root / f"{name}.py").read_text()))
    ]
    assert found == []


def test_solver_modules_read_adjacency_rows_only():
    # the sorted rows are the only adjacency a Graph holds; membership sets
    # are built per call from single rows, never cached for the whole graph
    root = Path(mwss.__file__).parent
    found = []
    for name in SOLVER_MODULES:
        for node in ast.walk(ast.parse((root / f"{name}.py").read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "_sets":
                found.append(f"{name}:{node.lineno} _sets")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "adj"
            ):
                found.append(f"{name}:{node.lineno} .adj(")
    assert found == []
    assert mwss.Graph.__slots__ == ("n", "m", "weights", "_nbrs")


STRIP_PIPELINE_MODULES = ("wings", "decomposition", "square_elimination", "interval_mwss")
STATE_PREDICATES = {"is_stable_node", "is_free", "is_bound", "stable_neighbor"}


def test_strip_pipeline_calls_no_per_node_state_predicate():
    # the strip pipeline reads stable membership from arrays built in one
    # walk, not through a CanonicalState method call per node
    root = Path(mwss.__file__).parent
    found = [
        f"{name}:{node.lineno} {node.func.attr}"
        for name in STRIP_PIPELINE_MODULES
        for node in ast.walk(ast.parse((root / f"{name}.py").read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in STATE_PREDICATES
    ]
    assert found == []


def test_solver_modules_define_no_canonical_state():
    # the per-node classification of a stable set serves checks and tests
    # only, so it lives in mwss.checks; the solver hands on a plain tuple
    root = Path(mwss.__file__).parent
    named = STATE_PREDICATES | {"classification", "free_nodes", "CanonicalState"}
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name in SOLVER_MODULES
        for node in ast.walk(ast.parse((root / f"{name}.py").read_text()))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in named
    ]
    assert found == []
    assert mwss.CanonicalState.__module__ == "mwss.checks"


def test_solver_modules_keep_no_module_state():
    # a solve hands its intermediate data on through arguments and return
    # values; no solver function rebinds a module-level name
    root = Path(mwss.__file__).parent
    found = [
        f"{name}:{node.lineno} global {', '.join(node.names)}"
        for name in SOLVER_MODULES
        for node in ast.walk(ast.parse((root / f"{name}.py").read_text()))
        if isinstance(node, ast.Global)
    ]
    assert found == []


OFF_PATH_KINDS = {
    "strip_cover", "strip_adjacent", "removal_size", "wing_missing",
    "strip_overlap", "stage", "nesting",
}


def test_solver_modules_raise_no_off_path_kind():
    # these hold by construction (the proofs are in the docstrings of
    # build_strips, classify_q, select_q and EliminationState.run), so the
    # solve path never tests them; mwss.checks.strip_partition_violation
    # checks the strips off it, and find_square_in and verify_consistent
    # the nesting.  consistent_order states the partition and the nesting
    # as its preconditions, so interval_mwss raises no GraphInputError
    root = Path(mwss.__file__).parent
    kinds = {}
    input_errors = []
    for name in SOLVER_MODULES:
        for node in ast.walk(ast.parse((root / f"{name}.py").read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            if (
                node.func.id == "StructuralError"
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                kinds.setdefault(node.args[0].value, []).append(f"{name}:{node.lineno}")
            elif node.func.id == "GraphInputError":
                input_errors.append(f"{name}:{node.lineno}")
    assert {"claw", "non_clique_layer", "wing_degree"} <= kinds.keys()  # the scan sees raises
    assert {kind: kinds[kind] for kind in OFF_PATH_KINDS & kinds.keys()} == {}
    assert any(site.startswith("graph:") for site in input_errors)
    assert [site for site in input_errors if site.startswith("interval_mwss:")] == []
    for name in ("square_elimination", "interval_mwss"):  # they raise nothing
        assert "StructuralError" not in (root / f"{name}.py").read_text()


def _raise_sites(names, error):
    """(module, line span) of every ``raise error(...)`` in the named
    package modules."""
    root = Path(mwss.__file__).parent
    return {
        (name, range(node.lineno, node.end_lineno + 1))
        for name in names
        for node in ast.walk(ast.parse((root / f"{name}.py").read_text()))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == error
    }


def _missed_sites(names, error, run_inputs):
    """The ``raise error(...)`` sites of the named modules that no line of
    ``run_inputs()`` reaches, as "module:line"."""
    files = {str(Path(mwss.__file__).parent / f"{name}.py"): name for name in names}
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((files[frame.f_code.co_filename], frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        run_inputs()
    finally:
        sys.settrace(previous)
    return sorted(
        f"{name}:{span.start}"
        for name, span in _raise_sites(names, error)
        if not any((name, line) in ran for line in span)
    )


def _reaching_inputs():
    """One input per raise site: seeded flips that a search found to reach
    it, or a hand-made graph."""
    path7 = (3, 0, 4, 1, 5, 2, 6)
    return [
        perturbed_strip(0),  # canonical claw, on the input's rows
        Graph(8, [(4, 5), (4, 6), (4, 7)]),  # a claw copied at half the input: solve's id mapping
        perturbed_strip(80),  # canonical: three independent free neighbors
        perturbed_strip(14),  # irregular stable node
        perturbed_strip(1545),  # wings: net
        perturbed_strip(25),  # wings: claw
        perturbed_strip(10),  # wing_degree
        perturbed_strip(231),  # wing_disconnected
        flipped_strip(16277, nodes=(12, 60), clique_max=4),  # select_q non_clique
        perturbed_strip(42),  # partition
        perturbed_strip(123),  # non_clique side of N(Q)
        perturbed_strip(4),  # non_clique_layer
        perturbed_strip(126),  # dominating V - N[Q] not a clique
        # find_stable4: a node seeing three members, a bound node seeing a
        # node free at the third member, a stable triple in a neighbourhood
        Graph(7, [(0, 3), (1, 4), (2, 5), (0, 6), (1, 6), (2, 6)]),
        Graph(7, [(path7[i], path7[i + 1]) for i in range(6)] + [(4, 6)]),
        perturbed_strip(101),
    ]


def test_every_structural_raise_is_reached():
    # a raise site that no input reaches is dead code or an untested
    # contract: each one in the solver modules must run on a pinned input
    inputs = _reaching_inputs()
    rejected = []

    def solve_all():
        for g in inputs:
            try:
                mwss.solve(g)
            except mwss.StructuralError:
                rejected.append(g)

    assert len(_raise_sites(SOLVER_MODULES, "StructuralError")) >= 15
    assert _missed_sites(SOLVER_MODULES, "StructuralError", solve_all) == []
    assert len(rejected) == len(inputs)


def test_every_parse_error_raise_is_reached():
    # the same rule for the graph file parser, on the pinned malformed files
    rejected = []

    def parse_all():
        for text, _, _ in MALFORMED_GRAPHS:
            try:
                mwss.parse_graph(text)
            except mwss.GraphParseError:
                rejected.append(text)

    assert len(_raise_sites(["graphio"], "GraphParseError")) >= 18
    assert _missed_sites(["graphio"], "GraphParseError", parse_all) == []
    assert len(rejected) == len(MALFORMED_GRAPHS)
