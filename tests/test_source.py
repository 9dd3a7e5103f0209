"""Rules on the package source itself."""

import ast
from pathlib import Path

import mwss

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


OFF_PATH_KINDS = {"strip_cover", "strip_adjacent", "removal_size", "wing_missing"}


def test_solver_modules_raise_no_off_path_kind():
    # these hold by construction (the proofs are in the docstrings of
    # build_strips, classify_q and select_q), so the solve path never tests
    # them; mwss.checks.strip_partition_violation checks the strips off it
    root = Path(mwss.__file__).parent
    kinds = {}
    for name in SOLVER_MODULES:
        for node in ast.walk(ast.parse((root / f"{name}.py").read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "StructuralError"
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                kinds.setdefault(node.args[0].value, []).append(f"{name}:{node.lineno}")
    assert {"claw", "non_clique_layer", "wing_degree"} <= kinds.keys()  # the scan sees raises
    assert {kind: kinds[kind] for kind in OFF_PATH_KINDS & kinds.keys()} == {}
