"""Maximum weight stable sets in {claw, net}-free graphs.

The solver decomposes a connected graph with stability number at least
four into a bisimplicial clique plus at most two clique-strips, removes
every square inside the strips while preserving optimal weights, and
finishes with a linear dynamic program along a consistent ordering.
``__all__`` is the public surface, by the README's groups; stage
internals stay importable from their modules.
"""

from .canonical import canonicalize
from .checks import CanonicalState, semi_homog_pair_certificate, verify_consistent
from .decomposition import Decomposition, build_strips, classify_q, decompose, select_q
from .errors import GraphInputError, GraphParseError, MWSSError, OracleSizeError, StructuralError
from .generators import GenSpec, gen_rejection, gen_strip_instance, generate
from .graph import Graph, induced_subgraph, is_regular_node, remove_twins
from .graphio import dump_graph, load_graph, parse_graph, serialize_graph
from .interval_mwss import consistent_order
from .oracle import oracle_mwss
from .patterns import PatternWitness, find_claw, find_net, find_square_in, validate_witness
from .square_elimination import interval_transform
from .solver import Solution, find_stable4, solve
from .wings import build_wing_graph

__all__ = [
    # graph and I/O
    "Graph", "induced_subgraph", "is_regular_node", "remove_twins",
    "parse_graph", "serialize_graph", "load_graph", "dump_graph",
    # solve
    "solve", "Solution", "find_stable4",
    # stages
    "canonicalize", "build_wing_graph", "select_q", "classify_q", "build_strips",
    "decompose", "Decomposition", "interval_transform", "consistent_order",
    # checks
    "CanonicalState", "semi_homog_pair_certificate", "verify_consistent",
    # detectors and oracle
    "PatternWitness", "validate_witness", "find_claw", "find_net", "find_square_in",
    "oracle_mwss",
    # generators
    "GenSpec", "generate", "gen_strip_instance", "gen_rejection",
    # errors
    "MWSSError", "GraphInputError", "GraphParseError", "OracleSizeError", "StructuralError",
]

__version__ = "0.1.0"
