"""Maximum weight stable sets in {claw, net}-free graphs.

The solver decomposes a connected graph with stability number at least
four into a bisimplicial clique plus at most two clique-strips, removes
every square inside the strips while preserving optimal weights, and
finishes with a linear dynamic program along a consistent ordering.
"""

from .canonical import canonicalize, greedy_members
from .checks import (
    CanonicalState,
    find_augmenting_p3,
    find_dominating_free,
    is_canonical,
    semi_homog_pair_certificate,
    verify_consistent,
)
from .decomposition import (
    Anchor,
    Decomposition,
    build_strips,
    classify_q,
    decompose,
    select_q,
)
from .errors import (
    GraphInputError,
    GraphParseError,
    MWSSError,
    OracleSizeError,
    StructuralError,
)
from .generators import GenSpec, gen_rejection, gen_strip_instance, generate
from .graph import (
    Graph,
    RegularityResult,
    closed_neighborhood,
    connected_components,
    induced_subgraph,
    is_regular_node,
    neighborhood,
    remove_twins,
)
from .graphio import dump_graph, load_graph, parse_graph, serialize_graph
from .interval_mwss import ConsistentOrder, consistent_order, mwss_on_order
from .oracle import mwss_enumerate, oracle_mwss
from .patterns import (
    PatternWitness,
    brandstadt_check,
    find_claw,
    find_net,
    find_square_in,
    semi_homogeneous_violation,
    square_semi_homogeneous_check,
    validate_witness,
)
from .square_elimination import EliminationState, IntervalResult, interval_transform
from .solver import Solution, alpha3_fallback, find_stable4, solve, solve_component
from .wings import WingGraph, build_wing_graph, build_wing_table

__version__ = "0.1.0"
