"""The strip pipeline's flat passes against the code they replaced.

``strip_pipeline_outcome`` runs the wing table, decomposition, square
elimination and consistent order once through the solver and once
through the references in ``helpers``; both must build the same wing
table, decomposition, added edges, stage counts, order and prefix
pointers, or raise the same ``StructuralError`` kind with the same
witness.  Every node's ``before_len`` and ``after_len`` must equal the
size of the reference's full neighbor-set overlay, diagonals included,
restricted to the clique before and after its own, and the length of its
rows into those cliques in ``mwss.checks.transformed_graph``.
"""

import random
from collections import Counter

import pytest

from mwss import GenSpec, gen_strip_instance, induced_subgraph, remove_twins
from mwss.checks import transformed_graph
from mwss.square_elimination import IntervalResult

from helpers import (
    perturbed_strip,
    reference_positive_twins,
    strip_lengths,
    strip_pipeline_outcome,
    twin_augmented,
)

BLOCKS = 10
PER_BLOCK = 30  # 300 seeds


def strip_instance(seed):
    """Seeded strip graph: n in 10..300, or in 300..4000 for one seed in ten."""
    rng = random.Random(seed)
    n = rng.randint(300, 4000) if seed % 10 == 9 else rng.randint(10, 300)
    return gen_strip_instance(
        GenSpec(
            seed=seed,
            nodes=n,
            clique_min=rng.randint(1, 4),
            clique_max=rng.randint(4, 11),
            density=rng.choice((0.3, 0.5, 0.6, 0.8)),
            weights=rng.choice(("unit", "random", "ties")),
        )
    )


def outcome_kind(outcome):
    if outcome is None:
        return "alpha_below_4"
    return outcome[1] if outcome[0] == "error" else "ok"


def matches_reference(g):
    got = strip_pipeline_outcome(g)
    assert got == strip_pipeline_outcome(g, reference=True)
    kind = outcome_kind(got)
    if kind == "ok":
        _, dec, before_len, after_len, added, stage_counts, _, _ = got
        cliques = tuple(k for strip in dec.strips for k in strip)
        interval = IntervalResult(before_len, after_len, cliques, added, stage_counts)
        gbar = transformed_graph(g, interval)
        assert (before_len, after_len) == strip_lengths(gbar, cliques)
    return kind


@pytest.mark.parametrize("block", range(BLOCKS))
def test_strip_instances_and_twin_variants_match_reference(block):
    # the solver runs the pipeline on components without adjacent twins;
    # with twins added back, the stages must still agree
    strips, twins = Counter(), Counter()
    for seed in range(block * PER_BLOCK, (block + 1) * PER_BLOCK):
        g = strip_instance(seed)
        reduced = induced_subgraph(g, remove_twins(g))
        assert reduced == reference_positive_twins(g)[0]
        strips[matches_reference(reduced)] += 1
        twins[matches_reference(twin_augmented(g, random.Random(seed), 1 + seed % 2))] += 1
    assert strips["ok"] >= PER_BLOCK // 2, strips
    assert twins["ok"] >= 5, twins


def test_perturbed_strips_raise_or_build_as_reference():
    kinds = Counter(matches_reference(perturbed_strip(seed)) for seed in range(400))
    assert kinds["ok"] >= 20 and sum(kinds.values()) - kinds["ok"] >= 200, kinds
