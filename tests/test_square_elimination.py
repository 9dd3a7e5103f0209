import random
import tracemalloc

import pytest

import mwss.solver
from mwss import (
    GenSpec,
    Graph,
    StructuralError,
    consistent_order,
    gen_strip_instance,
    interval_transform,
    oracle_mwss,
    solve,
)
from mwss.checks import (
    interval_violation,
    semi_homog_pair_certificate,
    strip_partition_violation,
    transformed_graph,
)
from mwss.interval_mwss import mwss_on_order
from mwss.patterns import square_semi_homogeneous_check
from mwss.solver import solve_component
from mwss.square_elimination import EliminationState

from helpers import (
    acceptance_extras,
    acceptance_pool,
    cycle_graph,
    overlay,
    path_graph,
    perturbed_strip,
    reference_check_cover,
    reference_validate_cover,
    strip_lengths,
    strip_rows,
)


def pair_state(g, ki, kj):
    """``EliminationState`` for the pair on ``g``'s own rows."""
    return EliminationState(strip_rows(g, [ki, kj])[1], g.weights, ki)


class TestStage:
    def test_universal_pair_only_removes(self):
        # complete join between the cliques: case (i) until A drains
        g = Graph(4, [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)])
        st = pair_state(g, (0, 1), (2, 3))
        actions = []
        while st.a:
            actions.append(st.stage())
        assert st.added == []
        assert set(actions) == {"remove"}

    def test_kill_c4_keeps_heaviest_diagonal_apart(self):
        # square (a1, a2, b1, b2) with w(a1)=5, w(b1)=4, w(a2)=3, w(b2)=2
        g = Graph(4, [(0, 1), (2, 3), (0, 3), (1, 2)], [5, 3, 4, 2])
        st = pair_state(g, (0, 1), (2, 3))
        action = st.stage()
        assert action == "kill_c4"
        assert st.added == [(1, 3)]  # joins the lighter pair {a2, b2}

    def test_kill_c4_tie_adds_amax_edge(self):
        g = Graph(4, [(0, 1), (2, 3), (0, 3), (1, 2)], [1, 1, 1, 1])
        st = pair_state(g, (0, 1), (2, 3))
        assert st.stage() == "kill_c4"
        assert st.added == [(0, 2)]  # a_max b1 on equal weight sums

    def test_kill_diags_spares_heaviest(self):
        # abar=0 sees only b3=5; partner 1 sees the other three
        g = Graph(
            6,
            [(0, 1), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5),
             (0, 5), (1, 2), (1, 3), (1, 4)],
            [1, 1, 7, 2, 2, 1],
        )
        st = pair_state(g, (0, 1), (2, 3, 4, 5))
        assert st.stage() == "kill_diags"
        assert st.added == [(0, 3), (0, 4)]  # node 2 (weight 7) is spared

    def test_full_run_trace_and_alpha_preserved(self):
        g = Graph(
            6,
            [(0, 1), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5),
             (0, 5), (1, 2), (1, 3), (1, 4)],
            [1, 1, 7, 2, 2, 1],
        )
        before = oracle_mwss(g)[0]
        res = interval_transform(g, [[(0, 1), (2, 3, 4, 5)]])
        assert oracle_mwss(transformed_graph(g, res))[0] == before
        assert res.added_edges == ((0, 3), (0, 4), (1, 5))
        assert res.cliques == ((0, 1), (2, 3, 4, 5))
        # 0 gains 3 and 4 beside 5, 1 gains 5 beside 2, 3 and 4
        assert res.after_len == [3, 4, 0, 0, 0, 0]
        assert res.before_len == [0, 0, 1, 2, 2, 2]
        assert (res.before_len, res.after_len) == strip_lengths(
            transformed_graph(g, res), res.cliques
        )

    def test_stage_count_bounded(self):
        for seed in range(25):
            g = gen_strip_instance(
                GenSpec(seed=4000 + seed, mode="strip", nodes=12 + seed, clique_min=2, clique_max=5, density=0.5)
            )
            _, _, route, detail = solve_component(g, collect=True)
            if detail is None:
                continue
            for strip, counts in zip(
                detail.decomposition.strips, detail.interval.stage_counts
            ):
                for (ki, _kj), c in zip(
                    zip(strip, strip[1:]), counts
                ):
                    assert c <= 3 * len(ki)


def random_pair(rng):
    """Two cliques K_i = 0..p-1 and K_j = p..p+q-1 with random edges
    between them, claws allowed, and random weights."""
    p, q = rng.randint(1, 9), rng.randint(1, 9)
    ki, kj = tuple(range(p)), tuple(range(p, p + q))
    density = rng.random()
    edges = [(u, v) for k in (ki, kj) for i, u in enumerate(k) for v in k[i + 1:]]
    edges += [(u, v) for u in ki for v in kj if rng.random() < density]
    hi = rng.choice((3, 100))  # few weights make ties
    return Graph(p + q, edges, [rng.randint(1, hi) for _ in range(p + q)]), ki, kj


def potential(st):
    """The sum over live A nodes of 1 + min(|B| - d, 2), which every stage
    lowers (``EliminationState.run``)."""
    return sum(1 + min(len(st.b) - st.d[u], 2) for u in st.a)


class TestRunProofs:
    @pytest.mark.parametrize("seed", range(4))
    def test_any_pair_drains_within_3a_stages_and_nests(self, seed):
        rng = random.Random(4100 + seed)
        for _ in range(150):
            g, ki, kj = random_pair(rng)
            stepped = pair_state(g, ki, kj)
            phi = potential(stepped)
            assert phi <= 3 * len(stepped.a)
            while stepped.a:
                stepped.stage()
                phi, last = potential(stepped), phi
                assert phi < last
            _, after = strip_rows(g, [ki, kj])
            st = EliminationState(after, g.weights, ki)
            a_size = len(st.a)
            assert st.run() <= 3 * a_size
            assert st.added == stepped.added
            # K_i's final rows, the reaches consistent_order ranks, form a
            # chain; a row a stage grew is its set
            reaches = sorted((set(st.a_sets.get(u) or after[u]) for u in ki), key=len)
            assert all(lo <= hi for lo, hi in zip(reaches, reaches[1:]))


class TestTransform:
    @pytest.mark.parametrize("seed", range(40))
    def test_squares_gone_claws_absent_weights_preserved(self, seed):
        g = gen_strip_instance(
            GenSpec(
                seed=5000 + seed,
                mode="strip",
                nodes=9 + (seed % 10),
                clique_min=1,
                clique_max=4,
                density=(0.35, 0.55, 0.8)[seed % 3],
                weights=("unit", "random", "ties")[seed % 3],
            )
        )
        _, _, route, detail = solve_component(g, collect=True)
        if detail is None:
            pytest.skip("component fell back")
        # claw-freeness, square-freeness and a consistent order on the strips
        assert interval_violation(g, detail.interval, detail.order) is None
        # alpha_w(Gbar) equals alpha_w(G - X), strip by strip summation
        from mwss import induced_subgraph

        removal = set(detail.decomposition.removal)
        keep = [v for v in range(g.n) if v not in removal]
        g_minus_x = induced_subgraph(g, keep)
        assert mwss_on_order(detail.order, g.weights)[0] == oracle_mwss(g_minus_x)[0]

    def test_added_edges_are_logged_in_original_ids(self):
        g = gen_strip_instance(GenSpec(seed=123, mode="strip", nodes=16, clique_min=2, clique_max=4, density=0.5))
        _, _, _, detail = solve_component(g, collect=True)
        strip_nodes = {v for k in detail.interval.cliques for v in k}
        assert strip_nodes == set(range(g.n)) - set(detail.decomposition.removal)
        for u, v in detail.interval.added_edges:
            assert u in strip_nodes and v in strip_nodes
            assert not g.has_edge(u, v)


class TestRowShape:
    def test_rows_sorted_counted_and_remove_pairs_build_no_set(self):
        g = gen_strip_instance(
            GenSpec(seed=4242, mode="strip", nodes=4000, clique_min=7, clique_max=11,
                    density=0.6, weights="random")
        )
        details = [d for d in solve(g, collect_trace=True).certificates["details"] if d]
        assert details
        remove_only = other = 0
        for detail in details:
            comp, interval = detail.graph, detail.interval
            assert len(interval.before_len) == len(interval.after_len) == comp.n
            # replay every pair on fresh rows: same diagonals, rows left as
            # given, and lengths that count the replayed final rows and the
            # transformed graph's rows into the neighbouring cliques
            before, after = [()] * comp.n, [()] * comp.n
            before_len, after_len = [0] * comp.n, [0] * comp.n
            cross = 0
            added = []
            for strip in detail.decomposition.strips:
                lo, hi = strip_rows(comp, strip)
                for v in {v for k in strip for v in k}:
                    before[v], after[v] = lo[v], hi[v]
                    cross += len(hi[v])
                for ki, kj in zip(strip, strip[1:]):
                    given = list(after)
                    st = EliminationState(after, comp.weights, ki)
                    actions = []
                    while st.a:
                        actions.append(st.stage())
                    assert st.run() == 0  # A is drained
                    assert after == given
                    added.extend(st.added)
                    if set(actions) == {"remove"}:
                        assert not st.a_sets and not st.added
                        remove_only += 1
                    else:
                        assert st.a_sets and st.added
                        other += 1
                    # K_j's counts are its before rows plus its diagonals
                    gained = [v for edge in st.added for v in edge if v in kj]
                    assert st.b_len == {
                        v: len(before[v]) + gained.count(v) for v in kj if before[v]
                    }
                    for u in ki:
                        after_len[u] = len(st.a_sets.get(u) or after[u])
                    for v, count in st.b_len.items():
                        before_len[v] = count
            for row in before + after:
                assert type(row) is tuple and list(row) == sorted(set(row))
            assert tuple(added) == interval.added_edges
            lengths = (interval.before_len, interval.after_len)
            assert lengths == (before_len, after_len)
            assert lengths == strip_lengths(transformed_graph(comp, interval), interval.cliques)
            total = sum(interval.before_len) + sum(interval.after_len)
            assert total == 2 * (cross + len(interval.added_edges))
        assert remove_only >= 100 and other >= 100, (remove_only, other)


class TestCoverCheck:
    # hand-built strips; strip_partition_violation must name what the
    # reference cover check raises, with the same witness
    @pytest.mark.parametrize(
        "g, strips, removal, kind, witness",
        [
            # node 1 in two cliques
            (path_graph(4), [[(0,), (1,), (1, 2), (3,)]], (), "strip_cover", (1,)),
            # node 4 in no clique
            (path_graph(5), [[(1,), (2,), (3,)]], (0,), "strip_cover", (4,)),
            # node 4 missing and node 0 of X in a clique
            (path_graph(5), [[(0, 1), (2,), (3,)]], (0,), "strip_cover", (4, 0)),
            # edge 1-2 joins two strips
            (path_graph(4), [[(0,), (1,)], [(2,), (3,)]], (), "strip_adjacent", (1, 2)),
            # edge 0-3 skips two cliques
            (cycle_graph(4), [[(0,), (1,), (2,), (3,)]], (), "strip_adjacent", (0, 3)),
        ],
    )
    def test_violation_kind_and_witness(self, g, strips, removal, kind, witness):
        with pytest.raises(StructuralError) as err:
            reference_validate_cover(g, strips, removal)
        assert (err.value.kind, err.value.witness) == (kind, witness)
        assert strip_partition_violation(g, strips, removal) == (kind, witness)

    def test_missing_clique_edge_raises_non_clique(self):
        # 0 and 1 share a clique without an edge, and no edge strays
        g = Graph(3, [(0, 2), (1, 2)], [5, 5, 1])
        assert oracle_mwss(g)[0] == 10
        assert strip_partition_violation(g, [((0, 1), (2,))], ()) == ("non_clique", (0, 1))

    def test_missing_clique_edges_offset_by_edges_between_strips(self):
        # each node misses its clique mate and sees a node of the other
        # strip instead, so its degree is what a valid cover would give;
        # interval_transform takes the strips as cliques, and the DP misses
        # the optimum
        g = Graph(4, [(0, 2), (1, 3)], [5, 5, 1, 1])
        strips = [((0, 1),), ((2, 3),)]
        res = interval_transform(g, strips)
        co = consistent_order(res.before_len, res.after_len, res.cliques)
        assert mwss_on_order(co, g.weights)[0] == 6 and oracle_mwss(g)[0] == 10
        # non_clique comes first; with the clique edges in, the edges
        # between the strips are named
        assert strip_partition_violation(g, strips, ()) == ("non_clique", (0, 1))
        whole = Graph(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
        assert strip_partition_violation(whole, strips, ()) == ("strip_adjacent", (0, 2))

    def test_edges_into_x_are_allowed(self):
        g = path_graph(5)
        strips = [[(0,), (1,)], [(3,), (4,)]]
        assert strip_partition_violation(g, strips, (2,)) is None
        res = interval_transform(g, strips)
        assert res.before_len == [0, 1, 0, 0, 1]
        assert res.after_len == [1, 0, 0, 1, 0]

    @pytest.mark.parametrize(
        "n, cliques, removal",
        [
            (3, [(0, 1, 2)], ()),
            (0, [], ()),
            (3, [], (0, 1, 2)),
            (4, [(0,), (1,), (1, 2), (3,)], ()),  # a node in two cliques
            (5, [(1,), (2,), (3,)], (0,)),  # a missing node
            (3, [(0, 1, 2, 3)], ()),  # an extra node
            (3, [(-1, 0), (1, 2)], ()),  # an extra negative id
            (5, [(0, 1), (2,), (3, 4)], (0,)),  # an X node inside a clique
            (5, [(1,), (2,), (3, 4)], (0, 0)),  # a repeated X id
            (5, [(1,), (2,), (3,)], (0, 0)),  # ... that would make up for node 4
            (3, [(0, 1)], (2, 5)),  # an X id out of range
            (3, [(0, 1)], (5,)),  # ... that would make up for node 2
            (3, [(0, 1)], (-1,)),
        ],
    )
    def test_hand_made_covers_match_reference(self, n, cliques, removal):
        want = reference_cover_outcome(n, cliques, removal)
        got = strip_partition_violation(clique_graph(n, cliques), [cliques], removal)
        assert got == (want and want[:2])

    def test_out_of_range_x_id_counts_for_nothing(self):
        g = clique_graph(3, [(0, 1)])
        assert strip_partition_violation(g, [[(0, 1)]], (5,)) == ("strip_cover", (2,))

    def test_sweep_matches_reference(self):
        # the decompositions the pipeline builds on the acceptance pools, on
        # perturbed strips and on a 2,000-node strip instance all pass; each
        # of their covers, broken in the hand-made ways, gets the verdict of
        # the reference.  The traced details hold them in component ids,
        # with the component's graph, also where solve ran on the input's rows.
        decs = []
        graphs = acceptance_pool() + acceptance_extras()
        graphs += [perturbed_strip(seed) for seed in range(2000)]
        graphs.append(gen_strip_instance(GenSpec(seed=3, mode="strip", nodes=2000)))
        for g in graphs:
            try:
                details = solve(g, collect_trace=True).certificates["details"]
            except StructuralError:
                continue
            decs.extend((d.graph, d.decomposition) for d in details if d is not None)
        assert len(decs) > 2000 and max(g.n for g, _ in decs) > 1000, len(decs)
        rng = random.Random(17)
        outcomes = {}
        for g, dec in decs:
            assert strip_partition_violation(g, dec.strips, dec.removal) is None
            cliques = tuple(k for strip in dec.strips for k in strip)
            for variant in cover_variants(g.n, cliques, dec.removal, rng):
                got = strip_partition_violation(g, [variant[0]], variant[1])
                want = reference_cover_outcome(g.n, *variant)
                assert got == (want and want[:2]), (g.n, variant)
                key = want and want[2]
                outcomes[key] = outcomes.get(key, 0) + 1
        assert outcomes[None] > 6000 and min(outcomes.values()) > 2000, outcomes


def clique_graph(n, cliques):
    """The graph on n nodes whose edges join the in-range ids of each clique."""
    edges = {(u, v) for k in cliques for u in k for v in k if 0 <= u < v < n}
    return Graph(n, sorted(edges))


def reference_cover_outcome(n, cliques, removal):
    """None, or the kind, witness and message of what
    ``reference_check_cover`` raises."""
    try:
        reference_check_cover(n, cliques, removal)
    except StructuralError as err:
        return err.kind, err.witness, err.detail
    return None


def cover_variants(n, cliques, removal, rng):
    """(cliques, removal) as given, then broken the hand-made ways: a node
    in two cliques, a missing node, an extra node, an X node in a clique,
    a repeated or out-of-range X id, alone and with a missing node."""
    yield cliques, removal
    yield cliques + ((n + rng.randrange(3),),), removal
    yield cliques, removal + (n + rng.randrange(3),)
    nodes = [v for k in cliques for v in k]
    dropped = ()
    if nodes:
        v = rng.choice(nodes)
        dropped = tuple(tuple(u for u in k if u != v) for k in cliques)
        yield cliques + ((v,),), removal
        yield dropped, removal
        yield dropped, removal + (n + rng.randrange(3),)
    if removal:
        x = rng.choice(removal)
        yield cliques + ((x,),), removal
        yield cliques, removal + (x,)
        if nodes:
            yield dropped, removal + (x,)


class TestTransformMemory:
    def test_no_membership_set_per_clique_of_the_strip(self, monkeypatch):
        # interval_transform's peak less what it returns: at most three
        # clique sets at a time; a set per clique of the strip cost over
        # 100 bytes a node
        calls = []
        transform = mwss.solver.interval_transform
        monkeypatch.setattr(
            mwss.solver, "interval_transform",
            lambda *a: calls.append(a) or transform(*a),
        )
        solve(gen_strip_instance(GenSpec(seed=3, mode="strip", nodes=4000)))
        ((g, strips),) = calls
        assert g.n > 3000 and len(strips[0]) > 1000
        tracemalloc.start()
        try:
            result = interval_transform(g, strips)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.cliques) == sum(map(len, strips))
        assert peak - held < 40 * g.n, (peak, held, g.n)


class TestCertificate:
    def test_certificate_ok_on_kill_diags_fixture(self):
        g = Graph(
            6,
            [(0, 1), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5),
             (0, 5), (1, 2), (1, 3), (1, 4)],
            [1, 1, 7, 2, 2, 1],
        )
        adj = overlay(g, range(6))
        missing = {2, 3, 4}
        assert semi_homog_pair_certificate(adj, 0, missing, range(6)) is None

    def test_certificate_detects_violation(self):
        # node 4 is adjacent to part of bbar={2,3} and not to a1=0
        g = Graph(5, [(0, 1), (1, 2), (1, 3), (2, 3), (4, 2)])
        adj = overlay(g, range(5))
        bad = semi_homog_pair_certificate(adj, 0, {2, 3}, range(5))
        assert bad is not None and bad[0] == "not_semi_homogeneous"

    def test_certificate_holds_before_every_kill_diags_stage(self):
        # Replays each pair's stages on the pipeline's own strips.  abar is
        # the endpoint in A shared by the stage's added edges (|missing| >= 2
        # there, so at least one edge is added).
        strips = stages = 0
        for seed in range(16):
            g = gen_strip_instance(
                GenSpec(seed=9300 + seed, mode="strip", nodes=30 + 2 * seed,
                        clique_min=4, clique_max=9,
                        density=(0.2, 0.35, 0.5)[seed % 3], weights="random")
            )
            for detail in solve(g, collect_trace=True).certificates["details"]:
                if detail is None:
                    continue
                comp = detail.graph
                for strip in detail.decomposition.strips:
                    strips += 1
                    # the full overlay the certificate reads, kept in step
                    # with the added diagonals
                    adj = overlay(comp, {v for k in strip for v in k})
                    _, after = strip_rows(comp, strip)
                    for ki, kj in zip(strip, strip[1:]):
                        st = EliminationState(after, comp.weights, ki)
                        for _ in range(3 * len(ki) + 8):
                            if not st.a:
                                break
                            before = {v: set(nb) for v, nb in adj.items()}
                            a_before, b_before = set(st.a), set(st.b)
                            done = len(st.added)
                            action = st.stage()
                            new = st.added[done:]
                            for u, v in new:
                                adj[u].add(v)
                                adj[v].add(u)
                            if action != "kill_diags":
                                continue
                            (abar,) = set.intersection(*map(set, new)) & a_before
                            missing = b_before - before[abar]
                            assert len(new) == len(missing) - 1 >= 1
                            assert semi_homog_pair_certificate(
                                before, abar, missing, before
                            ) is None
                            stages += 1
                        assert not st.a
        assert strips >= 20 and stages >= 20


class TestStageBoundaryInvariant:
    def test_pair_stays_square_semi_homogeneous_each_stage(self):
        # Theorem-level invariant: after every stage, the live (A, B) pair
        # is still square-semi-homogeneous in the overlay graph.
        for seed in range(12):
            g = gen_strip_instance(
                GenSpec(seed=9100 + seed, mode="strip", nodes=10 + seed,
                        clique_min=2, clique_max=4, density=0.5, weights="random")
            )
            _, _, _, detail = solve_component(g, collect=True)
            for strip in detail.decomposition.strips:
                nodes = sorted(v for k in strip for v in k)
                node_set = set(nodes)
                adj = {v: set(g.neighbors(v)) & node_set for v in nodes}
                _, after = strip_rows(g, strip)
                for ki, kj in zip(strip, strip[1:]):
                    st = EliminationState(after, g.weights, ki)
                    guard = 0
                    while st.a:
                        done = len(st.added)
                        st.stage()
                        for u, v in st.added[done:]:
                            adj[u].add(v)
                            adj[v].add(u)
                        guard += 1
                        assert guard <= 3 * len(ki) + 8
                        live_a = sorted(st.a)
                        live_b = sorted(st.b)
                        if not live_a or not live_b:
                            continue
                        stage_graph = Graph(
                            len(nodes),
                            [(nodes.index(u), nodes.index(v))
                             for u in nodes for v in adj[u] if u < v],
                            [g.weights[v] for v in nodes],
                        )
                        la = [nodes.index(v) for v in live_a]
                        lb = [nodes.index(v) for v in live_b]
                        assert square_semi_homogeneous_check(stage_graph, la, lb) is None


class TestKillDiagsDirect:
    def test_case_iii_b_triggers_on_low_max_degree(self):
        # both A nodes sit two below |B|: kill_diags on the lowest id
        g = Graph(
            6,
            [(0, 1), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5),
             (0, 2), (0, 3), (1, 4), (1, 5)],
            [1, 1, 1, 1, 3, 1],
        )
        st = pair_state(g, (0, 1), (2, 3, 4, 5))
        assert st.d[0] == 2 and st.d[1] == 2
        assert st.stage() == "kill_diags"
        assert st.added == [(0, 5)]  # node 4 (weight 3) spared
