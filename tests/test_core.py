import ast
import functools
import hashlib
import itertools
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from signed_extremal import core
from signed_extremal.core import (
    SignedGraph,
    _bfs_tree,
    _count_weights,
    _dense_ranks,
    _label_stack,
    _packed_codes,
    _refine,
    _signed_twin_classes,
    _triu_cells,
    canonical_form,
    canonical_switch,
    canonical_signed_code,
    counts,
    cycle_sign,
    find_signed_triangles,
    is_balanced,
    is_connected,
    negate,
    new_signed_graph,
    permute,
    refined_color_classes,
    shortest_unbalanced_cycle,
    signed_isomorphic,
    switch,
    switching_equivalent,
    switching_isomorphic,
)
from signed_extremal.families import (
    build_complete,
    build_gst,
    build_gst_maxneg,
    build_kn_switched_maxneg,
)
from signed_extremal.search import (
    _ClassTable,
    _codes_to_adj,
    _complete_signature_classes,
    _connected_class_bitmaps,
    _neg_edge_maximizers,
    _table_block,
    enumerate_underlying,
)

from _oracles import (
    all_labeled_signed_graphs,
    all_signatures,
    all_simple_cycles,
    brute_automorphism_table,
    brute_automorphisms,
    brute_is_balanced,
    brute_labelling,
    brute_signed_isomorphic,
    brute_signed_twin_classes,
    brute_switch,
    brute_switching_isomorphic,
    colour_classes_are_twin_sets,
    connected_labeled_graphs,
    forbidden_and_balance_flags,
    isin_signed_graph_adj,
    labeled_graph_stack,
    per_order_signed_code,
    permutation_rows,
    planted_twin_graphs,
    seeded_signed_graphs,
    tuple_sorting_color_classes,
)


def unbalanced_c4():
    return new_signed_graph(4, [(0, 1, -1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])


def c3_minus():
    return new_signed_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, -1)])


def _outcome(build):
    """The built matrix's dtype, shape and bytes, or the error raised."""
    try:
        a = build()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return a.dtype, a.shape, a.tobytes()


class TestConstruction:
    def test_single_edge(self):
        g = new_signed_graph(2, [(0, 1, 1)])
        assert counts(g) == (1, 0)
        assert g.adj[0, 1] == 1

    def test_unbalanced_c4(self):
        g = unbalanced_c4()
        assert counts(g) == (4, 1)
        assert not is_balanced(g)

    def test_c3_minus(self):
        g = c3_minus()
        assert len(find_signed_triangles(g, -1)) == 1

    @pytest.mark.parametrize(
        "n,edges,msg",
        [
            (3, [(0, 0, 1)], "loop"),
            (3, [(0, 3, 1)], "outside the graph"),
            (3, [(0, 1, 1), (1, 0, -1)], "duplicate"),
            (3, [(0, 1, 2)], "sign"),
            (0, [], "positive"),
            (3, [(-1, 1, 1)], "outside the graph"),
            # a bool endpoint would index as a numpy mask, a float one raise
            # IndexError, and True would pass as the sign +1 or the count 1
            (3, [(0, True, -1)], "not an integer"),
            (3, [(0, 1.0, 1)], "not an integer"),
            (3, [(0, 1, True)], "sign"),
            (3, [(0, 1, np.True_)], "sign"),
            (True, [], "positive"),
            # a float sign would pass its value test, as 1.0 == 1
            (3, [(0, 1, 1.0)], "sign"),
            (3, [(0, 1, np.float64(-1.0))], "sign"),
        ],
    )
    def test_rejects(self, n, edges, msg):
        with pytest.raises(ValueError, match=msg):
            new_signed_graph(n, edges)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            SignedGraph(np.array([[0, 1], [2, 0]]))
        with pytest.raises(ValueError):
            SignedGraph(np.array([[0, 1], [-1, 0]]))
        with pytest.raises(ValueError):
            SignedGraph(np.array([[1]]))

    @pytest.mark.parametrize("value", [0.6, -1.9, 255])
    def test_rejects_entries_the_int8_cast_would_change(self, value):
        # 0.6 -> 0, -1.9 -> -1 and int64 255 -> -1 under a plain int8 cast
        adj = np.array([[0, value], [value, 0]])
        with pytest.raises(ValueError, match="entries"):
            SignedGraph(adj)

    def test_immutability(self):
        g = unbalanced_c4()
        with pytest.raises(ValueError):
            g.adj[0, 1] = 1

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint8, np.int16, np.int64, np.uint64,
                                       np.float32, np.float64, np.complex128, object])
    def test_validation_agrees_with_an_isin_check(self, dtype):
        values = [1, -1, 2, np.int8(-128), np.uint8(255), 0.6, -0.0, np.nan, np.inf,
                  1 + 0j, 1j, None]
        cells = [((0, 1), (1, 0)), ((0, 1),), ((2, 2),), ((),), ((0,),)]
        inputs = [np.zeros(shape, dtype=dtype)
                  for shape in [(), (0,), (1,), (0, 0), (2, 0), (1, 1), (3, 3)]]
        with warnings.catch_warnings():
            # some values cannot be stored in some dtypes, or only with a warning
            warnings.simplefilter("ignore")
            for value, where in itertools.product(values, cells):
                raw = np.zeros((3, 3) if len(where[0]) == 2 else (1,) * len(where[0]),
                               dtype=dtype)
                try:
                    for cell in where:
                        raw[cell] = value
                except (TypeError, ValueError, OverflowError):
                    continue
                inputs.append(raw)
            for raw in inputs:
                assert _outcome(lambda: SignedGraph(raw).adj) == \
                    _outcome(lambda: isin_signed_graph_adj(raw)), raw
        assert len(inputs) > 20

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.int64, np.float64])
    def test_later_writes_to_the_input_do_not_reach_the_graph(self, dtype):
        raw = np.array([[0, 1], [1, 0]], dtype=dtype)
        g = SignedGraph(raw)
        raw[0, 1] = raw[1, 0] = 0
        assert g.adj.tolist() == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("v, msg", [(-1, "outside the graph"), (5, "outside the graph"),
                                        (True, "not an integer"), (2.0, "not an integer")])
    def test_neighbors_rejects_a_non_vertex(self, v, msg):
        # -1 once read as vertex 4 and True as a row mask, giving 14 zeros
        g = build_gst(1, 2)
        with pytest.raises(ValueError, match=msg):
            g.neighbors(v)
        assert g.neighbors(np.int64(4)) == g.neighbors(4) == [1, 2, 3]


class TestSwitching:
    def test_empty_cut(self):
        g = c3_minus()
        assert switch(g, []) == g

    def test_involution_exhaustive(self):
        g = build_gst(1, 2)
        for r in range(g.n + 1):
            for u in itertools.combinations(range(g.n), r):
                assert switch(switch(g, u), u) == g

    def test_matches_brute_cut_rule(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            adj = np.zeros((n, n), dtype=np.int8)
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        adj[i, j] = adj[j, i] = int(rng.choice((-1, 1)))
            g = SignedGraph(adj)
            u = [v for v in range(n) if rng.random() < 0.5]
            assert switch(g, u) == brute_switch(g, u)

    def test_c4_switch_at_zero(self):
        # edges 01 and 03 flip: negative moves from 01 to 03
        g = unbalanced_c4()
        assert switch(g, [0]).edges() == [(0, 1, 1), (0, 3, -1), (1, 2, 1), (2, 3, 1)]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            switch(c3_minus(), [5])

    @pytest.mark.parametrize("bad, msg", [(1.7, "not an integer"), (True, "not an integer"),
                                          (3, "outside the graph"), (-1, "outside the graph")])
    def test_entries_must_be_vertex_ints(self, bad, msg):
        with pytest.raises(ValueError, match=msg):
            switch(c3_minus(), [0, bad])


class TestStackedSwitch:
    """core._switched, the stacked kernel behind switch and the property
    suites, against switch and np.outer(s, s) * adj, graph by graph."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_switch_and_the_outer_product(self, n):
        graphs = list(seeded_signed_graphs(n, n, 6))
        rng = np.random.default_rng([n, 1])
        # empty, full and repeated vertex sets, then random ones
        sets = [[], list(range(n)), [0, 0], [n - 1] * 3 + [0]]
        sets += [[int(v) for v in rng.integers(0, n, size=int(rng.integers(0, 2 * n)))]
                 for _ in graphs[len(sets):]]
        a = np.array([g.adj for g in graphs])
        stacked = core._switched(a, sets)
        assert stacked.dtype == np.int8 and stacked.shape == (len(graphs), n, n)
        for g, u, h in zip(graphs, sets, stacked):
            s = np.ones(n, dtype=np.int8)
            s[u] = -1
            assert np.array_equal(h, np.outer(s, s) * g.adj)
            assert np.array_equal(h, switch(g, u).adj)
        # one matrix for the whole stack
        shared = core._switched(graphs[0].adj, sets)
        for u, h in zip(sets, shared):
            assert np.array_equal(h, switch(graphs[0], u).adj)


class TestPermute:
    @pytest.mark.parametrize("order, msg", [
        ([1.7, 0, 2, 3, 4], "not an integer"),
        ([0.5, 1, 2, 3, 4], "not an integer"),
        ([0, True, 2, 3, 4], "not an integer"),
        ([0, 1, 2, 3, 5], "outside the graph"),
        ([0, 1, 2, 3, 3], "permutation"),
    ])
    def test_rejects_orders_that_are_not_permutations(self, order, msg):
        with pytest.raises(ValueError, match=msg):
            permute(build_gst(1, 2), order)


class TestNegation:
    def test_k3(self):
        assert negate(build_complete(3, 1)) == build_complete(3, -1)

    def test_involution(self):
        g = build_gst(2, 3)
        assert negate(negate(g)) == g


class TestConnectivity:
    def test_k2(self):
        assert is_connected(new_signed_graph(2, [(0, 1, 1)]))

    def test_isolated(self):
        assert not is_connected(new_signed_graph(2, []))

    def test_gst(self):
        assert is_connected(build_gst(1, 4))

    def test_single_vertex(self):
        assert is_connected(new_signed_graph(1, []))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_every_labeled_graph(self, n):
        connected = {adj.tobytes() for adj in connected_labeled_graphs(n)}
        cells = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(cells)):
            g = new_signed_graph(n, [(i, j, 1) for b, (i, j) in enumerate(cells)
                                     if bits >> b & 1])
            assert is_connected(g) == (g.adj.astype(bool).tobytes() in connected)


def assert_table_trees_match(adj):
    # each row's non-tree cells are its edges off _bfs_tree, in row-major order
    n = adj.shape[1]
    table = _ClassTable(*_table_block(adj, (n - 1) * (n - 2) // 2))
    iu, ju = np.triu_indices(n, 1)
    for a, k, cells in zip(adj, table.widths, table.nontree):
        tree = {frozenset(e) for e in _bfs_tree(a)}
        off = [c for c, (i, j) in enumerate(zip(iu, ju)) if a[i, j] and {i, j} not in tree]
        assert k == a.sum() // 2 - n + 1 == len(off)
        assert cells[:k].tolist() == off


class TestTableSpanningTrees:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_non_tree_cells_on_every_class(self, n):
        assert_table_trees_match(_codes_to_adj(_connected_class_bitmaps(n), n))

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_non_tree_cells_on_seeded_connected_graphs(self, n):
        adj = np.array([g.adj != 0 for g in seeded_signed_graphs(1200 + n, n, 200)
                        if is_connected(g)])
        assert len(adj) > 100
        assert_table_trees_match(adj)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rejects_every_disconnected_labeled_graph(self, n):
        # trees are compared where the graph is connected
        connected = {a.tobytes() for a in connected_labeled_graphs(n)}
        for a in labeled_graph_stack(n):
            if a.tobytes() in connected:
                assert_table_trees_match(a[None])
            else:
                with pytest.raises(ValueError, match="graph must be connected"):
                    _table_block(a[None], (n - 1) * (n - 2) // 2)


class TestBalance:
    def test_all_positive(self):
        assert is_balanced(build_complete(5, 1))

    def test_unbalanced_c4(self):
        assert not is_balanced(unbalanced_c4())

    def test_gst_unbalanced(self):
        assert not is_balanced(build_gst(1, 4))

    def test_balance_two_routes_exhaustive(self):
        # spin propagation vs all-positive canonical form vs spin brute force,
        # over every signature of every connected graph on up to 5 vertices
        for n in range(2, 6):
            for adj in connected_labeled_graphs(n):
                for g in all_signatures(adj):
                    b = is_balanced(g)
                    assert b == (canonical_switch(g).neg_edge_count == 0)
                    if n <= 4:
                        assert b == brute_is_balanced(g)

    def test_nonnegative_graphs_need_no_tree(self, monkeypatch):
        # every cycle is positive without a negative edge, so no spanning
        # tree is built, whether the graph is connected or not
        graphs = [new_signed_graph(1, []), new_signed_graph(6, []), build_complete(5, 1)]
        graphs += [g.underlying() for g in seeded_signed_graphs(9, 8, 12)]
        assert not all(is_connected(g) for g in graphs)
        expected = [brute_is_balanced(g) for g in graphs]
        monkeypatch.setattr("signed_extremal.core._bfs_tree_spins", None)
        assert [is_balanced(g) for g in graphs] == expected == [True] * len(graphs)

    def test_matches_oracle_on_every_small_graph(self):
        # every labeled signed graph on up to 4 vertices, disconnected ones too
        for n in range(1, 5):
            graphs = list(all_labeled_signed_graphs(n))
            _, balanced = forbidden_and_balance_flags(np.array([g.adj for g in graphs]))
            assert [is_balanced(g) for g in graphs] == balanced.tolist()

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_matches_oracle_on_random_graphs(self, n):
        graphs = list(seeded_signed_graphs(100 + n, n, 24))
        assert not all(is_connected(g) for g in graphs)
        _, balanced = forbidden_and_balance_flags(np.array([g.adj for g in graphs]))
        assert [is_balanced(g) for g in graphs] == balanced.tolist()


class TestCanonicalSwitch:
    def test_tree_goes_positive(self):
        p3 = new_signed_graph(3, [(0, 1, -1), (1, 2, 1)])
        assert canonical_switch(p3).neg_edge_count == 0

    def test_idempotent(self):
        g = build_gst_maxneg(6)
        assert canonical_switch(canonical_switch(g)) == canonical_switch(g)

    def test_stable_under_all_switchings(self):
        for g in (unbalanced_c4(), build_gst(1, 3), build_gst_maxneg(6)):
            base = canonical_switch(g)
            for r in range(g.n + 1):
                for u in itertools.combinations(range(g.n), r):
                    assert canonical_switch(switch(g, u)) == base

    def test_switching_class_counts(self):
        # distinct canonical forms over all 2^m signatures = 2^(m-n+1)
        for n in range(2, 6):
            for adj in connected_labeled_graphs(n):
                m = int(adj.sum()) // 2
                forms = {canonical_switch(g) for g in all_signatures(adj)}
                assert len(forms) == 1 << (m - n + 1)


class TestSwitchingEquivalent:
    def test_switch_is_equivalent(self):
        g = build_gst(2, 2)
        assert switching_equivalent(g, switch(g, [0, 3]))

    def test_triangle_classes_differ(self):
        assert not switching_equivalent(build_complete(3, 1), c3_minus())

    def test_maxneg_is_equivalent_to_plain(self):
        for n in range(4, 9):
            s = (n - 2) // 2
            assert switching_equivalent(build_gst_maxneg(n), build_gst(s, n - 2 - s))

    def test_different_underlying(self):
        assert not switching_equivalent(
            new_signed_graph(3, [(0, 1, 1)]), new_signed_graph(3, [(1, 2, 1)])
        )


class TestSwitchingIsomorphic:
    def test_relabeled_switched_copy(self):
        g = build_gst(1, 3)
        h = switch(permute(g, [3, 1, 4, 0, 2, 5]), [2, 4])
        assert switching_isomorphic(g, h)

    def test_mirror_symmetry(self):
        assert switching_isomorphic(build_gst(1, 2), build_gst(2, 1))

    def test_different_degree_sequences(self):
        assert not switching_isomorphic(build_gst(1, 3), build_gst(2, 2))

    def test_same_graph_different_class(self):
        g = build_complete(4, 1)
        h = negate(g)
        assert not switching_isomorphic(g, h)

    @pytest.mark.parametrize("cap", [19, 179], ids=["starts", "position-1"])
    def test_branch_cap(self, cap, monkeypatch):
        # K_10 whose negative edges form a Hamiltonian path has no switching
        # twins: each of the two matrices keyed has 10 starts, one per vertex
        # at the root, and each matrix searches its own, so the two open
        # 2 x 10 x 9 branches at position 1; K_10 is labelled without
        # branches, and no vertex count is capped
        g = new_signed_graph(10, [(u, v, -1 if v == u + 1 else 1)
                                  for u, v in itertools.combinations(range(10), 2)])
        assert brute_signed_twin_classes(g.adj, up_to_sign=True) == [[v] for v in range(10)]
        assert switching_isomorphic(g, switch(permute(g, range(9, -1, -1)), [0, 4]))
        monkeypatch.setattr(core, "_SWITCH_MAX_WORK", cap)
        with pytest.raises(ValueError, match=f"sign rows capped at {cap} branches, got {cap + 1}"):
            switching_isomorphic(g, g)

    @pytest.mark.parametrize("n", [10, 12, 16])
    def test_twin_free_kn_relabelled_and_switched(self, n):
        # no vertex count is capped: a signed K_n without signed twins
        # against a relabelled copy, that copy switched, and a copy with one
        # edge flipped, whose negative edges differ by one in number
        rng = np.random.default_rng(n)
        signs = np.triu(rng.choice([-1, 1], size=(n, n)), 1)
        g = SignedGraph(signs + signs.T)
        assert _signed_twin_classes(g.adj) == [[v] for v in range(n)]
        moved = permute(g, rng.permutation(n))
        flipped = np.array(g.adj)
        flipped[0, 1] = flipped[1, 0] = -flipped[0, 1]
        assert signed_isomorphic(g, moved)
        assert switching_isomorphic(g, switch(moved, np.flatnonzero(rng.random(n) < 0.5)))
        assert not signed_isomorphic(g, SignedGraph(flipped))

    def test_sign_rows_only_for_isomorphic_underlying_graphs(self, monkeypatch):
        def no_rows(*args, **kwargs):
            raise AssertionError("sign row computed")

        monkeypatch.setattr(core, "_least_sign_rows", no_rows)
        pairs = [(build_gst(1, 3), build_gst(2, 2)), (build_gst(1, 6), build_gst(2, 5))]
        # seeded pairs whose edge counts differ, so their underlying graphs do
        pool = list(seeded_signed_graphs(71, 6, 8))
        pairs += [(g, h) for g, h in itertools.combinations(pool, 2)
                  if g.edge_count != h.edge_count]
        assert len(pairs) > 10
        for g, h in pairs:
            assert not switching_isomorphic(g, h)

    def test_no_labelling_when_the_degrees_differ(self, monkeypatch):
        # gst(1, 6) and gst(2, 5) have 29 edges each, but apex degrees 2, 7
        # against 3, 6; a 6-cycle and two triangles have the same degrees,
        # so only their codes tell them apart
        labelled = []
        label = core.canonical_form
        monkeypatch.setattr(core, "canonical_form", lambda a: labelled.append(a) or label(a))
        assert not switching_isomorphic(build_gst(1, 6), build_gst(2, 5))
        assert not labelled
        cycle = new_signed_graph(6, [(v, (v + 1) % 6, 1) for v in range(6)])
        triangles = new_signed_graph(6, [(u, v, 1) for u, v in itertools.combinations(range(3), 2)]
                                     + [(u, v, -1) for u, v in itertools.combinations(range(3, 6), 2)])
        assert not switching_isomorphic(cycle, triangles)
        assert len(labelled) == 2

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_the_full_keys_on_seeded_pairs(self, n):
        # relabelled and switched copies, and every other graph of the pool
        rng = np.random.default_rng(n)
        pool = [*seeded_signed_graphs(500 + n, n, 5), *planted_twin_graphs(600 + n, n, 2)]
        keys = [canonical_signed_code(g) for g in pool]
        for g, key in zip(pool, keys):
            moved = switch(permute(g, rng.permutation(n)), np.flatnonzero(rng.random(n) < 0.5))
            assert switching_isomorphic(g, moved)
            for h, other in zip(pool, keys):
                assert switching_isomorphic(g, h) == (key == other)

    def test_exhaustive_against_permutation_scan(self):
        # every permuted-and-switched copy must be recognized; graphs from
        # different switching classes of the same underlying must not be
        rng = np.random.default_rng(3)
        g = build_gst(1, 2)
        for perm in itertools.permutations(range(g.n)):
            u = [v for v in range(g.n) if rng.random() < 0.5]
            assert switching_isomorphic(g, switch(permute(g, perm), u))


class TestIsomorphismKey:
    """switching_isomorphic and signed_isomorphic decide by core's key alone;
    the brute-force oracles scan every relabeling (and switching)."""

    def test_every_pair_of_labeled_graphs_at_n3(self):
        graphs = list(all_labeled_signed_graphs(3))
        for g, h in itertools.product(graphs, repeat=2):
            assert switching_isomorphic(g, h) == brute_switching_isomorphic(g, h)
            assert signed_isomorphic(g, h) == brute_signed_isomorphic(g, h)

    def test_seeded_pairs_with_equal_degrees_and_edge_counts_at_n5(self):
        # the pairs that degree, edge and triangle counts cannot tell apart
        def degrees(g):
            return sorted(np.count_nonzero(g.adj, axis=0).tolist())

        rng = np.random.default_rng(5)
        pool = list(seeded_signed_graphs(41, 5, 30))
        pairs, copies = [], []
        for g in pool:
            for _ in range(2):
                moved = permute(g, rng.permutation(5))
                copies.append((g, moved, switch(moved, np.flatnonzero(rng.random(5) < 0.5))))
            pairs.append((g, negate(g)))
            for u, v, _ in g.edges():
                adj = np.array(g.adj)
                adj[u, v] = adj[v, u] = -adj[u, v]
                pairs.append((g, SignedGraph(adj)))
        pairs += [(g, h) for g, h in itertools.combinations(pool, 2)
                  if degrees(g) == degrees(h)]
        for g, moved, switched in copies:
            assert signed_isomorphic(g, moved) and switching_isomorphic(g, switched)
            pairs += [(g, moved), (g, switched)]
        undecided = 0
        for g, h in pairs:
            assert degrees(g) == degrees(h)
            assert switching_isomorphic(g, h) == brute_switching_isomorphic(g, h)
            assert signed_isomorphic(g, h) == brute_signed_isomorphic(g, h)
            undecided += (not brute_switching_isomorphic(g, h)
                          and len(find_signed_triangles(g, -1))
                          == len(find_signed_triangles(h, -1)))
        # cases where every filter the key replaced agrees and the answer is False
        assert undecided > 10


class TestTriangles:
    def test_homogeneous_complete(self):
        assert find_signed_triangles(build_complete(3, 1), -1) == []
        assert len(find_signed_triangles(build_complete(3, -1), -1)) == 1

    def test_c3_minus(self):
        tri = find_signed_triangles(c3_minus(), -1)
        assert len(tri) == 1 and tri[0].vertices == (0, 1, 2)

    def test_gst_families_triangle_free(self):
        for s, t in [(1, 4), (2, 3), (3, 3)]:
            assert find_signed_triangles(build_gst(s, t), -1) == []

    def test_partition_of_all_triangles(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(4, 8))
            adj = np.zeros((n, n), dtype=np.int8)
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.6:
                        adj[i, j] = adj[j, i] = int(rng.choice((-1, 1)))
            g = SignedGraph(adj)
            pos = find_signed_triangles(g, 1)
            neg = find_signed_triangles(g, -1)
            total = sum(
                1
                for i, j, k in itertools.combinations(range(n), 3)
                if adj[i, j] and adj[j, k] and adj[i, k]
            )
            assert len(pos) + len(neg) == total
            for c in pos + neg:
                assert cycle_sign(g, c.vertices) == c.sign

    def test_sign_must_be_plus_or_minus_one(self):
        with pytest.raises(ValueError, match="sign must be -1 or \\+1"):
            find_signed_triangles(build_complete(3, 1), 0)

    @pytest.mark.parametrize("vertices, msg", [
        ([-1, 1, 3], "outside the graph"),  # once read as vertex 4, giving +1
        ([0, 1, 9], "outside the graph"),
        ([True, 3, 4], "not an integer"),
        ([0, 2.0, 3], "not an integer"),
        ([0, 2], "at least 3 distinct vertices"),
        ([0, 2, 0], "at least 3 distinct vertices"),
        ([0, 3, 2], "\\(0,3\\) is not an edge"),
    ])
    def test_cycle_sign_rejects_entries_that_are_not_vertices(self, vertices, msg):
        with pytest.raises(ValueError, match=msg):
            cycle_sign(build_gst(1, 2), vertices)


class TestShortestUnbalancedCycle:
    def test_balanced_returns_none(self):
        assert shortest_unbalanced_cycle(build_complete(4, 1)) is None

    def test_unbalanced_c4(self):
        c = shortest_unbalanced_cycle(unbalanced_c4())
        assert len(c) == 4 and c.sign == -1

    def test_gst_has_negative_four_cycle(self):
        c = shortest_unbalanced_cycle(build_gst(1, 4))
        assert len(c) == 4 and c.sign == -1
        assert {0, 1} <= set(c.vertices)

    def test_against_cycle_enumeration(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 40:
            n = int(rng.integers(4, 8))
            adj = np.zeros((n, n), dtype=np.int8)
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        adj[i, j] = adj[j, i] = int(rng.choice((-1, 1)))
            g = SignedGraph(adj)
            neg_lengths = [len(vs) for vs, sign in all_simple_cycles(g) if sign == -1]
            found = shortest_unbalanced_cycle(g)
            if not neg_lengths:
                assert found is None
                assert is_balanced(g)
            else:
                assert found is not None
                assert len(found) == min(neg_lengths)
                assert cycle_sign(g, found.vertices) == -1
            checked += 1


class TestCounts:
    def test_complete(self):
        assert counts(build_complete(7, 1)) == (21, 0)

    def test_gst_n7(self):
        assert counts(build_gst(1, 4)) == (16, 1)
        assert counts(build_gst(2, 3)) == (16, 1)

    def test_maxneg_n7(self):
        assert counts(build_gst_maxneg(7)) == (16, 11)


class TestCanonicalCode:
    def test_invariant_under_relabel_and_switch(self):
        g = build_gst(2, 2)
        code = canonical_signed_code(g)
        rng = np.random.default_rng(5)
        for _ in range(20):
            perm = rng.permutation(g.n)
            u = [v for v in range(g.n) if rng.random() < 0.5]
            assert canonical_signed_code(switch(permute(g, perm), u)) == code

    def test_separates_classes(self):
        assert canonical_signed_code(build_complete(3, 1)) != canonical_signed_code(
            c3_minus()
        )

    def test_matches_per_order_reference_on_every_small_graph(self):
        for n in range(1, 5):
            for g in all_labeled_signed_graphs(n):
                assert canonical_signed_code(g) == per_order_signed_code(g)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_matches_per_order_reference_on_random_graphs(self, n):
        graphs = list(seeded_signed_graphs(100 + n, n, 16))
        assert any(not is_connected(g) for g in graphs)
        for g in graphs:
            assert canonical_signed_code(g) == per_order_signed_code(g)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_per_order_reference_on_complete_graphs(self, n):
        # every relabeling is optimal on K_n: the reference walks all n!,
        # the key one order per arrangement of signed twins; the halved K_n
        # also relabelled and switched
        rng = np.random.default_rng(n)
        halved = build_kn_switched_maxneg(n)
        moved = switch(permute(halved, rng.permutation(n)), np.flatnonzero(rng.random(n) < 0.5))
        for g in (build_complete(n, 1), build_complete(n, -1), halved, moved):
            assert canonical_signed_code(g) == per_order_signed_code(g)
        assert switching_isomorphic(halved, moved)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_a_stack_keys_like_its_matrices_one_by_one(self, n):
        # signings of one planted-twin graph's edges, so the matrices share
        # an underlying graph but not their signed twins
        rng = np.random.default_rng(700 + n)
        for g in planted_twin_graphs(800 + n, n, 3):
            signs = np.triu(rng.choice([-1, 1], size=(6, n, n)), 1)
            stack = np.concatenate([g.adj[None], np.abs(g.adj) * (signs + signs.transpose(0, 2, 1))])
            stack = stack.astype(np.int8)
            _, orders = canonical_form(g.adj != 0)
            expected = [per_order_signed_code(SignedGraph(a))[1] for a in stack]
            assert core._least_sign_rows(stack, orders, switched=True) == expected

    def test_a_twin_free_k5_keys_like_the_reference(self, monkeypatch):
        # K_5 whose negative edges form the path 3-0-4-2-1 has no signed
        # twins, but two pairs of switching twins, {0, 1} and {2, 3}: the
        # root takes 0, 2 or 4, and the 3 starts cover all 120 orders
        g = new_signed_graph(5, [(u, v, -1 if (u, v) in ((0, 3), (0, 4), (1, 2), (2, 4)) else 1)
                                 for u, v in itertools.combinations(range(5), 2)])
        assert _signed_twin_classes(g.adj) == [[v] for v in range(5)]
        assert brute_signed_twin_classes(g.adj, up_to_sign=True) == [[0, 1], [2, 3], [4]]
        expected = per_order_signed_code(g)
        starts = searched_starts(monkeypatch)
        assert canonical_signed_code(g) == expected
        assert starts == [3]

    @pytest.mark.parametrize("n", [10, 12])
    def test_keys_of_halved_complete_graphs_past_nine_vertices(self, n):
        # K_n labels to one order, and the halved K_n expands it into
        # C(n, n / 2) arrangements: 252 and 924. The halved K_n is balanced,
        # so its switching key is that of (K_n, +), and its sign row without
        # switching differs from those of (K_n, +) and (K_n, -)
        code, orders = canonical_form(~np.eye(n, dtype=bool))
        assert orders.tolist() == [list(range(n))]
        halved = build_kn_switched_maxneg(n)
        key = canonical_signed_code(halved)
        rng = np.random.default_rng(n)
        for _ in range(3):
            moved = permute(halved, rng.permutation(n))
            assert signed_isomorphic(halved, moved)
            assert canonical_signed_code(switch(moved, np.flatnonzero(rng.random(n) < 0.5))) == key
        plus, minus = build_complete(n, 1), build_complete(n, -1)
        assert key == canonical_signed_code(plus) != canonical_signed_code(minus)
        assert key[0] == code
        assert not signed_isomorphic(halved, plus) and not signed_isomorphic(halved, minus)

    @pytest.mark.parametrize("g,bound", [
        (build_kn_switched_maxneg(9), 1 << 20),
        (new_signed_graph(9, [(u, v, -1 if v == u + 1 else 1)
                              for u, v in itertools.combinations(range(9), 2)]), 1 << 20),
    ], ids=["halved-k9", "k9-negative-path"])
    def test_keys_of_signed_k9_in_bounded_memory(self, g, bound):
        # the halved K_9 is one start whose one cell is a signed-twin class;
        # K_9 whose negative edges form a Hamiltonian path has no signed
        # twins, and of its 9! orders only the branches with the least rows
        # are kept, where evaluating all 9! orders takes 7.1 MB
        expected = canonical_signed_code(g)
        tracemalloc.start()
        try:
            key = canonical_signed_code(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert key == expected
        assert peak < bound

    def test_key_of_the_negative_path_k9(self):
        # the literal comes from evaluating all 9! orders
        g = new_signed_graph(9, [(u, v, -1 if v == u + 1 else 1)
                                 for u, v in itertools.combinations(range(9), 2)])
        assert canonical_signed_code(g) == (bytes.fromhex("fffffffff0"), bytes.fromhex(
            "010101010101010101010101010102010101020201010201020202020201010201020102"))

    @pytest.mark.parametrize("parts", [(99, 100), (20, 30, 40)], ids=["k99,100", "k20,30,40"])
    def test_keys_of_positive_complete_multipartite_graphs_in_bounded_memory(
            self, parts, monkeypatch):
        # each part is a twin class, and the root's part and the part of its
        # first child hold the internal positions; each part is one class of
        # switching twins, so one start is searched, where a start per pair
        # of vertices from the two parts takes 9,900 matrices of 199^2 bytes
        side = np.repeat(np.arange(len(parts)), parts)
        g = SignedGraph((side[:, None] != side).astype(np.int8))
        code, orders = canonical_form(g.adj != 0)
        iu, ju = _triu_cells(g.n)
        row = g.adj[np.ix_(orders[0], orders[0])][iu, ju].astype(np.uint8).tobytes()
        searched = searched_starts(monkeypatch)
        tracemalloc.start()
        try:
            key = canonical_signed_code(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert key == (code, row)
        assert searched == [1]
        assert peak < 4 << 20

    def test_distinct_rows_of_any_shape(self):
        # the distinct rows of a stack, matrices or 2-D rows, sorted by bytes
        rng = np.random.default_rng(4)
        rows = rng.integers(-1, 2, size=(40, 6)).astype(np.int8)
        stack = np.concatenate([rows, rows[::3], rows[:5]])
        want = sorted({r.tobytes() for r in stack})
        for shape in [(6,), (2, 3), (1, 2, 3)]:
            got = core._distinct_matrices(stack.reshape(-1, *shape))
            assert got.shape == (len(want), *shape) and got.dtype == np.int8
            assert [r.tobytes() for r in got] == want

    @pytest.mark.parametrize("n", [6, 9])
    def test_each_matrix_keys_as_it_does_alone(self, n):
        # 50 switched copies of one labelled graph and 6 re-signings of its
        # edges, shuffled: each matrix owns its starts, so each keys in the
        # stack as it does alone, with and without switching
        rng = np.random.default_rng(50 + n)
        g = next(planted_twin_graphs(1400 + n, n, 1))
        signs = np.triu(rng.choice([-1, 1], size=(6, n, n)), 1)
        resigned = np.abs(g.adj) * (signs + signs.transpose(0, 2, 1))
        copies = [switch(g, np.flatnonzero(rng.random(n) < 0.5)).adj for _ in range(50)]
        stack = np.concatenate([copies, resigned]).astype(np.int8)[rng.permutation(56)]
        keys = {switched: core._signed_keys(stack, switched) for switched in (True, False)}
        for switched, got in keys.items():
            assert got == [core._signed_keys(a[None], switched)[0] for a in stack]
        # switching makes the 50 copies one key; unswitched they are several
        assert len(set(keys[False])) > len(set(keys[True]))

    @pytest.mark.parametrize("switched", [True, False])
    def test_signed_keys_of_a_mixed_stack(self, switched, monkeypatch):
        # three planted-twin graphs, each with a relabelled copy, a switched
        # copy and a re-signing of its edges, interleaved and some repeated:
        # each distinct underlying graph is labelled once, and each key is
        # that of its matrix alone
        rng = np.random.default_rng(23)
        graphs = []
        for g in planted_twin_graphs(900, 6, 3):
            signs = np.triu(rng.choice([-1, 1], size=(6, 6)), 1)
            graphs += [g, permute(g, rng.permutation(6)), switch(g, [0, 2]),
                       SignedGraph(np.abs(g.adj) * (signs + signs.T))]
        stack = [graphs[i] for i in [*rng.permutation(12), *rng.integers(0, 12, 4)]]
        labelled = []
        label = core.canonical_form
        monkeypatch.setattr(core, "canonical_form", lambda a: labelled.append(a.tobytes()) or label(a))
        keys = core._signed_keys(np.stack([g.adj for g in stack]), switched)
        assert sorted(labelled) == sorted({(g.adj != 0).tobytes() for g in stack})
        assert len(labelled) < len(stack)
        for g, key in zip(stack, keys):
            expected = per_order_signed_code(g)
            assert key == expected if switched else key[0] == expected[0]
        if not switched:
            same = [(key == other, brute_signed_isomorphic(g, h))
                    for (g, key), (h, other) in itertools.combinations(zip(stack, keys), 2)]
            assert all(got == want for got, want in same)
            assert {want for _, want in same} == {True, False}


def test_only_core_labels_graphs_or_finds_sign_rows():
    # switching keys come from core._signed_keys alone: no other module
    # names the labelling or the sign-row kernel
    kernels = {"canonical_form", "_least_sign_rows"}
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            assert name not in kernels and getattr(node, "name", None) not in kernels, (
                f"{path.name}:{node.lineno} uses {name or node.name}")


def searched_starts(monkeypatch):
    """The number of distinct starts that _least_sign_rows searches for each
    matrix it keys from now on, in order: each matrix owns its starts, so
    they are counted per owner at the search (_search_cells) whose work is
    "sign rows"; the labelling's searches are not counted."""
    sizes = []
    search = core._search_cells

    def recording(values, owner, *args):
        if args[-1] == "sign rows":
            sizes.extend(np.bincount(owner).tolist())
        return search(values, owner, *args)

    monkeypatch.setattr(core, "_search_cells", recording)
    return sizes


class TestSignedTwins:
    """_least_sign_rows searches the arrangements of each twin class, one
    vertex per signed-twin class at a time; the codes must equal the
    per-order and brute-force oracles."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_classes_match_the_definition_on_every_small_graph(self, n):
        for g in all_labeled_signed_graphs(n):
            assert _signed_twin_classes(g.adj) == brute_signed_twin_classes(g.adj)
            for up_to_sign in (False, True):
                classes = brute_signed_twin_classes(g.adj, up_to_sign)
                assert core._twin_firsts(g.adj, up_to_sign).tolist() == [
                    c[0] for v in range(n) for c in classes if v in c]

    def test_firsts_of_a_stack_are_those_of_its_matrices(self):
        stack = np.array([g.adj for g in planted_twin_graphs(44, 7, 12)])
        for up_to_sign in (False, True):
            firsts = core._twin_firsts(stack, up_to_sign)
            assert np.array_equal(firsts, [core._twin_firsts(a, up_to_sign) for a in stack])
            assert len({tuple(f) for f in firsts.tolist()}) > 1

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_classes_match_the_definition_on_seeded_graphs(self, n):
        graphs = [*seeded_signed_graphs(200 + n, n, 12), *planted_twin_graphs(n, n, 12)]
        sizes = set()
        for g in graphs:
            classes = _signed_twin_classes(g.adj)
            assert classes == brute_signed_twin_classes(g.adj)
            switching = brute_signed_twin_classes(g.adj, up_to_sign=True)
            assert core._twin_firsts(g.adj, up_to_sign=True).tolist() == [
                c[0] for v in range(n) for c in switching if v in c]
            sizes.update(map(len, classes))
        assert max(sizes) >= 3

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_keys_match_the_oracles_on_planted_twins(self, n):
        # a relabelled copy, a relabelled and switched copy, and a copy with
        # one cell changed; the brute switching oracle stops at 6 vertices
        rng = np.random.default_rng(n)
        planted = 0
        for g in planted_twin_graphs(300 + n, n, 8):
            planted += len(_signed_twin_classes(g.adj)) < n
            expected = per_order_signed_code(g)
            assert canonical_signed_code(g) == expected
            moved = permute(g, rng.permutation(n))
            switched = switch(moved, np.flatnonzero(rng.random(n) < 0.5))
            changed = np.array(g.adj)
            u, v = rng.choice(n, 2, replace=False)
            changed[u, v] = changed[v, u] = -changed[u, v] if changed[u, v] else 1
            changed = SignedGraph(changed)
            for h in (moved, switched, changed):
                assert signed_isomorphic(g, h) == brute_signed_isomorphic(g, h)
            assert signed_isomorphic(g, moved) and switching_isomorphic(g, switched)
            assert switching_isomorphic(g, changed) == (
                brute_switching_isomorphic(g, changed) if n <= 6
                else per_order_signed_code(changed) == expected)
        assert planted == 24

    @pytest.mark.parametrize("s,t", [(s, t) for s in range(1, 4) for t in range(s, 7 - s)])
    def test_keys_of_gst_match_the_oracles(self, s, t):
        # gst(s, t) on up to 8 vertices, also relabelled and switched
        g = build_gst(s, t)
        rng = np.random.default_rng(g.n)
        moved = permute(g, rng.permutation(g.n))
        switched = switch(moved, np.flatnonzero(rng.random(g.n) < 0.5))
        for h in (g, moved, switched):
            assert canonical_signed_code(h) == per_order_signed_code(h)
            assert signed_isomorphic(g, h) == brute_signed_isomorphic(g, h)
        assert signed_isomorphic(g, moved) and switching_isomorphic(g, switched)

    @pytest.mark.parametrize("g,classes,starts", [
        (build_kn_switched_maxneg(7), [[0, 1, 2], [3, 4, 5, 6]], [1, 1, 1]),
        (build_gst(1, 6), [[0], [1], [2], [3, 4, 5, 6, 7, 8]], [1, 1, 1]),
    ], ids=["kn_switched_maxneg(7)", "gst(1,6)"])
    def test_one_start_per_order_of_the_twin_cosets(self, g, classes, starts, monkeypatch):
        # 5,040 and 1,440 optimal orders, one coset of the twin swaps each.
        # Switched, the halved K_7 is all switching twins, so its root takes
        # one vertex, and its one cell is then one signed-twin class; gst(1,6)
        # has one internal position, its apex, in a class of one. Unswitched,
        # no position is fixed first
        assert _signed_twin_classes(g.adj) == classes
        assert len(canonical_form(g.adj != 0)[1]) == 1
        expected = per_order_signed_code(g)
        searched = searched_starts(monkeypatch)
        assert canonical_signed_code(g) == expected
        assert signed_isomorphic(g, g)
        assert searched == starts

    def test_matrices_with_the_same_starts_each_search_their_own(self, monkeypatch):
        # the ten maximizers of L2_2 at n = 6 and the halved K_6 are
        # switchings of one another: each has the one start (K_6, +), which
        # each searches as its own, and all key alike
        winners = _neg_edge_maximizers(_complete_signature_classes(6, "C3_MINUS"))[1]
        stack = np.concatenate([build_kn_switched_maxneg(6).adj[None], winners])
        searched = searched_starts(monkeypatch)
        assert len(set(core._signed_keys(stack, switched=True))) == 1
        assert searched == [1] * 11

    def test_keys_of_twin_pendants_match_the_reference(self, monkeypatch):
        # the halved K_7, and a 6-cycle with twin pendants 6, 7 on vertex 0
        # and 8, 9 on vertex 3: its 4 orders are its reflections, and the
        # negative pendant edge 06 keeps 6 and 7 from being signed twins
        halved = build_kn_switched_maxneg(7)
        pendants = new_signed_graph(10, [(v, (v + 1) % 6, 1) for v in range(6)]
                                    + [(0, 6, -1), (0, 7, 1), (3, 8, 1), (3, 9, 1)])
        assert len(canonical_form(pendants.adj != 0)[1]) == 4
        searched = searched_starts(monkeypatch)
        for g in (halved, pendants):
            assert canonical_signed_code(g) == per_order_signed_code(g)
            assert core._signed_keys(g.adj[None], switched=False)[0] == per_order_signed_code(
                g, switched=False)
        # switched, every reflection of the pendants makes them positive
        assert searched == [1, 1, 1, 2]


@functools.lru_cache(maxsize=None)
def labelling_of_every_graph(n):
    """Every labeled graph on n vertices, labelled as one stack: its codes
    (stack_codes) and what _label_stack returns."""
    adj = labeled_graph_stack(n)
    labels = _label_stack(adj, len(adj))
    return adj, list(map(bytes, _packed_codes(adj, labels[1]))), labels


def stack_codes(adj):
    """The canonical bitmap of each graph of a bool stack, labelled as one
    stack, as bytes."""
    return list(map(bytes, _packed_codes(adj, _label_stack(adj, len(adj))[1])))


def colour_classes(colours):
    return [np.flatnonzero(colours == c).tolist() for c in range(colours.max() + 1)]


def seeded_unsigned_stack(seed, n, count):
    return np.array([g.adj != 0 for g in seeded_signed_graphs(seed, n, count)])


def forked_path(n, leaves):
    """A path on n + 1 - leaves vertices; a second leaf joins its last inner
    vertex."""
    a = np.zeros((n, n), dtype=bool)
    u = np.arange(n - leaves)
    a[u, u + 1] = a[u + 1, u] = True
    if leaves == 2:
        a[n - 3, n - 1] = a[n - 1, n - 3] = True
    return a


def seeded_trees(seed, n, count):
    """Random recursive trees on n vertices (vertex v joins a uniform earlier
    vertex), each relabeled by a seeded random order."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = np.arange(1, n)
        u = np.array([rng.integers(0, x) for x in v], dtype=np.intp)
        p = rng.permutation(n)
        a = np.zeros((n, n), dtype=bool)
        a[p[v], p[u]] = a[p[u], p[v]] = True
        out.append(a)
    return np.array(out)


@functools.lru_cache(maxsize=None)
def connected_regular_graphs(n):
    """The connected regular graphs on n vertices, one per class, each
    relabeled by a seeded random order."""
    rng = np.random.default_rng(n)
    out = []
    for g in enumerate_underlying(n):
        degrees = np.count_nonzero(g.adj, axis=1)
        if (degrees == degrees[0]).all():
            p = rng.permutation(n)
            out.append(g.adj[np.ix_(p, p)] != 0)
    return np.array(out)


def ascending_twin_orders(a, orders):
    """The orders, each a sequence of the vertices of the bool matrix a, that
    keep each twin class of a (brute_signed_twin_classes) ascending, as lists."""
    pairs = [(x, y) for c in brute_signed_twin_classes(a) for x, y in zip(c, c[1:])]
    return [list(p) for p in orders if all(p.index(x) < p.index(y) for x, y in pairs)]


def assert_representatives_match_brute_force(adj):
    """canonical_form of each graph of a bool stack gives the brute-force code
    and, of its brute-force optimal orders, those in which each twin class
    ascends: one per coset of the twin swaps."""
    for a in adj:
        code, orders = brute_labelling(a)
        got, representatives = canonical_form(a)
        assert got == code
        assert representatives.tolist() == ascending_twin_orders(a, orders)


class TestCanonicalForms:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_colour_classes_match_tuple_sorting_on_every_graph(self, n):
        adj = labeled_graph_stack(n)
        for a, colours in zip(adj, _refine(adj)):
            assert colour_classes(colours) == tuple_sorting_color_classes(a)

    @pytest.mark.parametrize("n", [7, 8])
    def test_colour_classes_match_tuple_sorting_on_random_graphs(self, n):
        adj = seeded_unsigned_stack(300 + n, n, 200)
        for a, colours in zip(adj, _refine(adj)):
            assert colour_classes(colours) == tuple_sorting_color_classes(a)
            assert refined_color_classes(a) == tuple_sorting_color_classes(a)

    def test_colour_counts_do_not_wrap_past_255_neighbours(self):
        # x has 256 leaves and y, z share 256 neighbours of degree 2: all three
        # have degree 256, and counts of 256 in one colour must not read as 0
        n = 3 + 256 + 256
        a = np.zeros((n, n), dtype=bool)
        leaves, middles = np.arange(3, 259), np.arange(259, n)
        a[0, leaves] = a[leaves, 0] = True
        a[1, middles] = a[middles, 1] = True
        a[2, middles] = a[middles, 2] = True
        classes = colour_classes(_refine(a[None])[0])
        assert classes == tuple_sorting_color_classes(a)
        assert [0] in classes

    def test_count_weights_pack_exact_base_n_words(self):
        # at n = 1 and 2, n^k never passes 2^53, so k stops at n; from
        # n = 1,449 on, the colour on top of the first word caps k
        for n in [*range(1, 320), 1448, 1449]:
            k, weights = _count_weights(n)
            assert weights.shape == (n, -(-n // k))
            # one digit per colour, in the word of its colour // k, the
            # first colours of a word the most significant
            assert np.flatnonzero(weights).tolist() == [
                c * weights.shape[1] + c // k for c in range(n)]
            assert weights.max(axis=1).tolist() == [n ** (k - 1 - c % k) for c in range(n)]
            # counts of at most n - 1 keep each word below 2^53, exact in
            # float64, and one more digit would not
            assert ((n - 1) * weights.sum(axis=0) < 1 << 53).all()
            assert n ** (k + 1) <= 1 << 63
            assert k == n or n ** (k + 1) > 1 << 53 or n ** (k + 2) > 1 << 63
        assert [_count_weights(n)[0] for n in (1448, 1449)] == [5, 4]
        # the two large tables are 7.6 MB
        _count_weights.cache_clear()

    @pytest.mark.parametrize("n", [*range(14, 41), 302])
    def test_colour_classes_match_tuple_sorting_past_one_count_word(self, n, monkeypatch):
        # up to 15 vertices the counts of a round fit one word; from 16 on,
        # the rounds of some of these graphs pack more than k colours (the
        # 302-vertex path with two leaves, 300 of them, into 50 words)
        adj = np.concatenate(([forked_path(n, 1), forked_path(n, 2)],
                              seeded_trees(600 + n, n, 8)))
        widths = []

        def spy(keys):
            widths.append(keys.shape[2])
            return _dense_ranks(keys)

        monkeypatch.setattr("signed_extremal.core._dense_ranks", spy)
        for a, colours in zip(adj, _refine(adj)):
            assert colour_classes(colours) == tuple_sorting_color_classes(a)
        # a round's key is one column per word, the colour on top of the first
        words = max(widths)
        if n <= 15:
            assert words == 1
        else:
            assert words >= 2

    @pytest.mark.parametrize("n,classes", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34),
                                           (6, 156)])
    def test_counts_isomorphism_classes(self, n, classes):
        # graphs on n vertices up to isomorphism (OEIS A000088)
        assert len(set(labelling_of_every_graph(n)[1])) == classes

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_codes_invariant_under_relabeling(self, n):
        adj = seeded_unsigned_stack(400 + n, n, 40)
        rng = np.random.default_rng(n)
        perms = np.array([rng.permutation(n) for _ in adj])
        moved = adj[np.arange(len(adj))[:, None, None], perms[:, :, None], perms[:, None, :]]
        codes = stack_codes(adj)
        assert stack_codes(moved) == codes
        assert [canonical_form(a)[0] for a in moved] == codes

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_optimal_orders_of_canonical_graphs_are_automorphisms(self, n):
        # a graph relabeled by its first optimal order is in canonical form,
        # and the orders attaining its own bitmap are exactly its
        # automorphisms, of which canonical_form keeps those in which each
        # twin class ascends
        adj, codes, (_, first, _, _) = labelling_of_every_graph(n)
        # one graph per class and its first optimal order
        reps = np.unique(codes, return_index=True)[1]
        orders = first[reps]
        canon = adj[reps[:, None, None], orders[:, :, None], orders[:, None, :]]
        iu, ju = _triu_cells(n)
        for a in canon:
            code, representatives = canonical_form(a)
            assert code == np.packbits(a[iu, ju]).tobytes()
            assert representatives.tolist() == ascending_twin_orders(
                a, sorted(brute_automorphisms(a)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_orders_count_the_cosets_of_the_twin_swaps(self, n):
        # every labelled graph keeps |Aut| / prod |X|! orders over its twin
        # classes X, each counted once per isomorphism class by brute force;
        # a graph whose automorphisms are all twin swaps keeps one order
        adj, codes, (_, _, branch, _) = labelling_of_every_graph(n)
        cosets = {}
        for g in np.unique(codes, return_index=True)[1]:
            swaps = math.prod(math.factorial(len(x)) for x in brute_signed_twin_classes(adj[g]))
            cosets[codes[g]] = len(brute_automorphisms(adj[g])) // swaps
        counts = np.bincount(branch, minlength=len(adj))
        assert counts.tolist() == [cosets[code] for code in codes]
        # the path on 4 vertices is the smallest graph with two cosets
        assert (counts == 1).all() == (n <= 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_twin_graphs_keep_one_order_by_colour_then_vertex(self, n):
        # colour refinement is isomorphism-invariant, so every automorphism
        # maps each refined colour class onto itself, and when every class is
        # a twin set, every such permutation is an automorphism, and the one
        # order kept sorts the vertices by colour and then by vertex. The
        # twin graphs are found once per isomorphism class by the oracles;
        # the rest are checked on every labelled graph
        adj, codes, (_, first, branch, _) = labelling_of_every_graph(n)
        twin = {codes[g]: colour_classes_are_twin_sets(adj[g])
                for g in np.unique(codes, return_index=True)[1]}
        twins = np.array([twin[code] for code in codes])
        colours = _refine(adj[twins])
        assert np.bincount(branch, minlength=len(adj))[twins].tolist() == [1] * twins.sum()
        assert np.array_equal(first[twins], np.argsort(colours, axis=1, kind="stable"))
        # the permutations p with colours[p] == colours depend on the colours only
        keys, which = np.unique(colours, axis=0, return_inverse=True)
        perms = permutation_rows(n)
        respecting = (keys[:, perms] == keys[:, None]).all(axis=2)[which.ravel()]
        assert np.array_equal(brute_automorphism_table(adj[twins]), respecting)

    def test_orders_attain_the_codes_of_large_graphs(self):
        # from 17 vertices on, the cell p * n + q of positions p < q passes 255
        n = 20
        adj = seeded_unsigned_stack(420, n, 40)
        iu, ju = _triu_cells(n)
        for a, code in zip(adj, stack_codes(adj)):
            got, orders = canonical_form(a)
            assert got == code
            for order in orders:
                assert np.packbits(a[np.ix_(order, order)][iu, ju]).tobytes() == code

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n,leaves,count", [
        pytest.param(200, 1, 2, id="path-200"),
        pytest.param(302, 2, 1, id="forked-path-302"),
    ])
    def test_graphs_past_the_float_factorials_label_without_warnings(self, n, leaves, count):
        # 171! is past the float range. The 200-vertex path has 100 mirrored
        # pairs, no twin set, so it is individualized at every position and
        # keeps the 2 orders of its mirror symmetry. The 302-vertex path with
        # two leaves on one end has one mirrored pair, those leaves, which are
        # twins, so it keeps one order.
        a = forked_path(n, leaves)
        tracemalloc.start()
        try:
            code, orders = canonical_form(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 << 20
        assert len(orders) == count
        # the smallest dtype that holds every position: a byte up to 256 vertices
        assert orders.dtype == (np.uint8 if n <= 256 else np.uint16)
        iu, ju = _triu_cells(n)
        for order in orders:
            assert np.packbits(a[np.ix_(order, order)][iu, ju]).tobytes() == code

    @pytest.mark.parametrize("n", [1, 2, 8, 12, 20])
    def test_packed_codes_match_the_bytes_of_the_cells(self, n):
        # codes are C-order uint8 rows of C(n, 2) bits padded to whole bytes:
        # none at n = 1, whose code has no cell, one at n = 2, 9 from the 66
        # cells of n = 12 and 24 at n = 20; seeded graphs, K_n and the empty
        # graph, each under a seeded order
        rng = np.random.default_rng(n)
        adj = np.concatenate((seeded_unsigned_stack(60 + n, n, 30),
                              [~np.eye(n, dtype=bool), np.zeros((n, n), dtype=bool)]))
        orders = np.array([rng.permutation(n) for _ in adj], dtype=np.min_scalar_type(n - 1))
        iu, ju = _triu_cells(n)
        expect = [np.packbits(a[np.ix_(o, o)][iu, ju]).tobytes() for a, o in zip(adj, orders)]
        codes = _packed_codes(adj, orders)
        assert codes.dtype == np.uint8 and codes.flags.c_contiguous
        assert list(map(bytes, codes)) == expect
        assert _packed_codes(adj[:0], orders[:0]).shape == (0, (len(iu) + 7) // 8)
        # K_n sets every cell, then pads to whole bytes
        cells = n * (n - 1) // 2
        assert int.from_bytes(expect[-2], "big") == ((1 << cells) - 1) << (-cells % 8)

    @pytest.mark.slow
    def test_the_one_order_of_a_graph_with_nine_isolated_vertices(self):
        # graph 12 of this seeded stack has 9 isolated vertices and two twin
        # pairs, and its colour classes are all twin sets: canonical_form
        # keeps its first order, and the pinned orders, 9! x 4, are that
        # order under every permutation of its colour classes, the first
        # class varying slowest and each class in itertools order
        a = np.triu(np.random.default_rng(5).random((30, 30, 30))[12] < 0.06, 1)
        a |= a.T
        tracemalloc.start()
        try:
            code, orders = canonical_form(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert orders.shape == (1, 30) and orders.dtype == np.uint8
        runs = [(start, len(c)) for start, c in zip(
            itertools.accumulate(map(len, refined_color_classes(a)), initial=0),
            refined_color_classes(a)) if len(c) > 1]
        assert sorted(k for _, k in runs) == [2, 2, 9]
        every = np.empty((1_451_520, 30), dtype=np.uint8)
        every[:] = orders[0]
        stride = len(every)
        for start, k in runs:
            table = permutation_rows(k)
            stride //= len(table)
            every.reshape(-1, len(table), stride, 30)[:, :, :, start:start + k] = (
                orders[0, start + table][None, :, None, :])
        assert hashlib.sha256(every.tobytes()).hexdigest() == (
            "2aa0cfccec67ccb44ca2b5d10f61a532b8fc3da71d215d675d4631212cae3a02")
        iu, ju = _triu_cells(30)
        for chunk in np.array_split(every, 64):
            bits = np.packbits(a[chunk[:, iu], chunk[:, ju]], axis=1)
            assert (bits == bits[0]).all()
            assert bits[0].tobytes() == code

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_brute_force_labelling_on_every_graph(self, n):
        adj = labeled_graph_stack(n)
        assert_representatives_match_brute_force(adj)
        assert labelling_of_every_graph(n)[1] == [brute_labelling(a)[0] for a in adj]

    @pytest.mark.slow
    def test_matches_brute_force_labelling_on_every_graph_n6(self):
        adj = labeled_graph_stack(6)
        assert_representatives_match_brute_force(adj)
        assert labelling_of_every_graph(6)[1] == [brute_labelling(a)[0] for a in adj]

    @pytest.mark.parametrize("n,count", [(7, 4), (8, 17)])
    def test_matches_brute_force_labelling_on_regular_graphs(self, n, count):
        # colour refinement cannot split a regular graph, so all n! orders
        # respect its one class; K_n keeps one of them
        adj = connected_regular_graphs(n)
        assert len(adj) == count
        assert_representatives_match_brute_force(adj)
        # seeded graphs, the regular graphs and the empty graph in one
        # stack: twin graphs, which take no branch, and others
        mixed = np.concatenate((seeded_unsigned_stack(31, n, 40), adj,
                                [np.zeros((n, n), dtype=bool)]))
        twins = [colour_classes_are_twin_sets(a) for a in mixed]
        assert any(twins) and not all(twins)
        assert stack_codes(mixed) == [brute_labelling(a)[0] for a in mixed]
        assert_representatives_match_brute_force(mixed)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_optimal_orders_ascend_lexicographically(self, n):
        _, _, (_, _, branch, perm) = labelling_of_every_graph(n)
        # as base-n numbers, orders compare as they do lexicographically
        value = perm.astype(np.int64) @ n ** np.arange(n - 1, -1, -1)
        same = branch[1:] == branch[:-1]
        assert (value[1:][same] > value[:-1][same]).all()

    def test_canonical_form_orders_ascend_on_every_class(self):
        # canonical_form sorts nothing: the search gives its orders ascending
        branched = 0
        for n in range(3, 8):
            for a in _codes_to_adj(_connected_class_bitmaps(n), n):
                orders = canonical_form(a)[1].tolist()
                assert all(p < q for p, q in zip(orders, orders[1:]))
                branched += len(orders) > 1
        assert branched > 100

    def test_canonical_form_orders_ascend_on_seeded_graphs(self):
        # unsigned graphs with planted twins, whose twin classes are partly
        # placed when other cells branch
        branched = 0
        for n in range(2, 13):
            for g in [*seeded_signed_graphs(1200 + n, n, 12), *planted_twin_graphs(1300 + n, n, 12)]:
                orders = canonical_form(g.adj != 0)[1].tolist()
                assert all(p < q for p, q in zip(orders, orders[1:]))
                branched += len(orders) > 1
        assert branched > 20

    def test_labelling_refuses_branches_past_the_work_cap(self, monkeypatch):
        # gst(s, s) is not a twin graph, but both labellings try one twin per
        # class: of its 2 (s!)^2 optimal orders they keep the 2 cosets of the
        # twin swaps, 2 branches at position 0. The Petersen graph has no
        # twins, and both open 180 branches at position 2 on the way to its
        # 120 automorphisms
        a = build_gst(4, 4).adj != 0
        monkeypatch.setattr(core, "_SWITCH_MAX_WORK", 2)
        assert len(_label_stack(a[None], 1)[3]) == len(canonical_form(a)[1]) == 2
        monkeypatch.setattr(core, "_SWITCH_MAX_WORK", 1)
        with pytest.raises(ValueError, match="labelling capped at 1 branches, got 2"):
            _label_stack(a[None], 1)
        petersen = np.zeros((10, 10), dtype=bool)
        for i in range(5):
            for u, v in [(i, (i + 1) % 5), (i, i + 5), (i + 5, (i + 2) % 5 + 5)]:
                petersen[u, v] = petersen[v, u] = True
        monkeypatch.setattr(core, "_SWITCH_MAX_WORK", 180)
        assert len(_label_stack(petersen[None], 1)[3]) == len(canonical_form(petersen)[1]) == 120
        monkeypatch.setattr(core, "_SWITCH_MAX_WORK", 179)
        for label in (canonical_form, lambda a: _label_stack(a[None], 1)):
            with pytest.raises(ValueError, match="labelling capped at 179 branches, got 180"):
                label(petersen)

    @pytest.mark.parametrize("s", [6, 7])
    def test_gst_keys_from_one_order_per_coset_of_the_twin_swaps(self, s):
        # gst(s, s) has 2 (s!)^2 optimal orders, about 50 million at s = 7,
        # which canonical_form no longer builds; a relabelled, switched copy
        # keys alike, and a copy with one edge flipped does not
        g = build_gst(s, s)
        rng = np.random.default_rng(s)
        moved = switch(permute(g, rng.permutation(g.n)), np.flatnonzero(rng.random(g.n) < 0.5))
        flipped = np.array(g.adj)
        flipped[0, 1] = flipped[1, 0] = -flipped[0, 1]
        assert len(canonical_form(g.adj != 0)[1]) == 2
        assert switching_isomorphic(g, moved)
        assert not switching_isomorphic(g, SignedGraph(flipped))

    def test_one_graph_views(self):
        # canonical_form labels one graph as the stack does: its code, its
        # orders, one per coset of the twin swaps, and its least twins
        adj = seeded_unsigned_stack(11, 6, 12)
        tags, first, branch, perm = _label_stack(adj, len(adj))
        codes = _packed_codes(adj, first)
        for g, a in enumerate(adj):
            code, orders = canonical_form(a)
            assert code == codes[g].tobytes()
            assert np.array_equal(orders, perm[branch == g])
            assert tags[g].tolist() == [min(x) for v in range(6)
                                        for x in brute_signed_twin_classes(a) if v in x]
