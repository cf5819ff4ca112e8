import collections
import dataclasses
import functools
import hashlib
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from signed_extremal.bounds import SPECTRAL_SLACK, neg_edge_bound, rho_bound
from signed_extremal.core import (
    SignedGraph,
    _label_stack,
    _packed_codes,
    _switching_peak,
    _twin_quotient,
    canonical_signed_code,
    canonical_switch,
    is_balanced,
    is_connected,
    new_signed_graph,
    signed_isomorphic,
    switch,
    switching_equivalent,
)
from signed_extremal.families import (
    build_complete,
    build_gst,
    build_gst_maxneg,
    build_kn_switched_maxneg,
)
from signed_extremal.search import (
    FORBIDDEN,
    THEOREMS,
    SearchConfig,
    _canonical_children,
    _class_summary,
    _codes_to_adj,
    _complete_signature_classes,
    _connected_class_bitmaps,
    _cut_components,
    _degree_bound,
    _deletion_sets,
    _feasible_counts,
    _graph_table,
    _neg_edge_maximizers,
    _orbit_masks,
    _least_edges_in_reach,
    _signature_stack,
    _span_patterns,
    _table_block,
    _table_span,
    enumerate_signatures,
    enumerate_underlying,
    search,
    switching_neg_edge_maximum,
    verify_theorem,
)

from _oracles import (
    all_labeled_signed_graphs,
    all_mask_neg_counts,
    all_signatures,
    brute_automorphism_table,
    brute_automorphisms,
    brute_signed_twin_classes,
    brute_switch,
    brute_switching_key,
    colour_classes_are_twin_sets,
    connected_graphs_up_to_isomorphism,
    connected_labeled_graphs,
    forbidden_and_balance_flags,
    graphs_isomorphic,
    per_child_deletion_set,
    per_mask_neg_edge_maximum,
    per_parent_orbit_masks,
    permutation_rows,
    planted_twin_graphs,
    row_loop_gf2_solutions,
    seeded_signed_graphs,
    unpruned_canonical_children,
    unpruned_rho_scan,
)

SEARCH = sys.modules[search.__module__]

# class count and sha256 of the comma-joined sorted canonical codes, recorded
# from the enumerator that canonicalized every attachment of every smaller
# class; canonical augmentation must reproduce them exactly
PINNED_CLASS_CODES = {
    4: (6, "2616ba19de6bbfb8edbe3ae6a6625078b947668cd3273569d50a58c3bf6f0c2b"),
    5: (21, "4207e04809af7de40870bc26c3b3505acbbd306fb1946049b270926136d44085"),
    6: (112, "1696f1cbed93aee140ee101d74477966c3b8ee0b76f0569d796739c0fe60f260"),
    7: (853, "445bff1262eee9d2e95df7cbaf4085403530a5a43aafa9a28d097aa150aa96a8"),
    8: (11117, "23ba93b3b82fac17178a6601153e23e9c6d4473627de122f86a7ef5016620b2a"),
}


# the first 16 hex digits of the sha256 of each _Summary field (its dtype
# string, then its bytes), in field order, recorded when the summary was
# built from spanning trees and a row elimination in tree coordinates
PINNED_SUMMARIES = {
    (3, "C3_MINUS"): ("8701ca8603ed4d72", "31990d6102f61908",
                      "05f5c45d64b52f7f", "05f5c45d64b52f7f"),
    (3, "C3_PLUS"): ("8701ca8603ed4d72", "31990d6102f61908",
                     "05f5c45d64b52f7f", "3d5ffa25667d434d"),
    (3, "NONE"): ("8701ca8603ed4d72", "043b5d47afc0637f",
                  "05f5c45d64b52f7f", "05f5c45d64b52f7f"),
    (4, "C3_MINUS"): ("2003b087d2b64a49", "b1bfb691b62922a8",
                      "56912cde8a14da45", "56912cde8a14da45"),
    (4, "C3_PLUS"): ("2003b087d2b64a49", "b1bfb691b62922a8",
                     "56912cde8a14da45", "cb8b6be1d5c4f1b0"),
    (4, "NONE"): ("2003b087d2b64a49", "495dba6deef728bc",
                  "56912cde8a14da45", "56912cde8a14da45"),
    (5, "C3_MINUS"): ("980d77ae48fd5c1e", "fb2e8d31dd42a576",
                      "7a683522d21b7fec", "7a683522d21b7fec"),
    (5, "C3_PLUS"): ("980d77ae48fd5c1e", "fb2e8d31dd42a576",
                     "7a683522d21b7fec", "b94c35a62adda471"),
    (5, "NONE"): ("980d77ae48fd5c1e", "cdde399a33ec208d",
                  "7a683522d21b7fec", "7a683522d21b7fec"),
    (6, "C3_MINUS"): ("5bae8a6363706bd5", "b176b8bee3029953",
                      "e6d0509f7f3453c5", "e6d0509f7f3453c5"),
    (6, "C3_PLUS"): ("5bae8a6363706bd5", "b176b8bee3029953",
                     "e6d0509f7f3453c5", "19e82930746be54e"),
    (6, "NONE"): ("5bae8a6363706bd5", "3b5066d3ccd05207",
                  "e6d0509f7f3453c5", "e6d0509f7f3453c5"),
    (7, "C3_MINUS"): ("54f64cad83d8b45e", "a8cd5265e4f4b457",
                      "91cc8287108d189e", "91cc8287108d189e"),
    (7, "C3_PLUS"): ("54f64cad83d8b45e", "a8cd5265e4f4b457",
                     "91cc8287108d189e", "f5d94b131fa5b0ed"),
    (7, "NONE"): ("54f64cad83d8b45e", "2f8a4637a8c159b6",
                  "91cc8287108d189e", "91cc8287108d189e"),
    (8, "C3_MINUS"): ("97e987cf587bd4c3", "229bd700c3136250",
                      "89565633b27067d6", "89565633b27067d6"),
    (8, "C3_PLUS"): ("97e987cf587bd4c3", "229bd700c3136250",
                     "89565633b27067d6", "b4b3e4994b518f64"),
    (8, "NONE"): ("97e987cf587bd4c3", "f0fa59f19752002d",
                  "89565633b27067d6", "89565633b27067d6"),
}


def codes_digest(codes) -> str:
    """The sha256 of the comma-joined decimal values of byte-row codes, each
    read as a big-endian number."""
    values = (str(int.from_bytes(c.tobytes(), "big")) for c in codes)
    return hashlib.sha256(",".join(values).encode()).hexdigest()


def attach(parents, masks):
    """Each parent (bool, m x m) with one new last vertex joined to the
    vertices of its bitmask."""
    m = parents.shape[1]
    adj = np.pad(parents, ((0, 0), (0, 1), (0, 1)))
    adj[:, m, :m] = adj[:, :m, m] = (np.asarray(masks)[:, None] >> np.arange(m)) & 1
    return adj


def rivals(adj):
    """The vertices before the last whose (-degree, sorted neighbour degrees)
    is at least the last vertex's: those whose cut test M(G) needs."""
    deg = adj.sum(axis=1)
    key = [(-deg[v], sorted(deg[adj[v]])) for v in range(len(adj))]
    return [v for v in range(len(adj) - 1) if key[v] >= key[-1]]


def connected_without(adj, v):
    rest = np.delete(np.delete(adj, v, axis=0), v, axis=1)
    return is_connected(SignedGraph(rest.astype(np.int8)))


def augmentation_children(n):
    """Children on n vertices as the unpruned augmentation tests them: every
    class on n - 1 <= 6 vertices with one mask per orbit of its automorphisms,
    those the degree bound drops included, and from n = 7 on seeded connected
    parents with seeded masks."""
    m = n - 1
    stacks = []
    if m <= 6:
        parents = _codes_to_adj(_connected_class_bitmaps(m), m)
        perms = permutation_rows(m)
        pairs = [(p, mask) for p, autos in enumerate(brute_automorphism_table(parents))
                 for mask in per_parent_orbit_masks(perms[autos], m)]
        owner, masks = map(list, zip(*pairs))
        stacks.append(attach(parents[owner], masks))
    if n >= 7:
        parents = np.array([g.adj != 0 for g in seeded_signed_graphs(700 + n, m, 400)
                            if is_connected(g)])
        masks = np.random.default_rng(n).integers(1, 1 << m, size=len(parents))
        stacks.append(attach(parents, masks))
    return np.concatenate(stacks)


def degree_bound_by_definition(parent):
    """delta and D of the degree bound, by definition: the least degree of a
    non-cut vertex of the parent and the bitmask of the non-cut vertices of
    that degree; a single vertex, which has none, gives m and 0."""
    deg = parent.sum(axis=1)
    non_cut = [v for v in range(len(parent)) if len(parent) > 1 and connected_without(parent, v)]
    floor = min(deg[non_cut], default=len(parent))
    return floor, sum(1 << v for v in non_cut if deg[v] == floor)


def kept_by_degree_bound(mask, floor, low):
    size = bin(mask).count("1")
    return size <= floor or (size == floor + 1 and mask & low == low)


def deletion_rows(monkeypatch, n):
    """The children sent to _deletion_sets per level while the classes on n
    vertices are enumerated from a cleared cache."""
    rows = collections.Counter()
    deletion_sets = SEARCH._deletion_sets

    def spy(adj, comps):
        rows[adj.shape[1]] += len(adj)
        return deletion_sets(adj, comps)

    monkeypatch.setattr(SEARCH, "_deletion_sets", spy)
    SEARCH._class_level.cache_clear()
    assert len(SEARCH._connected_class_bitmaps(n)) == PINNED_CLASS_CODES[n][0]
    return dict(rows)


@pytest.fixture
def fresh_summaries():
    """Drop the cached class summaries before and after the test."""
    SEARCH._class_summary.cache_clear()
    yield
    SEARCH._class_summary.cache_clear()


def whole_class_table(n):
    """Every class of n in one table, in code order, at the width the scan
    rebuilds its rows at: the whole-n table the search itself never holds."""
    codes = _connected_class_bitmaps(n)
    return SEARCH._ClassTable(*_table_block(_codes_to_adj(codes, n), (n - 1) * (n - 2) // 2))


def tree_triangle_masks(table, c):
    """The non-tree bitmask of each triangle of row c, triangles in
    lexicographic order: its triangle system in tree coordinates, in row
    form, by definition."""
    adj = table.adj[c]
    n = len(adj)
    iu, ju = np.triu_indices(n, 1)
    bit = {(int(iu[cell]), int(ju[cell])): b
           for b, cell in enumerate(table.nontree[c][:table.widths[c]].tolist())}
    return [sum(1 << bit[e] for e in ((i, j), (i, k), (j, k)) if e in bit)
            for i, j, k in itertools.combinations(range(n), 3)
            if adj[i, j] and adj[i, k] and adj[j, k]]


class TestEnumerateUnderlying:
    @pytest.mark.parametrize("n,expect", [(4, 6), (5, 21), (6, 112)])
    def test_class_counts(self, n, expect):
        assert sum(1 for _ in enumerate_underlying(n)) == expect
        # the oracle behind the slow n = 6 brute-force check (OEIS A001349)
        assert sum(1 for _ in connected_graphs_up_to_isomorphism(n)) == expect

    @pytest.mark.parametrize("n", sorted(PINNED_CLASS_CODES))
    def test_class_codes_are_pinned(self, n):
        count, digest = PINNED_CLASS_CODES[n]
        codes = _connected_class_bitmaps(n)
        assert len(codes) == count
        assert codes_digest(codes) == digest

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_augmentation_emits_each_class_once(self, n):
        children = _canonical_children(n)[0]
        assert len(children) == len(set(map(bytes, children)))

    def test_underlying_class_count_n8(self):
        # connected graphs on 8 vertices (OEIS A001349)
        assert sum(1 for _ in enumerate_underlying(8)) == 11117

    def test_blocks_do_not_change_any_level(self, monkeypatch):
        # blocks of 7 split the children of every level from n = 4 on and
        # the parents from n = 6 on
        expect = {n: _canonical_children(n)[0] for n in range(2, 8)}
        monkeypatch.setattr(SEARCH, "_TABLE_BLOCK", 7)
        for n, children in expect.items():
            assert np.array_equal(_canonical_children(n)[0], children)
            assert sorted(map(bytes, children)) == list(map(bytes, _connected_class_bitmaps(n)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_pruned_augmentation_matches_the_unpruned_loop(self, n):
        assert list(map(bytes, _canonical_children(n)[0])) == unpruned_canonical_children(n)

    def test_orbit_masks_match_the_per_parent_oracle(self):
        # every class on m <= 7 vertices, with the labels its level carried:
        # the block kernel keeps the least mask of each orbit that the degree
        # bound keeps, in the oracle's order, in blocks of _TABLE_BLOCK and
        # of 7 parents
        for m in range(1, 8):
            codes, labels = SEARCH._class_level(m)
            parents = _codes_to_adj(codes, m)
            perms = permutation_rows(m)
            bound = [degree_bound_by_definition(parent) for parent in parents]
            expect = [(p, mask) for p, autos in enumerate(brute_automorphism_table(parents))
                      for mask in per_parent_orbit_masks(perms[autos], m)
                      if kept_by_degree_bound(mask, *bound[p])]
            for block in (SEARCH._TABLE_BLOCK, 7):
                got = []
                for lo in range(0, len(parents), block):
                    part = parents[lo:lo + block]
                    owner, masks = _orbit_masks(part, _cut_components(part),
                                                labels.take(slice(lo, lo + block)))
                    got += zip((owner + lo).tolist(), masks.tolist())
                assert got == expect

    @pytest.mark.parametrize("block", [None, 7])
    def test_carried_labels_match_a_fresh_labelling(self, block, monkeypatch):
        # every class on n <= 7 vertices, enumerated from a cleared cache in
        # blocks of _TABLE_BLOCK and of 7: the labels its level carries to
        # the next are those of core._label_stack on its canonical form, row
        # counts exactly and each class's automorphisms as a set, and its
        # least twins, which are those of the oracle
        if block:
            monkeypatch.setattr(SEARCH, "_TABLE_BLOCK", block)
        SEARCH._class_level.cache_clear()
        try:
            levels = [SEARCH._class_level(n) for n in range(1, 8)]
        finally:
            SEARCH._class_level.cache_clear()
        for n, (codes, labels) in enumerate(levels, start=1):
            adj = _codes_to_adj(codes, n)
            tags, first, branch, orders = _label_stack(adj, len(adj))
            counts = np.bincount(branch, minlength=len(adj))
            assert np.array_equal(_packed_codes(adj, first), codes)
            assert labels.tags.dtype == labels.orders.dtype == np.uint8
            assert np.array_equal(labels.tags, tags)
            assert np.array_equal(labels.counts, counts)
            for got, want in zip(np.split(labels.orders, np.cumsum(labels.counts)[:-1]),
                                 np.split(orders, np.cumsum(counts)[:-1])):
                assert set(map(tuple, got.tolist())) == set(map(tuple, want.tolist()))
            if n <= 6:
                assert labels.tags.tolist() == [
                    [min(x) for v in range(n) for x in brute_signed_twin_classes(a) if v in x]
                    for a in adj]

    def test_classes_carry_one_order_per_coset_of_the_twin_swaps(self):
        # each class on n <= 6 vertices carries |Aut(G)| / prod |X|! orders
        # over its twin classes X, by brute force, and a twin graph one; the
        # identity comes first, and every order is an automorphism of the
        # canonical form that keeps each twin class ascending
        for n in range(1, 7):
            codes, labels = SEARCH._class_level(n)
            starts = np.cumsum(labels.counts) - labels.counts
            assert (labels.orders[starts] == np.arange(n)).all()
            for a, rows in zip(_codes_to_adj(codes, n),
                               np.split(labels.orders, np.cumsum(labels.counts)[:-1])):
                autos = brute_automorphisms(a)
                twins = brute_signed_twin_classes(a)
                assert len(rows) == len(autos) // math.prod(math.factorial(len(x)) for x in twins)
                assert len(rows) == 1 or not colour_classes_are_twin_sets(a)
                assert set(map(tuple, rows.tolist())) <= autos
                assert all((np.diff(rows[:, x], axis=1) > 0).all() for x in twins)
        # 1,690 automorphisms at n = 7, 702 cosets, and one row for each of
        # the 570 twin graphs
        assert SEARCH._class_level(7)[1].counts.sum() == 1272

    def test_levels_are_read_only_byte_rows_in_code_order(self):
        for n in range(1, SEARCH._MAX_N + 1):
            codes = _connected_class_bitmaps(n)
            assert codes.dtype == np.uint8 and not codes.flags.writeable
            assert codes.shape[1] == (n * (n - 1) // 2 + 7) // 8
            rows = list(map(bytes, codes))
            assert rows == sorted(set(rows))

    def test_enumeration_holds_less_than_256_kib(self):
        # what the levels up to n = 8 keep, enumerated from a cleared cache:
        # 4 bytes per class at n = 8 and the labels of the levels below,
        # about 107 KB; one Python int per class held about 516 KB
        SEARCH._class_level.cache_clear()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            SEARCH._class_level(8)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
            SEARCH._class_level.cache_clear()
        assert held < 256 << 10

    def test_top_level_keeps_no_labels(self):
        assert SEARCH._class_level(SEARCH._MAX_N)[1] is None
        assert SEARCH._class_level(SEARCH._MAX_N - 1)[1] is not None

    @pytest.mark.parametrize("block", [None, 7])
    def test_labelling_sees_each_child_once(self, block, monkeypatch):
        # at each level n <= 7, the graphs labelled are the children sent to
        # the labelling (those whose new vertex is in M(G)), each once, in
        # full blocks of _TABLE_BLOCK but the last; no level labels a parent
        # again, and none takes the one-graph labelling
        if block:
            monkeypatch.setattr(SEARCH, "_TABLE_BLOCK", block)
        sent, seen = collections.defaultdict(list), collections.defaultdict(list)
        core = sys.modules[canonical_signed_code.__module__]
        deletion_sets, search_cells = SEARCH._deletion_sets, core._search_cells
        relabelled = []

        def deletion_spy(adj, comps):
            in_set = deletion_sets(adj, comps)
            sent[adj.shape[1]].append(adj[in_set[:, -1]])
            return in_set

        def search_spy(values, *args):
            seen[values.shape[1]].append(values.view(bool).copy())
            return search_cells(values, *args)

        monkeypatch.setattr(SEARCH, "_deletion_sets", deletion_spy)
        monkeypatch.setattr(core, "_search_cells", search_spy)
        monkeypatch.setattr(core, "canonical_form", lambda adj: relabelled.append(adj))
        SEARCH._class_level.cache_clear()
        try:
            assert len(_connected_class_bitmaps(7)) == 853
        finally:
            SEARCH._class_level.cache_clear()
        assert not relabelled
        assert sorted(sent) == list(range(2, 8))
        for n, stacks in sent.items():
            expect = [a.tobytes() for a in np.concatenate(stacks)]
            got = [a.tobytes() for batch in seen[n] for a in batch]
            assert got == expect
            full, rest = divmod(len(expect), SEARCH._TABLE_BLOCK)
            sizes = [SEARCH._TABLE_BLOCK] * full + [rest] * (rest > 0)
            assert [len(batch) for batch in seen[n]] == sizes

    def test_twin_graphs_take_no_branch(self, monkeypatch):
        # the search takes a branch only for a graph with two tags in one
        # colour class: never for canonical_form of K_n, of gst(s, t)'s
        # underlying graph with s != t, or of a twin child (by the oracle) of
        # a level n <= 6, labelled alone; every other child branches.
        # gst(s, s) swaps its apexes and sides, so it keeps two cosets
        core = sys.modules[canonical_signed_code.__module__]
        check_work, branches = core._check_work, []

        def spy(count, what, *args):
            branches.append(what)
            return check_work(count, what, *args)

        monkeypatch.setattr(core, "_check_work", spy)

        def branched(label, a):
            branches.clear()
            label(a)
            return bool(branches)

        for n in range(1, 13):
            assert not branched(core.canonical_form, ~np.eye(n, dtype=bool))
        for s, t in [(1, 2), (1, 5), (2, 3), (3, 6)]:
            assert not branched(core.canonical_form, build_gst(s, t).adj != 0)
        assert branched(core.canonical_form, build_gst(3, 3).adj != 0)
        sent = collections.defaultdict(list)
        deletion_sets = SEARCH._deletion_sets

        def deletion_spy(adj, comps):
            in_set = deletion_sets(adj, comps)
            sent[adj.shape[1]].append(adj[in_set[:, -1]])
            return in_set

        monkeypatch.setattr(SEARCH, "_deletion_sets", deletion_spy)
        SEARCH._class_level.cache_clear()
        try:
            SEARCH._class_level(6)
        finally:
            SEARCH._class_level.cache_clear()
        twins = 0
        for n, stacks in sent.items():
            for a in np.concatenate(stacks):
                twin = colour_classes_are_twin_sets(a)
                assert branched(lambda a: _label_stack(a[None], 1), a) != twin
                twins += twin
        assert twins > 0

    def test_degree_bound_matches_the_definition(self):
        # every class on m <= 7 vertices, seeded graphs on 9 to 11, and
        # K_4 - c - K_4, whose cut vertex c has degree 2, below delta = 3
        stacks = [_codes_to_adj(_connected_class_bitmaps(m), m) for m in range(1, 8)]
        stacks += [np.array([g.adj != 0 for g in seeded_signed_graphs(900 + m, m, 60)
                             if is_connected(g)]) for m in (9, 10, 11)]
        barbell = np.zeros((9, 9), dtype=bool)
        for u, v in [*itertools.combinations(range(4), 2), (3, 4), (4, 5),
                     *itertools.combinations(range(5, 9), 2)]:
            barbell[u, v] = barbell[v, u] = True
        stacks.append(barbell[None])
        for adj in stacks:
            floor, low = _degree_bound(adj, _cut_components(adj))
            expect = [degree_bound_by_definition(parent) for parent in adj]
            assert list(zip(floor.tolist(), low.tolist())) == expect
        assert expect == [(3, 0b111000111)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_degree_bound_drops_only_rejected_children(self, n):
        # every orbit mask of every class up to m = 6 and seeded children
        # above: a child the bound drops fails the deletion test
        adj = augmentation_children(n)
        parents, m = adj[:, :-1, :-1], n - 1
        floor, low = _degree_bound(parents, _cut_components(parents))
        masks = adj[:, -1, :-1] @ (np.int64(1) << np.arange(m))
        sizes = np.bitwise_count(masks)
        dropped = ~((sizes <= floor) | ((sizes == floor + 1) & (masks & low == low)))
        in_set = _deletion_sets(adj, _cut_components(parents))
        assert not in_set[dropped, -1].any()
        assert dropped.any() or n < 4

    def test_deletion_test_rows_are_pinned(self, monkeypatch):
        # children sent to the deletion test per level; without the degree
        # bound they were 1, 2, 8, 44, 333 and 3,771
        assert deletion_rows(monkeypatch, 7) == {2: 1, 3: 2, 4: 6, 5: 23, 6: 137, 7: 1192}

    @pytest.mark.parametrize("n", [4, 5, 7, 8])
    def test_deletion_sets_match_the_definition(self, n):
        # every labeled graph up to n = 5, seeded ones above; the stack takes
        # children of connected parents: G and G - (n - 1) both connected
        graphs = (connected_labeled_graphs(n) if n <= 5 else
                  (g.adj != 0 for g in seeded_signed_graphs(500 + n, n, 300)))
        adj = np.array([a for a in graphs if is_connected(SignedGraph(a.astype(np.int8)))
                        and is_connected(SignedGraph(a[:-1, :-1].astype(np.int8)))])
        assert len(adj) > 10
        for a, in_set in zip(adj, _deletion_sets(adj, _cut_components(adj[:, :-1, :-1]))):
            expect = per_child_deletion_set(a)
            assert (np.flatnonzero(in_set).tolist() if in_set[-1] else None) == expect

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_deletion_sets_of_augmentation_children_match_the_definition(self, n):
        adj = augmentation_children(n)
        # cut tests come from the parent's components, so the children must
        # include new leaves and rivals that cut the parent but not G
        leaves = cuts_parent_only = 0
        for a, in_set in zip(adj, _deletion_sets(adj, _cut_components(adj[:, :-1, :-1]))):
            expect = per_child_deletion_set(a)
            assert (np.flatnonzero(in_set).tolist() if in_set[-1] else None) == expect
            leaves += int(a[-1].sum()) == 1
            if n >= 4:
                cuts_parent_only += sum(not connected_without(a[:-1, :-1], v)
                                        and connected_without(a, v) for v in rivals(a))
        assert leaves > 0
        assert cuts_parent_only > 0 or n < 4

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            list(enumerate_underlying(3))
        with pytest.raises(ValueError):
            list(enumerate_underlying(9))
        for n in (5.0, np.int64(5)):
            with pytest.raises(ValueError, match="n must be an int"):
                list(enumerate_underlying(n))

    def test_reps_are_connected_and_pairwise_nonisomorphic(self):
        reps = [g.adj.astype(bool) for g in enumerate_underlying(5)]
        for adj in reps:
            from signed_extremal.core import SignedGraph

            assert is_connected(SignedGraph(adj.astype(np.int8)))
        for a, b in itertools.combinations(reps, 2):
            assert not graphs_isomorphic(a.astype(np.int8), b.astype(np.int8))

    def test_covers_every_labeled_graph(self):
        # independent oracle: every labeled connected graph on 4 vertices is
        # isomorphic to exactly one enumerated representative
        reps = [g.adj for g in enumerate_underlying(4)]
        for adj in connected_labeled_graphs(4):
            hits = sum(
                1 for r in reps if graphs_isomorphic(adj.astype(np.int8), r)
            )
            assert hits == 1


class TestEnumerateSignatures:
    def test_tree_has_single_class(self):
        p4 = new_signed_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        sigs = list(enumerate_signatures(p4))
        assert len(sigs) == 1 and sigs[0].neg_edge_count == 0

    def test_cycle_has_two_classes(self):
        c4 = new_signed_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        sigs = list(enumerate_signatures(c4))
        assert len(sigs) == 2
        assert sorted(is_balanced(g) for g in sigs) == [False, True]

    def test_k4_has_eight_classes(self):
        assert len(list(enumerate_signatures(build_complete(4, 1)))) == 8

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            list(enumerate_signatures(new_signed_graph(3, [(0, 1, 1)])))

    def test_stack_with_a_disconnected_graph_rejected(self):
        # one disconnected graph among connected ones fails the whole table
        adj = _codes_to_adj(_connected_class_bitmaps(5), 5)
        # K_5 less the edges at vertex 4
        cut = ~np.eye(5, dtype=bool)
        cut[4, :] = cut[:, 4] = False
        adj = np.concatenate((adj[:3], [cut], adj[3:]))
        with pytest.raises(ValueError, match="graph must be connected"):
            _table_block(adj, 6)

    def test_long_cycle_keeps_its_non_tree_cell(self):
        # the non-tree edge (15, 16) of C_30 is upper-triangle cell 330, which
        # a uint8 cell table would wrap to cell 74, the non-edge (2, 20)
        n = 30
        sigs = list(enumerate_signatures(new_signed_graph(n, [(i, (i + 1) % n, 1)
                                                              for i in range(n)])))
        assert [g.neg_edge_count for g in sigs] == [0, 1]
        assert [e for e in sigs[1].edges() if e[2] == -1] == [(15, 16, -1)]

    def test_more_than_64_non_tree_edges_rejected(self, monkeypatch):
        # a pattern, and the unit bits that ride along its elimination, must
        # fit one uint64 word; the width is refused before any tree is built
        trees = []
        monkeypatch.setattr(SEARCH, "_bfs_tree", trees.append)
        with pytest.raises(ValueError, match="66 non-tree edges"):
            next(enumerate_signatures(build_complete(13, 1)))
        assert not trees

    @pytest.mark.parametrize("g", [
        new_signed_graph(1, []),
        new_signed_graph(2, [(0, 1, -1)]),
        new_signed_graph(5, [(0, 1, 1), (1, 2, -1), (2, 3, -1), (3, 4, 1)]),
    ], ids=["K1", "K2", "P5"])
    def test_tree_of_width_zero_yields_its_underlying_graph(self, g):
        # an empty tree (n = 1) or a tree with no edge off it has one class
        sigs = list(enumerate_signatures(g))
        assert len(sigs) == 1
        assert np.array_equal(sigs[0].adj, np.abs(g.adj))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_signatures_are_their_own_canonical_switch(self, n):
        # the enumerator pins the same spanning tree positive as canonical_switch
        for underlying in enumerate_underlying(n):
            for g in enumerate_signatures(underlying):
                assert canonical_switch(g) == g

    def test_completeness_against_naive_method(self):
        # our (underlying class) x (tree signature) enumeration must produce
        # exactly the signed-graph classes the naive method finds
        for n in (4, 5):
            naive = set()
            for adj in connected_labeled_graphs(n):
                classes = {canonical_switch(g) for g in all_signatures(adj)}
                naive.update(canonical_signed_code(g) for g in classes)
            ours = set()
            for underlying in enumerate_underlying(n):
                for g in enumerate_signatures(underlying):
                    ours.add(canonical_signed_code(g))
            assert ours == naive


class TestClassTable:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_rows_match_the_per_class_helpers(self, n):
        # each row against its code and the definitions: negating non-tree bit
        # b alone must give a graph that is its own canonical switch (the edge
        # is off the tree canonical_switch pins), one distinct edge per bit in
        # row-major order, whose negative triangles are those whose
        # tree_triangle_masks have bit b
        table = whole_class_table(n)
        codes = _connected_class_bitmaps(n)
        assert len(table.adj) == len(codes)
        iu, ju = np.triu_indices(n, 1)
        ti, tj, tk = np.array(list(itertools.combinations(range(n), 3))).T
        for c, code in enumerate(codes):
            adj = table.adj[c]
            assert np.array_equal(adj, adj.T) and not adj.diagonal().any()
            assert np.array_equal(np.packbits(adj[iu, ju]), code)
            edges = int(adj[iu, ju].sum())
            k = int(table.widths[c])
            assert k == edges - n + 1
            bits = np.arange(k, dtype=np.uint64)
            sigs = _signature_stack(table, np.full(k, c), np.uint64(1) << bits, np.int8)
            negated = []
            for a in sigs:
                g = SignedGraph(a)
                assert np.array_equal(np.abs(a), adj) and canonical_switch(g) == g
                negated += [(u, v) for u, v, sign in g.edges() if sign == -1]
            assert negated == sorted(set(negated)) and len(negated) == k
            present = adj[ti, tj] & adj[ti, tk] & adj[tj, tk]
            negative = sigs[:, ti, tj] * sigs[:, ti, tk] * sigs[:, tj, tk] == -1
            masks = np.array(tree_triangle_masks(table, c), dtype=np.uint64)
            assert np.array_equal(negative[:, present], (masks >> bits[:, None]) & 1 == 1)

    def test_rows_rebuilt_in_blocks_equal_the_whole_table(self):
        # the scan's rebuilt rows of any classes, in any order, are the rows
        # of the whole table
        whole = whole_class_table(6)
        codes = _connected_class_bitmaps(6)
        picked = np.array([111, 0, 57, 5, 56])
        part = SEARCH._class_rows(codes[picked], 6)
        for name, a, b in zip(whole._fields, whole, part):
            assert a.dtype == b.dtype and np.array_equal(a[picked], b), name


class TestClassSummary:
    @staticmethod
    def assert_matches_the_full_solve(n, forbidden):
        summary = _class_summary(n, forbidden)
        table = whole_class_table(n)
        span = _table_span(table, forbidden)
        assert np.array_equal(summary.edges, table.adj.sum(axis=(1, 2)) // 2)
        assert np.array_equal(summary.free, span.free)
        assert np.array_equal(summary.consistent, span.consistent)
        # pattern 0 solves a system iff it is consistent with particular 0
        assert np.array_equal(summary.zero, span.consistent & (span.particular == 0))
        everything = np.arange(len(table.adj))
        for unbal in (True, False):
            counts = _feasible_counts(summary, everything, unbal)
            expect = np.where(span.consistent, np.int64(1) << span.free, 0)
            expect -= unbal & span.consistent & (span.particular == 0)
            assert np.array_equal(counts, expect), (forbidden, unbal)
            if n <= 7:
                # and the count of the solutions the full span expands to
                system, _ = _span_patterns(span, everything, unbal)
                assert np.array_equal(counts, np.bincount(system, minlength=len(counts)))

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("forbidden", FORBIDDEN)
    def test_matches_the_full_solve(self, n, forbidden):
        self.assert_matches_the_full_solve(n, forbidden)

    @pytest.mark.slow
    @pytest.mark.parametrize("forbidden", FORBIDDEN)
    def test_matches_the_full_solve_n8(self, forbidden):
        self.assert_matches_the_full_solve(8, forbidden)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, pytest.param(8, marks=pytest.mark.slow)])
    @pytest.mark.parametrize("forbidden", FORBIDDEN)
    def test_summary_is_pinned(self, n, forbidden):
        # independent of _table_span, which shares the summary's elimination
        digests = tuple(hashlib.sha256(a.dtype.str.encode() + a.tobytes()).hexdigest()[:16]
                        for a in _class_summary(n, forbidden))
        assert digests == PINNED_SUMMARIES[n, forbidden]

    def test_blocks_do_not_change_the_summary(self, monkeypatch, fresh_summaries):
        whole = {f: _class_summary(6, f) for f in FORBIDDEN}
        SEARCH._class_summary.cache_clear()
        monkeypatch.setattr(SEARCH, "_TABLE_BLOCK", 5)
        for f, summary in whole.items():
            for name, a, b in zip(summary._fields, summary, _class_summary(6, f)):
                assert a.dtype == b.dtype and np.array_equal(a, b), (f, name)

    def test_summary_builds_no_table_rows(self, monkeypatch, fresh_summaries):
        # the summary reads the class codes alone: no adjacency stack, no
        # spanning tree and no table row
        _connected_class_bitmaps(7)
        calls = collections.Counter()
        for name in ("_codes_to_adj", "_bfs_tree", "_table_block"):
            def spy(*args, name=name, inner=getattr(SEARCH, name)):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(SEARCH, name, spy)
        for forbidden in FORBIDDEN:
            _class_summary(7, forbidden)
        assert not calls
        # the spies count, one tree per row
        SEARCH._class_rows(_connected_class_bitmaps(4), 4)
        assert calls == {"_codes_to_adj": 1, "_bfs_tree": 6, "_table_block": 1}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_counts_match_brute_force_switching_classes(self, n):
        # every class of n, and a relabelled copy of it, whose code is not
        # canonical: the switching classes that avoid the forbidden triangle,
        # found by canonically switching every signature, against the counts
        # of the summary of its code, which no spanning tree enters
        rng = np.random.default_rng(n)
        iu, ju = np.triu_indices(n, 1)
        for adj in _codes_to_adj(_connected_class_bitmaps(n), n):
            perm = rng.permutation(n)
            for a in (adj, adj[np.ix_(perm, perm)]):
                code = np.packbits(a[iu, ju])
                sigs = list(all_signatures(a))
                canon = [canonical_switch(g) for g in sigs]
                has, balanced = forbidden_and_balance_flags(np.array([g.adj for g in sigs]))
                for forbidden in FORBIDDEN:
                    summary = SEARCH._Summary(*SEARCH._summary_block(code[None], n, forbidden))
                    assert summary.edges[0] == a[iu, ju].sum()
                    for unbal in (True, False):
                        ok = ~has[forbidden] & ~(unbal & balanced)
                        brute = len({c for c, keep in zip(canon, ok) if keep})
                        counts = _feasible_counts(summary, np.array([0]), unbal)
                        assert counts.tolist() == [brute], (code.tobytes(), forbidden, unbal)

    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_triangle_system_by_definition(self, n):
        # column c holds the present triangles through cell c, rhs the present
        # triangles under C3_PLUS; NONE has no equations
        codes = _connected_class_bitmaps(n)
        cells = SEARCH._code_cells(codes, n)
        iu, ju = np.triu_indices(n, 1)
        triangles = list(itertools.combinations(range(n), 3))
        for forbidden in FORBIDDEN:
            cols, rhs = SEARCH._triangle_system(cells, n, forbidden)
            assert cols.dtype == rhs.dtype == np.uint64
            assert cols.shape == (len(rhs), len(iu), len(codes))
            for g, adj in enumerate(_codes_to_adj(codes, n)):
                present = [forbidden != "NONE" and bool(adj[i, j] and adj[i, k] and adj[j, k])
                           for i, j, k in triangles]
                words = [sum(1 << (t - 64 * w) for t, p in enumerate(present)
                              if p and t // 64 == w) for w in range(len(rhs))]
                assert rhs[:, g].tolist() == (words if forbidden == "C3_PLUS"
                                              else [0] * len(rhs))
                for c, edge in enumerate(zip(iu.tolist(), ju.tolist())):
                    through = [p and set(edge) <= set(t) for p, t in zip(present, triangles)]
                    assert cols[:, c, g].tolist() == [
                        sum(1 << (t - 64 * w) for t, p in enumerate(through)
                            if p and t // 64 == w) for w in range(len(rhs))]

    def test_summary_is_read_only(self):
        summary = _class_summary(5, "C3_MINUS")
        with pytest.raises(ValueError, match="read-only"):
            summary.free[0] = 0

    def test_memory_stays_below_one_whole_table(self, monkeypatch, fresh_summaries):
        # at most 8 bytes per class are cached, and no whole-n array is built
        # on the way: the traced peak stays below the whole-n triangle system
        n = 7
        codes = _connected_class_bitmaps(n)
        whole = SEARCH._triangle_system(SEARCH._code_cells(codes, n), n, "C3_MINUS")[0].nbytes
        monkeypatch.setattr(SEARCH, "_TABLE_BLOCK", 64)
        tracemalloc.start()
        try:
            summary = _class_summary(n, "C3_MINUS")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(field.nbytes for field in summary) <= 8 * len(codes)
        assert peak < whole


class TestSearch:
    def test_edge_objective_small(self):
        rep = search(SearchConfig(n=5, objective="MAX_EDGES"))
        assert rep.optimum == 7
        assert rep.matched_family == ["gst(1,2)"]

    def test_edge_witness_class_counts(self):
        for n in (4, 5, 6):
            rep = search(SearchConfig(n=n, objective="MAX_EDGES"))
            assert len(rep.witnesses) == (n - 2) // 2

    def test_rho_objective_n4(self):
        rep = search(SearchConfig(n=4, objective="MAX_RHO"))
        assert rep.optimum == pytest.approx(math.sqrt(2), abs=1e-9)
        assert rep.matched_family == ["gst(1,1)"]

    def test_rho_objective_n6(self):
        rep = search(SearchConfig(n=6, objective="MAX_RHO"))
        assert rep.optimum == pytest.approx(3.645751311064591, abs=1e-9)
        assert rep.matched_family == ["gst(1,3)"]

    def test_positive_triangle_forbidden(self):
        # the all-negative complete graph rules this regime
        rep = search(SearchConfig(n=5, objective="MAX_EDGES", forbidden="C3_PLUS"))
        assert rep.optimum == 10
        assert rep.matched_family == ["complete-neg"]

    def test_balanced_allowed(self):
        rep = search(
            SearchConfig(n=5, objective="MAX_EDGES", require_unbalanced=False)
        )
        assert rep.optimum == 10
        assert rep.matched_family == ["complete-pos"]

    @pytest.mark.parametrize("require_unbalanced", [False, True])
    def test_unconstrained_edge_maximum_n6(self, require_unbalanced):
        # every signature of K_6 ties; the witnesses are its switching classes,
        # the 16 two-graphs on 6 vertices (OEIS A002854), less the balanced
        # class (K_6, +) when it is excluded
        rep = search(SearchConfig(n=6, objective="MAX_EDGES", forbidden="NONE",
                                  require_unbalanced=require_unbalanced))
        assert rep.optimum == 15
        assert len(rep.witnesses) == (15 if require_unbalanced else 16)
        expect = [None] * 14 + ["complete-neg"]
        if not require_unbalanced:
            expect.insert(0, "complete-pos")
        assert rep.matched_family == expect

    @staticmethod
    def _brute_optima(graphs):
        # the optimum of every objective in every (forbidden,
        # require_unbalanced) cell over every signature of the connected
        # graphs given; switching keeps triangle signs and balance, so the most
        # negative edges over switchings of the edge maximizers is the most
        # over all admissible graphs with the maximum edge count
        adj = np.array([g.adj for a in graphs for g in all_signatures(a)])
        rho = np.abs(np.linalg.eigvalsh(adj.astype(np.float64))).max(axis=1)
        edges = np.count_nonzero(adj, axis=(1, 2)) // 2
        neg = np.count_nonzero(adj == -1, axis=(1, 2)) // 2
        has, balanced = forbidden_and_balance_flags(adj)
        optima = {}
        for forbidden in ("C3_MINUS", "C3_PLUS", "NONE"):
            for unbal in (True, False):
                ok = ~has[forbidden] & ~(unbal & balanced)
                most = edges[ok].max()
                optima[("MAX_RHO", forbidden, unbal)] = rho[ok].max()
                optima[("MAX_EDGES", forbidden, unbal)] = most
                optima[("MAX_NEG_EDGES_AT_MAX_EDGES", forbidden, unbal)] = (
                    neg[ok & (edges == most)].max())
        return optima

    @pytest.mark.parametrize("n,graphs", [
        pytest.param(4, connected_labeled_graphs, id="4"),
        pytest.param(5, connected_labeled_graphs, id="5"),
        # every labeled graph on 6 vertices is too slow for tier-1; one per
        # isomorphism class carries the same optima, since they are invariants
        pytest.param(6, connected_graphs_up_to_isomorphism, id="6",
                     marks=pytest.mark.slow),
    ])
    def test_optimum_matches_brute_force(self, n, graphs):
        optima = self._brute_optima(graphs(n))
        for (objective, forbidden, unbal), expect in optima.items():
            rep = search(SearchConfig(n=n, objective=objective, forbidden=forbidden,
                                      require_unbalanced=unbal))
            assert rep.optimum == pytest.approx(expect, abs=1e-9), (
                objective, forbidden, unbal)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    @pytest.mark.parametrize("forbidden", ["C3_PLUS", "NONE"])
    @pytest.mark.parametrize("unbal", [True, False])
    def test_rho_optimum_without_c3_minus_is_complete_graph(self, n, forbidden, unbal):
        # the all-negative K_n is unbalanced, has only negative triangles and
        # spectral radius n - 1, the most any graph on n vertices has
        rep = search(SearchConfig(n=n, objective="MAX_RHO", forbidden=forbidden,
                                  require_unbalanced=unbal))
        assert rep.optimum == pytest.approx(n - 1, abs=1e-9)

    @pytest.mark.parametrize("n", [5, 6])
    def test_eigensolver_batches_do_not_change_reports(self, n, monkeypatch):
        # tiny batches cut eigvalsh stacks inside and across classes
        configs = [SearchConfig(n=n, objective="MAX_RHO", forbidden=f,
                                require_unbalanced=u)
                   for f in FORBIDDEN for u in (True, False)]
        expect = [search(c).to_json() for c in configs]
        monkeypatch.setattr(SEARCH, "_EIG_BATCH", 7)
        assert [search(c).to_json() for c in configs] == expect

    def test_repeat_search_builds_trees_only_for_the_rows_it_reaches(
            self, monkeypatch, fresh_summaries):
        # the summary of (n, forbidden) builds no spanning tree, so every
        # search, the first included, builds trees only for the rows its scan
        # reaches: the densest edge count with feasible classes, and for
        # MAX_RHO, in one more call, every count within reach of that count's
        # best
        # the _bfs_tree calls of each _table_block call, one per row
        calls = []
        block, tree = SEARCH._table_block, SEARCH._bfs_tree
        monkeypatch.setattr(SEARCH, "_table_block",
                            lambda adj, width: calls.append(0) or block(adj, width))

        def spy(adj):
            calls[-1] += 1
            return tree(adj)
        monkeypatch.setattr(SEARCH, "_bfs_tree", spy)

        def reached(config, best):
            summary = _class_summary(config.n, config.forbidden)
            feasible = _feasible_counts(summary, slice(None), config.require_unbalanced) > 0
            sizes = collections.Counter(summary.edges[feasible].tolist())
            densest = max(sizes)
            if config.objective == "MAX_EDGES":
                return [sizes[densest]]
            least = _least_edges_in_reach(best)
            return [sizes[densest], sum(k for m, k in sizes.items() if least <= m < densest)]

        config = SearchConfig(n=6, objective="MAX_RHO")
        first = search(config)
        # the densest count of n = 6 holds the optimum, so its best is the one
        # that decides the second call
        assert calls == reached(config, first.optimum)
        assert 0 < calls[1] < sum(calls) < 112
        calls.clear()
        assert search(config).to_json() == first.to_json()
        assert calls == reached(config, first.optimum)
        calls.clear()
        config = SearchConfig(n=6, objective="MAX_EDGES", forbidden="C3_PLUS")
        search(config)
        assert calls == reached(config, None)
        calls.clear()
        search(config)
        assert calls == reached(config, None)

    def test_finalize_runs_one_canonical_form_per_class(self, monkeypatch):
        # all 1,023 tied signatures of K_6 share one class code; the family
        # keys are cached before counting
        _connected_class_bitmaps(6)
        SEARCH._family_keys(6)
        calls = []
        core = sys.modules[canonical_signed_code.__module__]
        original = core.canonical_form

        def counting(adj):
            calls.append(1)
            return original(adj)

        monkeypatch.setattr(core, "canonical_form", counting)
        rep = search(SearchConfig(n=6, objective="MAX_EDGES", forbidden="NONE"))
        assert len(rep.witnesses) == 15
        assert len(calls) == 1
        # sha256 of the report, recorded when every survivor ran its own
        # canonical_signed_code, less the config's removed "workers" key
        assert hashlib.sha256(rep.to_json().encode()).hexdigest() == (
            "b51d7f87a3a60f58f92ed291657cf48797d09eb86124dd2c0e6fd5042a9eef3a")

    def test_neg_edges_objective(self):
        rep = search(SearchConfig(n=6, objective="MAX_NEG_EDGES_AT_MAX_EDGES"))
        assert rep.optimum == 8
        assert all(m == "gst-maxneg" for m in rep.matched_family)

    @pytest.mark.parametrize("n,require_unbalanced", [(6, True), (7, True), (7, False)])
    def test_neg_edges_objective_labels_each_underlying_graph_once(
            self, monkeypatch, n, require_unbalanced):
        # at n = 7 without the unbalanced constraint 35 maximizers share one
        # underlying graph: the target and the maximizers are keyed in one
        # call, which labels each distinct underlying graph once, the
        # target's included, which may be a maximizer's
        calls = []
        core = sys.modules[canonical_signed_code.__module__]
        original, scan = core.canonical_form, SEARCH._scan

        def counting(adj):
            calls.append(1)
            return original(adj)

        def scan_then_count(*args):
            out = scan(*args)
            calls.clear()
            return out

        monkeypatch.setattr(core, "canonical_form", counting)
        monkeypatch.setattr(SEARCH, "_scan", scan_then_count)
        rep = search(SearchConfig(n=n, objective="MAX_NEG_EDGES_AT_MAX_EDGES",
                                  require_unbalanced=require_unbalanced))
        distinct = {w.underlying().adj.tobytes() for w in rep.witnesses}
        target = build_gst_maxneg(n)
        assert len(calls) == len(distinct | {target.underlying().adj.tobytes()})
        if not require_unbalanced:
            assert (len(rep.witnesses), len(distinct)) == (35, 1)
        assert rep.matched_family == ["gst-maxneg" if signed_isomorphic(w, target) else None
                                      for w in rep.witnesses]

    def test_counts_are_exact(self):
        rep = search(SearchConfig(n=4, objective="MAX_EDGES"))
        # 6 classes; signatures = sum over classes of 2^(m-n+1)
        assert rep.counts["underlying_scanned"] == 6
        assert rep.counts["signatures_scanned"] == 18
        assert rep.counts["feasible"] == 1

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            search(SearchConfig(n=3))
        with pytest.raises(ValueError):
            search(SearchConfig(n=5, objective="MIN_EDGES"))
        with pytest.raises(ValueError):
            search(SearchConfig(n=5, forbidden="C5"))
        for n in (6.5, 6.0, np.int64(5), True):
            with pytest.raises(ValueError, match="n must be an int"):
                search(SearchConfig(n=n))
        for flag in ("false", 0):
            with pytest.raises(ValueError, match="require_unbalanced must be a bool"):
                search(SearchConfig(n=5, require_unbalanced=flag))

    def test_witnesses_are_canonical(self):
        rep = search(SearchConfig(n=6, objective="MAX_EDGES"))
        for w in rep.witnesses:
            assert canonical_switch(w) == w


@functools.lru_cache(maxsize=None)
def brute_witness_classes(n):
    """The optimum and the brute_switching_key of every optimal signed graph
    of each (objective, forbidden, require_unbalanced) cell, by brute force
    over every signature of one connected graph per isomorphism class (each
    signed graph on n vertices relabels onto one of them)."""
    adj = np.array([g.adj for a in connected_graphs_up_to_isomorphism(n)
                    for g in all_signatures(a)])
    rho = np.abs(np.linalg.eigvalsh(adj.astype(np.float64))).max(axis=1)
    edges = np.count_nonzero(adj, axis=(1, 2)) // 2
    neg = np.count_nonzero(adj == -1, axis=(1, 2)) // 2
    has, balanced = forbidden_and_balance_flags(adj)
    keys = {}

    iu, ju = np.triu_indices(n, 1)
    spins = np.array(list(itertools.product((1, -1), repeat=n)), dtype=np.int8)
    flips = spins[:, iu] * spins[:, ju]
    weights = 3 ** np.arange(len(iu), dtype=np.int64)

    def classes(rows):
        # brute keys are switching invariants, so each labelled switching
        # class, named by its least base-3 cell row over the 2^n
        # switchings, is keyed once; 1,024 matrices at a time
        least = []
        for part in np.split(rows, range(1024, len(rows), 1024)):
            cells = adj[part][:, iu, ju][:, None, :] * flips
            least += (np.where(cells == -1, 2, cells) @ weights).min(axis=1).tolist()
        for r, name in zip(rows.tolist(), least):
            if name not in keys:
                keys[name] = brute_switching_key(adj[r][None])[0]
        return {keys[name] for name in least}

    out = {}
    for forbidden in FORBIDDEN:
        for unbal in (True, False):
            ok = ~has[forbidden] & ~(unbal & balanced)
            most = edges[ok].max()
            top = rho[ok].max()
            at_most = ok & (edges == most)
            out["MAX_EDGES", forbidden, unbal] = most, classes(np.flatnonzero(at_most))
            out["MAX_RHO", forbidden, unbal] = top, classes(
                np.flatnonzero(ok & (rho >= top - SPECTRAL_SLACK)))
            peak = neg[at_most].max()
            out["MAX_NEG_EDGES_AT_MAX_EDGES", forbidden, unbal] = peak, classes(
                np.flatnonzero(at_most & (neg == peak)))
    return out


class TestWitnessSets:
    @pytest.mark.parametrize("n", [4, 5, pytest.param(6, marks=pytest.mark.slow)])
    def test_witness_classes_match_brute_force(self, n):
        # in every cell the witnesses' switching-isomorphism classes are the
        # optimal ones: MAX_EDGES and MAX_RHO report one witness per class;
        # MAX_NEG_EDGES_AT_MAX_EDGES reports, as documented, every distinct
        # optimal switching of its edge witnesses, several per class in some
        # cells, with no dedupe by class
        several = 0
        for (objective, forbidden, unbal), (optimum, classes) in brute_witness_classes(n).items():
            cell = objective, forbidden, unbal
            rep = search(SearchConfig(n=n, objective=objective, forbidden=forbidden,
                                      require_unbalanced=unbal))
            stack = np.array([w.adj for w in rep.witnesses])
            keys = brute_switching_key(stack)
            assert set(keys) == classes, cell
            assert rep.optimum == pytest.approx(optimum, abs=1e-9), cell
            if objective != "MAX_NEG_EDGES_AT_MAX_EDGES":
                assert len(keys) == len(classes), cell
                continue
            has, balanced = forbidden_and_balance_flags(stack)
            assert not (has[forbidden] | (unbal & balanced)).any(), cell
            assert (np.count_nonzero(stack, axis=(1, 2)) // 2
                    == brute_witness_classes(n)["MAX_EDGES", forbidden, unbal][0]).all(), cell
            assert (np.count_nonzero(stack == -1, axis=(1, 2)) // 2 == optimum).all(), cell
            assert len({a.tobytes() for a in stack}) == len(stack), cell
            several += len(stack) > len(classes)
        assert several


class TestRhoScan:
    @pytest.mark.parametrize("batch", [None, 7], ids=["default-batch", "batch-7"])
    @pytest.mark.parametrize("n", [4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
    def test_matches_the_unpruned_scan(self, n, batch, monkeypatch):
        # tiny batches also cut eigvalsh stacks inside and across classes
        if batch:
            monkeypatch.setattr(SEARCH, "_EIG_BATCH", batch)
        table = whole_class_table(n)
        codes = _connected_class_bitmaps(n)
        for forbidden in FORBIDDEN:
            span = _table_span(table, forbidden)
            for unbal in (True, False):
                config = SearchConfig(n, "MAX_RHO", forbidden, unbal)
                best, rows, classes, system, patterns, _ = SEARCH._scan_classes(
                    config, codes, _class_summary(n, forbidden))
                expect_best, expect_system, expect_patterns = unpruned_rho_scan(
                    table, span, unbal)
                assert best == expect_best, (forbidden, unbal)
                np.testing.assert_array_equal(classes[system], expect_system)
                np.testing.assert_array_equal(patterns, expect_patterns)
                # the rebuilt rows are the whole table's rows of their classes
                for a, b in zip(rows, table):
                    np.testing.assert_array_equal(a, b[classes])

    def test_ties_across_edge_counts_come_back_in_row_order(self):
        # the star K_{1,4} (4 edges) and both signatures of C_5 (5 edges)
        # have spectral radius 2, and the scan solves the denser row first;
        # no class list at n <= 8 has a tie across edge counts
        star = np.zeros((5, 5), dtype=bool)
        star[0, 1:] = star[1:, 0] = True
        cycle = np.roll(np.eye(5, dtype=bool), 1, axis=1)
        adj = np.stack([star, cycle | cycle.T])
        iu, ju = np.triu_indices(5, 1)
        codes = np.packbits(adj[:, iu, ju], axis=1)
        # edge counts, free bits (every pattern solves NONE), consistent, zero
        summary = SEARCH._Summary(np.array([4, 5], dtype=np.uint8),
                                  np.array([0, 1], dtype=np.uint8),
                                  np.ones(2, dtype=bool), np.ones(2, dtype=bool))
        config = SearchConfig(5, "MAX_RHO", "NONE", False)
        best, rows, classes, system, patterns, _ = SEARCH._scan_classes(config, codes, summary)
        assert best == pytest.approx(2, abs=1e-9)
        # the denser C_5 is rebuilt and solved first, as row 0
        assert classes.tolist() == [1, 0] and np.array_equal(rows.adj, adj[::-1])
        assert classes[system].tolist() == [0, 1, 1] and patterns.tolist() == [0, 0, 1]
        table = SEARCH._ClassTable(*SEARCH._table_block(adj, 1))
        span = _table_span(table, "NONE")
        expect_best, expect_system, expect_patterns = unpruned_rho_scan(table, span, False)
        assert best == expect_best
        assert classes[system].tolist() == expect_system.tolist()
        assert patterns.tolist() == expect_patterns.tolist()

    def test_exact_cutoff_decides_as_the_float_rule(self, monkeypatch):
        # every best that the MAX_RHO scans at n <= 8 reach, against every
        # edge count of n; at n = 8 NONE would eigensolve all 2^21
        # signatures of K_8, and its best is rho(K_8) = 7
        exact = SEARCH._least_edges_in_reach
        for n in range(4, 9):
            bests = {float(n - 1)}
            monkeypatch.setattr(SEARCH, "_least_edges_in_reach",
                                lambda best: bests.add(best) or exact(best))
            for forbidden in FORBIDDEN[:2] if n == 8 else FORBIDDEN:
                for unbal in (True, False):
                    bests.add(search(SearchConfig(n, "MAX_RHO", forbidden, unbal)).optimum)
            for best in bests:
                for m in range(n - 1, n * (n - 1) // 2 + 1):
                    float_rule = (math.sqrt(1 + 8 * m) - 1) / 2 < best - 2 * SPECTRAL_SLACK
                    assert (m < exact(best)) == float_rule, (n, m, best)

    @pytest.mark.parametrize("t", [3, 6, 7, 1000, 2 ** 20])
    def test_triangular_edge_count_at_the_bound_is_not_cut(self, t, monkeypatch):
        # m = t(t + 1) / 2 puts Stanley's bound at exactly t: with no slack a
        # best of t keeps m within reach, and the next float above t cuts m
        # but not m + 1
        monkeypatch.setattr(SEARCH, "SPECTRAL_SLACK", 0.0)
        m = t * (t + 1) // 2
        assert _least_edges_in_reach(float(t)) == m
        assert _least_edges_in_reach(float(np.nextafter(float(t), math.inf))) == m + 1
        assert _least_edges_in_reach(-1.0) == _least_edges_in_reach(-0.5) == 0

    @pytest.mark.parametrize("forbidden,unbal,expect", [
        ("C3_MINUS", True, 40),
        ("C3_MINUS", False, 1),
        ("C3_PLUS", True, 1),
        ("C3_PLUS", False, 1),
        # every signature of K_7, the only class with 21 edges
        ("NONE", True, 32767),
        ("NONE", False, 32768),
    ])
    def test_eigensolves_at_n7_are_pinned(self, forbidden, unbal, expect, monkeypatch):
        # the reports cannot tell a scan stopped by the edge-count bound from
        # one that eigensolves all 1,116 to 192,817 feasible signatures
        solved = self._count_eigensolves(monkeypatch)
        search(SearchConfig(n=7, objective="MAX_RHO", forbidden=forbidden,
                            require_unbalanced=unbal))
        assert sum(solved) == expect

    @pytest.mark.slow
    def test_eigensolves_of_t1_3_at_n8_are_pinned(self, monkeypatch):
        solved = self._count_eigensolves(monkeypatch)
        rep = verify_theorem("T1_3", 8)
        assert rep.details["counts"]["feasible"] == 24841
        assert sum(solved) == 51

    @staticmethod
    def _count_eigensolves(monkeypatch) -> list[int]:
        solved = []
        rho_values = SEARCH._rho_values

        def counting(table, system, patterns):
            solved.append(len(system))
            return rho_values(table, system, patterns)

        monkeypatch.setattr(SEARCH, "_rho_values", counting)
        return solved


class TestTrustedGraphs:
    """The search wraps the matrices it builds itself without the public
    checks; they are still int8, read-only and accepted by those checks."""

    @staticmethod
    def assert_valid(graphs):
        assert graphs
        for g in graphs:
            assert g.adj.dtype == np.int8 and not g.adj.flags.writeable
            assert SignedGraph(g.adj) == g

    def test_enumerations(self):
        self.assert_valid(list(enumerate_underlying(5)))
        self.assert_valid(list(enumerate_signatures(build_gst(1, 3))))

    def test_maxima_and_witnesses(self):
        self.assert_valid(switching_neg_edge_maximum(build_gst(1, 4))[1])
        for objective in ("MAX_EDGES", "MAX_RHO", "MAX_NEG_EDGES_AT_MAX_EDGES"):
            self.assert_valid(search(SearchConfig(n=5, objective=objective)).witnesses)

    @pytest.mark.parametrize("name,n", [("T1_2_NEG", 10), ("L2_2", 5)])
    def test_verifier_witnesses(self, name, n):
        self.assert_valid([verify_theorem(name, n).witness])


class TestSwitchingNegMaximum:
    def test_matches_direct_scan(self):
        g = build_gst(2, 3)
        best, maxs = switching_neg_edge_maximum(g)
        # independent scan: every switching, by the cut rule
        switched = [brute_switch(g, [v for v in range(g.n) if (bits >> v) & 1])
                    for bits in range(1 << g.n)]
        assert best == max(h.neg_edge_count for h in switched)
        attaining = {h.adj.tobytes() for h in switched if h.neg_edge_count == best}
        # complete, without duplicates, sorted by sign matrix bytes
        assert [m.adj.tobytes() for m in maxs] == sorted(attaining)
        for m in maxs:
            assert switching_equivalent(m, g)

    def test_matches_per_mask_reference(self):
        graphs = [g for n in range(1, 5) for g in all_labeled_signed_graphs(n)]
        graphs += [g for n in range(5, 9) for g in seeded_signed_graphs(100 + n, n, 16)]
        for n in range(3, 9):
            graphs += [build_complete(n, 1), build_complete(n, -1),
                       build_kn_switched_maxneg(n)]
        graphs += [build_gst(s, n - 2 - s) for n in range(4, 13)
                   for s in range(1, (n - 2) // 2 + 1)]
        for g in graphs:
            best, maxs = switching_neg_edge_maximum(g)
            ref_best, ref_maxs = per_mask_neg_edge_maximum(g)
            assert best == ref_best
            assert maxs == ref_maxs

    @pytest.mark.parametrize("n", range(1, 17))
    def test_peak_vectors_count_the_peak_masks(self, n):
        # the 2^n mask counts decide the peak; its count vectors are exactly
        # how many vertices of each signed-twin class the peak masks switch.
        # Odd n splits the grid unevenly, at n = 1 one run is empty, and the
        # planted twins give classes of two and more
        graphs = list(seeded_signed_graphs(200 + n, n, 3))
        if 3 <= n <= 10:
            graphs += planted_twin_graphs(400 + n, n, 2)
        for g in graphs:
            classes, sizes, signs = _twin_quotient(g.adj)
            counts = all_mask_neg_counts(g.adj)
            top, vectors = _switching_peak(sizes, signs)
            assert top == counts.max()
            bits = (np.flatnonzero(counts == top)[:, None] >> np.arange(n)) & 1
            peak = np.stack([bits[:, c].sum(1) for c in classes], axis=1)
            assert sorted(map(tuple, vectors.tolist())) == sorted(set(map(tuple, peak.tolist())))
            assert switching_neg_edge_maximum(g) == per_mask_neg_edge_maximum(g)

    def test_quotient_matches_the_definition(self):
        # inner signs on the diagonal, 0 for a class of one vertex
        classes, sizes, signs = _twin_quotient(build_gst(2, 3).adj)
        assert classes == [[0], [1], [2, 3], [4, 5, 6]]
        assert sizes.tolist() == [1, 1, 2, 3]
        assert signs.tolist() == [[0, -1, 1, 0], [-1, 0, 0, 1], [1, 0, 1, 1], [0, 1, 1, 1]]
        assert np.array_equal(signs, SEARCH._GST_SIGNS)
        for g in planted_twin_graphs(7, 7, 4):
            classes, sizes, signs = _twin_quotient(g.adj)
            for (i, a), (j, b) in itertools.product(enumerate(classes), repeat=2):
                cells = {int(g.adj[u, v]) for u in a for v in b if u != v}
                assert cells <= {int(signs[i, j])} and (cells or sizes[i] == 1)

    def test_work_caps_are_checked_before_allocating(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("grid built")

        def no_matrices(*args):
            raise AssertionError("matrices built")

        def path(n):
            return new_signed_graph(n, [(v, v + 1, 1) for v in range(n - 1)])

        # a twin-free path: 2^21 count vectors are refused, 2^20 reach the grid
        monkeypatch.setattr(sys.modules[canonical_signed_code.__module__], "_count_grid", no_grid)
        with pytest.raises(ValueError, match="capped at 1048576 count vectors, got 2097152"):
            switching_neg_edge_maximum(path(21))
        with pytest.raises(AssertionError, match="grid built"):
            switching_neg_edge_maximum(path(20))
        monkeypatch.undo()
        # 22 count vectors of 21 edgeless twins, all at the peak: 2^21 switchings
        monkeypatch.setattr(SEARCH, "_switched_matrices", no_matrices)
        with pytest.raises(ValueError, match="capped at 1048576 switchings at the peak"):
            switching_neg_edge_maximum(new_signed_graph(21, []))
        with pytest.raises(AssertionError, match="matrices built"):
            switching_neg_edge_maximum(new_signed_graph(20, []))

    def test_no_cap_on_the_vertex_count(self):
        # gst(199, 200) on 401 vertices has four classes and 160,800 count
        # vectors; its one maximizer is the layout of T1_2_NEG
        best, maxs = switching_neg_edge_maximum(build_gst(199, 200))
        assert best == neg_edge_bound(401) and maxs == [build_gst_maxneg(401)]

    def test_a_large_class_switched_in_part(self):
        # a positive K_30 joined negatively to 28 independent vertices: each
        # of the 30 switchings of one clique vertex gains 29 - 28 edges, so
        # the peak splits a class of 30 twins into 1 and 29
        clique, other = range(30), range(30, 58)
        g = new_signed_graph(58, [(u, v, 1) for u, v in itertools.combinations(clique, 2)]
                             + [(u, v, -1) for u in clique for v in other])
        best, maxs = switching_neg_edge_maximum(g)
        assert best == 30 * 28 + 1
        assert maxs == sorted((switch(g, [u]) for u in clique), key=lambda h: h.adj.tobytes())

    def test_peak_memory_per_count_vector(self):
        # a twin-free graph on 16 vertices: one float64 table of 2^16 values
        # and count grids of 2^8 rows, so at most 16 bytes per count vector
        g = new_signed_graph(16, [(v, v + 1, 1) for v in range(15)])
        sizes, signs = _twin_quotient(g.adj)[1:]
        assert len(sizes) == 16
        _switching_peak(sizes, signs)
        tracemalloc.start()
        try:
            _switching_peak(sizes, signs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 << 16


def merged_neg_edge_maximizers(graphs):
    """The per-mask maxima of graphs, merged over the graphs at the peak."""
    results = [per_mask_neg_edge_maximum(g) for g in graphs]
    best = max(peak for peak, _ in results)
    merged = {m.adj.tobytes(): m for peak, maxs in results if peak == best for m in maxs}
    return best, [merged[k] for k in sorted(merged)]


class TestNegEdgeMaximizers:
    @staticmethod
    def mixed_peaks():
        # peaks 7, 9, 8, 9, 9, then 3 to 8: K_6 and its switching share
        # their maximizers, which the merge keeps once, and K_3,3 adds its own
        k33 = new_signed_graph(6, [(u, v, 1) for u in range(3) for v in range(3, 6)])
        return [build_gst(1, 3), build_complete(6, 1), build_gst(2, 2),
                build_kn_switched_maxneg(6), k33, *seeded_signed_graphs(61, 6, 8)]

    @staticmethod
    def stacked_maximizers(graphs):
        # the kernel takes and returns int8 stacks; the oracle returns graphs
        best, stack = _neg_edge_maximizers(np.stack([g.adj for g in graphs]))
        assert stack.dtype == np.int8 and stack.shape[1:] == graphs[0].adj.shape
        return best, [SignedGraph(a) for a in stack]

    def test_gst_splits_match_the_per_mask_merge(self):
        splits = [build_gst(s, 6 - s) for s in (1, 2, 3)]
        assert self.stacked_maximizers(splits) == merged_neg_edge_maximizers(splits)

    def test_mixed_peaks_match_the_per_mask_merge(self):
        graphs = self.mixed_peaks()
        peaks = [per_mask_neg_edge_maximum(g)[0] for g in graphs]
        assert len(set(peaks)) > 2 and peaks.count(max(peaks)) > 1
        assert self.stacked_maximizers(graphs) == merged_neg_edge_maximizers(graphs)

    def test_each_graph_is_counted_once(self, monkeypatch):
        quotients, counted = [], []
        twin_quotient, switching_peak = SEARCH._twin_quotient, SEARCH._switching_peak

        def quotient(adj):
            quotients.append(adj.tobytes())
            return twin_quotient(adj)

        def counting(sizes, signs):
            counted.append(len(sizes))
            return switching_peak(sizes, signs)

        monkeypatch.setattr(SEARCH, "_twin_quotient", quotient)
        monkeypatch.setattr(SEARCH, "_switching_peak", counting)
        graphs = self.mixed_peaks()
        self.stacked_maximizers(graphs)
        assert quotients == [g.adj.tobytes() for g in graphs]
        assert counted == [len(twin_quotient(g.adj)[0]) for g in graphs]

    @pytest.mark.parametrize("n", [17, 21])
    def test_t1_2_neg_past_sixteen(self, n, monkeypatch):
        # odd n beyond the old 2^n kernel's range; a bound off by one either
        # way fails, and the report still states the observed peak
        rep = verify_theorem("T1_2_NEG", n)
        assert rep.passed and rep.observed == neg_edge_bound(n)
        assert np.array_equal(rep.witness.adj, build_gst_maxneg(n).adj)
        for off in (1, -1):
            monkeypatch.setattr(SEARCH, "neg_edge_bound", lambda n, off=off: neg_edge_bound(n) + off)
            rep = verify_theorem("T1_2_NEG", n)
            assert rep.observed == neg_edge_bound(n) and not rep.passed

    def test_t1_2_neg_at_large_n_never_stacks_the_splits(self):
        # one split's float64 table at a time, about 8 n^2 bytes at the middle
        # split, and no n x n matrix but the maximizer's: a stack of the 199
        # splits would take 199 n^2
        n = 400
        verify_theorem("T1_2_NEG", n)
        tracemalloc.start()
        try:
            rep = verify_theorem("T1_2_NEG", n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed and rep.details["splits"] == 199
        assert peak < 16 * n * n

    def test_t1_2_neg_fails_when_the_maximizer_is_not_the_layout(self, monkeypatch):
        # a switched copy is switching equivalent to the layout, but not the
        # labelled graph that the splits attain
        layout = SEARCH.build_gst_maxneg
        monkeypatch.setattr(SEARCH, "build_gst_maxneg", lambda n: switch(layout(n), [0]))
        rep = verify_theorem("T1_2_NEG", 12)
        assert rep.observed == 35 and rep.satisfied
        assert not rep.passed


class TestGF2Solutions:
    def test_matches_brute_force(self):
        # every class at n = 4, 5 and K_6: the switching classes that avoid the
        # forbidden triangle, found by canonically switching every signature,
        # are exactly the graphs built from the GF(2) solutions of the one-row
        # table of the class
        classes = [g.adj.astype(bool) for n in (4, 5) for g in enumerate_underlying(n)]
        classes.append(np.abs(build_complete(6, 1).adj).astype(bool))
        row = np.zeros(1, dtype=np.intp)
        for adj in classes:
            sigs = list(all_signatures(adj))
            canon = [canonical_switch(g) for g in sigs]
            has, balanced = forbidden_and_balance_flags(np.array([g.adj for g in sigs]))
            table = _graph_table(adj)
            for forbidden in FORBIDDEN:
                span = _table_span(table, forbidden)
                for unbal in (True, False):
                    system, pats = _span_patterns(span, row, unbal)
                    assert pats.dtype == np.uint64
                    assert np.all(pats[1:] > pats[:-1])
                    ok = ~has[forbidden] & ~(unbal & balanced)
                    brute = {c for c, keep in zip(canon, ok) if keep}
                    ours = [SignedGraph(a) for a in
                            _signature_stack(table, system, pats, np.int8)]
                    assert set(ours) == brute, (forbidden, unbal)
                    assert len(ours) == len(brute)

    def test_column_elimination_matches_row_loop_on_random_stacks(self):
        # stacked systems of widths 0 to 12, with variables in no equation,
        # inconsistent right-hand sides, and up to 200 equations, the first
        # 64 or 128 of them zero at times, so that pivots land in later words
        rng = np.random.default_rng(11)
        deepest = 0
        for equations in (0, 5, 70, 140, 200):
            widths = rng.integers(0, 13, size=24)
            widths[:2] = 0
            words = max(-(-equations // 64), 1)
            cols = np.zeros((words, widths.max(), len(widths)), dtype=np.uint64)
            rhs = np.zeros((words, len(widths)), dtype=np.uint64)
            systems = []
            for s, width in enumerate(widths.tolist()):
                unused = int(rng.integers(0, 1 << width))
                base = [int(rng.integers(0, 1 << width)) & ~unused
                        for _ in range(int(rng.integers(0, width + 2)))]
                solution = int(rng.integers(0, 1 << width))
                skip = 64 * int(rng.integers(0, 3))
                rows = []
                for e in range(equations):
                    if e < skip or not base:
                        rows.append(0)
                        continue
                    row = 0
                    for b in base:
                        row ^= b * int(rng.integers(0, 2))
                    # the rhs bit, at bit `width`: consistent with `solution`
                    # for half the systems, random for the rest
                    odd = (bin(row & solution).count("1") & 1 if s % 2
                           else int(rng.integers(0, 2)))
                    rows.append(row | odd << width)
                for e, row in enumerate(rows):
                    one = np.uint64(1) << np.uint64(e % 64)
                    for j in range(width + 1):
                        if row >> j & 1:
                            if j < width:
                                cols[e // 64, j, s] |= one
                            else:
                                rhs[e // 64, s] |= one
                systems.append(rows)
            span = SEARCH._gf2_solve(cols.copy(), rhs.copy(), widths)
            for s, (rows, width) in enumerate(zip(systems, widths.tolist())):
                ref = row_loop_gf2_solutions(rows, width, False)
                assert span.consistent[s] == (len(ref) > 0)
                if len(ref):
                    assert len(ref) == 1 << span.free[s]
                    assert not span.basis[s, span.free[s]:].any()
                system, pats = _span_patterns(span, np.array([s]), False)
                assert pats.tolist() == ref.tolist() and (system == s).all()
            # the kernel alone: a column left nonzero keeps its pivot, its
            # lowest bit, in word `first`
            SEARCH._gf2_columns(cols, rhs, words)
            left = cols.any(axis=0)
            first = (cols != 0).argmax(axis=0)
            deepest = max(deepest, int(first[left].max(initial=0)))
        assert deepest == 2

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_stacked_elimination_matches_row_loop(self, n):
        # every class, each forbidden triangle, with and without pattern 0;
        # the one-row table of each class must give the same solutions
        table = whole_class_table(n)
        everything = np.arange(len(table.adj))
        row = np.zeros(1, dtype=np.intp)
        for forbidden in FORBIDDEN:
            span = _table_span(table, forbidden)
            summary = _class_summary(n, forbidden)
            alone = [_table_span(_graph_table(adj), forbidden) for adj in table.adj]
            for unbal in (True, False):
                expect = []
                for c in everything:
                    masks = tree_triangle_masks(table, c)
                    ref = row_loop_gf2_solutions(masks if forbidden != "NONE" else [],
                                                 int(table.widths[c]), forbidden == "C3_PLUS")
                    ref = ref[ref != 0] if unbal else ref
                    system, pats = _span_patterns(span, np.array([c]), unbal)
                    assert pats.tolist() == ref.tolist() and (system == c).all()
                    assert _span_patterns(alone[c], row, unbal)[1].tolist() == ref.tolist()
                    assert _feasible_counts(summary, np.array([c]), unbal)[0] == len(ref)
                    expect += [(c, p) for p in ref.tolist()]
                system, pats = _span_patterns(span, everything, unbal)
                assert list(zip(system.tolist(), pats.tolist())) == expect

    @pytest.mark.parametrize("n", range(3, 13))
    def test_complete_graphs_match_row_loop(self, n):
        table = _graph_table(~np.eye(n, dtype=bool))
        width = n * (n - 1) // 2 - n + 1
        assert table.widths[0] == width
        row = np.zeros(1, dtype=np.intp)
        for forbidden in FORBIDDEN:
            span = _table_span(table, forbidden)
            args = (tree_triangle_masks(table, 0) if forbidden != "NONE" else [], width,
                    forbidden == "C3_PLUS")
            if forbidden == "NONE" and width > 21:
                with pytest.raises(ValueError, match="too large"):
                    _span_patterns(span, row, False)
                with pytest.raises(ValueError, match="too large"):
                    row_loop_gf2_solutions(*args)
                continue
            system, pats = _span_patterns(span, row, False)
            assert np.array_equal(pats, row_loop_gf2_solutions(*args))
            if forbidden != "NONE":
                # by definition, no solution has a triangle of the forbidden sign
                has, _ = forbidden_and_balance_flags(
                    _signature_stack(table, system, pats, np.int8))
                assert not has[forbidden].any()

    def test_complete_signature_classes(self):
        classes = _complete_signature_classes(5, "C3_MINUS")
        assert classes.dtype == np.int8 and classes.shape == (1, 5, 5)
        assert switching_equivalent(SignedGraph(classes[0]), build_complete(5, 1))
        classes = _complete_signature_classes(5, "C3_PLUS")
        assert classes.dtype == np.int8 and classes.shape == (1, 5, 5)
        assert switching_equivalent(SignedGraph(classes[0]), build_complete(5, -1))


class TestVerifyTheorem:
    def test_t1_1(self):
        for n in (3, 4, 5):
            assert verify_theorem("T1_1", n).passed

    def test_t1_2_edges(self):
        rep = verify_theorem("T1_2_EDGES", 6)
        assert rep.passed and rep.observed == 11

    def test_t1_2_neg_enumerative(self):
        rep = verify_theorem("T1_2_NEG", 5)
        assert rep.passed and rep.observed == 5

    def test_t1_2_neg_construction_mode(self):
        rep = verify_theorem("T1_2_NEG", 12)
        assert rep.passed and rep.observed == 35

    def test_t1_2_neg_details(self):
        rep = verify_theorem("T1_2_NEG", 6)
        assert rep.details["matched_family"] == ["gst-maxneg"]
        assert rep.details["counts"]["underlying_scanned"] == 112
        # gst(1,9), gst(2,8), ..., gst(5,5), each switched every way
        rep = verify_theorem("T1_2_NEG", 12)
        assert rep.details == {"splits": 5, "switchings": 5 << 12, "maximizers": 1}

    def test_t1_3(self):
        rep = verify_theorem("t1_3", 5)
        assert rep.passed
        assert rep.observed == pytest.approx(rho_bound(5), abs=1e-9)

    def test_l2_2(self):
        rep = verify_theorem("L2_2", 5)
        assert rep.passed and rep.observed == 6

    def test_l2_2_details(self):
        rep = verify_theorem("L2_2", 5)
        assert rep.details == {"classes": 1, "maximizers": 10}
        assert rep.notes == "1 negative-triangle-free switching classes, 10 maximizers"

    def test_l2_2_keys_no_matrix(self, monkeypatch):
        # the balance test alone decides the verdict, so no switching key is
        # computed, neither in search nor through core's public keys
        core = sys.modules[canonical_signed_code.__module__]
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)

        monkeypatch.setattr(core, "_signed_keys", spy)
        monkeypatch.setattr(SEARCH, "_signed_keys", spy)
        for n in range(3, 13):
            assert verify_theorem("L2_2", n).passed
        assert not calls

    @pytest.mark.parametrize("n", range(3, 13))
    def test_l2_2_winners_key_like_the_halved_kn(self, n):
        # the balance test of _verify_l2_2 checked by switching isomorphism:
        # every maximizer keys like build_kn_switched_maxneg(n), in one call
        core = sys.modules[canonical_signed_code.__module__]
        best, winners = SEARCH._neg_edge_maximizers(
            SEARCH._complete_signature_classes(n, "C3_MINUS"))
        target, *keys = core._signed_keys(
            np.concatenate([build_kn_switched_maxneg(n).adj[None], winners]), switched=True)
        assert best == (n // 2) * ((n + 1) // 2)
        assert len(keys) == math.comb(n, n // 2) // (2 if n % 2 == 0 else 1)
        assert all(key == target for key in keys)

    def test_l2_2_fails_on_an_unbalanced_maximizer(self, monkeypatch):
        # no canonical code cross-checks the winners, so the balance test
        # alone must reject an unbalanced K_n at the peak, at n = 6 and 8:
        # one cross edge of the halving made positive and one inner edge
        # negative keeps the count, 9 and 16, and two edges are no cut of K_n
        maximizers = SEARCH._neg_edge_maximizers
        for n in (6, 8):
            a = build_kn_switched_maxneg(n).adj.copy()
            (u, v), (x, y) = np.argwhere(a < 0)[0], np.argwhere(a > 0)[0]
            a[u, v] = a[v, u] = 1
            a[x, y] = a[y, x] = -1
            odd = SignedGraph(a)
            assert odd.neg_edge_count == (n // 2) ** 2 and not is_balanced(odd)

            def with_odd(adj, odd=odd):
                best, winners = maximizers(adj)
                return best, np.concatenate([winners, odd.adj[None]])

            assert verify_theorem("L2_2", n).passed
            monkeypatch.setattr(SEARCH, "_neg_edge_maximizers", with_odd)
            rep = verify_theorem("L2_2", n)
            assert rep.observed == rep.bound_value == (n // 2) ** 2 and rep.satisfied
            assert not rep.passed
            monkeypatch.setattr(SEARCH, "_neg_edge_maximizers", maximizers)

    def test_l2_2_largest_order(self):
        # K_12 has 55 non-tree edges, past the 32 bits of the class tables
        rep = verify_theorem("L2_2", 12)
        assert rep.passed and rep.observed == 36

    def test_l3_6_order(self):
        rep = verify_theorem("L3_6_ORDER", 10)
        assert rep.passed

    def test_l3_6_order_details(self):
        rep = verify_theorem("L3_6_ORDER", 10)
        lams = rep.details["top_eigenvalues"]
        assert len(lams) == 4 and lams[0] == rep.observed
        assert rep.notes == "descending top eigenvalues: " + ", ".join(
            f"{v:.12g}" for v in lams)

    @pytest.mark.parametrize("name", THEOREMS)
    def test_each_verifier_builds_its_report_whole_at_its_least_order(self, name):
        rep = verify_theorem(name, SEARCH._VERIFIERS[name][0])
        assert rep.details and rep.notes and rep.passed is not None
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.passed = not rep.passed

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown theorem"):
            verify_theorem("T9_9", 5)

    @pytest.mark.parametrize("n", [5.0, np.int64(5)], ids=["float", "int64"])
    @pytest.mark.parametrize("name", THEOREMS)
    def test_non_int_n_rejected(self, name, n):
        with pytest.raises(ValueError, match="n must be an int"):
            verify_theorem(name, n)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            verify_theorem("L3_6_ORDER", 41)
        with pytest.raises(ValueError):
            verify_theorem("T1_2_NEG", 1001)

    @pytest.mark.parametrize("side", ["below", "above"])
    @pytest.mark.parametrize("name,lo,hi", [
        ("T1_1", 3, 8), ("T1_2_EDGES", 4, 8), ("T1_2_NEG", 4, 1000), ("T1_3", 4, 8),
        ("L2_2", 3, 12), ("L3_6_ORDER", 5, 40)])
    def test_each_verifier_refuses_the_orders_next_to_its_range(self, name, lo, hi, side):
        with pytest.raises(ValueError) as refused:
            verify_theorem(name, lo - 1 if side == "below" else hi + 1)
        assert str(refused.value) == f"{name} verification supports {lo} <= n <= {hi}"
