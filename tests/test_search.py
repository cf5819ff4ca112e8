import hashlib
import itertools
import json
import math
import os

import numpy as np
import pytest

from signed_extremal.bounds import rho_bound
from signed_extremal.core import (
    canonical_signed_code,
    canonical_switch,
    is_balanced,
    is_connected,
    new_signed_graph,
    switching_equivalent,
)
from signed_extremal.families import build_complete, build_gst, build_gst_maxneg
from signed_extremal.search import (
    SearchConfig,
    SearchTimeout,
    _bfs_nontree_edges,
    _canonical_children,
    _complete_signature_classes,
    _connected_class_bitmaps,
    _feasible_patterns,
    _gf2_affine_solutions,
    _triangle_masks,
    enumerate_signatures,
    enumerate_underlying,
    search,
    switching_neg_edge_maximum,
    verify_theorem,
)

from _oracles import all_signatures, connected_labeled_graphs, graphs_isomorphic

# class count and sha256 of the comma-joined sorted canonical codes, recorded
# from the enumerator that canonicalized every attachment of every smaller
# class; canonical augmentation must reproduce them exactly
PINNED_CLASS_CODES = {
    4: (6, "2616ba19de6bbfb8edbe3ae6a6625078b947668cd3273569d50a58c3bf6f0c2b"),
    5: (21, "4207e04809af7de40870bc26c3b3505acbbd306fb1946049b270926136d44085"),
    6: (112, "1696f1cbed93aee140ee101d74477966c3b8ee0b76f0569d796739c0fe60f260"),
    7: (853, "445bff1262eee9d2e95df7cbaf4085403530a5a43aafa9a28d097aa150aa96a8"),
}


def codes_digest(codes) -> str:
    return hashlib.sha256(",".join(map(str, codes)).encode()).hexdigest()


class TestEnumerateUnderlying:
    @pytest.mark.parametrize("n,expect", [(4, 6), (5, 21), (6, 112)])
    def test_class_counts(self, n, expect):
        assert sum(1 for _ in enumerate_underlying(n)) == expect

    @pytest.mark.parametrize("n", sorted(PINNED_CLASS_CODES))
    def test_class_codes_are_pinned(self, n):
        count, digest = PINNED_CLASS_CODES[n]
        codes = _connected_class_bitmaps(n)
        assert len(codes) == count
        assert codes_digest(codes) == digest

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_augmentation_emits_each_class_once(self, n):
        children = _canonical_children(n)
        assert len(children) == len(set(children))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            list(enumerate_underlying(3))
        with pytest.raises(ValueError):
            list(enumerate_underlying(9))

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
        with pytest.raises(ValueError):
            list(enumerate_signatures(new_signed_graph(3, [(0, 1, 1)])))

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

    @staticmethod
    def _results(rep):
        return (rep.optimum, rep.witnesses, rep.matched_family, rep.counts)

    def test_worker_count_does_not_change_results(self):
        reports = [
            self._results(search(SearchConfig(n=5, objective="MAX_RHO", workers=w)))
            for w in (1, 2, 8)
        ]
        assert reports[0] == reports[1] == reports[2]

    @staticmethod
    def _brute_rho_optima(n):
        # largest spectral radius in every (forbidden, require_unbalanced)
        # cell over all labeled connected signed graphs on n vertices
        adj = np.array([g.adj for a in connected_labeled_graphs(n)
                        for g in all_signatures(a)])
        rho = np.abs(np.linalg.eigvalsh(adj.astype(np.float64))).max(axis=1)
        tri = np.array([adj[:, i, j] * adj[:, j, k] * adj[:, i, k]
                        for i, j, k in itertools.combinations(range(n), 3)])
        has = {"C3_MINUS": (tri == -1).any(axis=0),
               "C3_PLUS": (tri == 1).any(axis=0),
               "NONE": np.zeros(len(adj), dtype=bool)}
        balanced = np.zeros(len(adj), dtype=bool)
        for bits in range(1 << n):
            spin = np.array([-1 if (bits >> v) & 1 else 1 for v in range(n)])
            balanced |= (adj * np.outer(spin, spin) >= 0).all(axis=(1, 2))
        return {
            (forbidden, unbal): rho[~has[forbidden] & ~(unbal & balanced)].max()
            for forbidden in ("C3_MINUS", "C3_PLUS", "NONE")
            for unbal in (True, False)
        }

    @pytest.mark.parametrize("n", [4, 5])
    def test_rho_optimum_matches_brute_force(self, n):
        for (forbidden, unbal), expect in self._brute_rho_optima(n).items():
            rep = search(SearchConfig(n=n, objective="MAX_RHO", forbidden=forbidden,
                                      require_unbalanced=unbal))
            assert rep.optimum == pytest.approx(expect, abs=1e-9), (forbidden, unbal)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    @pytest.mark.parametrize("forbidden", ["C3_PLUS", "NONE"])
    @pytest.mark.parametrize("unbal", [True, False])
    def test_rho_optimum_without_c3_minus_is_complete_graph(self, n, forbidden, unbal):
        # the all-negative K_n is unbalanced, has only negative triangles and
        # spectral radius n - 1, the most any graph on n vertices has
        rep = search(SearchConfig(n=n, objective="MAX_RHO", forbidden=forbidden,
                                  require_unbalanced=unbal))
        assert rep.optimum == pytest.approx(n - 1, abs=1e-9)

    def test_neg_edges_objective(self):
        rep = search(SearchConfig(n=6, objective="MAX_NEG_EDGES_AT_MAX_EDGES"))
        assert rep.optimum == 8
        assert all(m == "gst-maxneg" for m in rep.matched_family)

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
        with pytest.raises(ValueError):
            search(SearchConfig(n=5, require_connected=False))
        with pytest.raises(ValueError):
            search(SearchConfig(n=5, workers=0))

    def test_witnesses_are_canonical(self):
        rep = search(SearchConfig(n=6, objective="MAX_EDGES"))
        for w in rep.witnesses:
            assert canonical_switch(w) == w

    def test_timeout_carries_partial_report(self):
        with pytest.raises(SearchTimeout) as err:
            search(SearchConfig(n=6, objective="MAX_EDGES"), time_budget=0.0)
        assert err.value.partial.counts["underlying_scanned"] > 0


class TestCheckpoint:
    def test_resume_equals_fresh_run(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        fresh = search(SearchConfig(n=5, objective="MAX_RHO"))
        resumed = search(SearchConfig(n=5, objective="MAX_RHO"), checkpoint=path)
        assert fresh.to_json() == resumed.to_json()
        assert not os.path.exists(path)

    def test_partial_then_resume(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        config = SearchConfig(n=6, objective="MAX_EDGES")
        try:
            search(config, checkpoint=path, time_budget=0.0)
        except SearchTimeout:
            pass
        assert os.path.exists(path)
        resumed = search(config, checkpoint=path)
        fresh = search(config)
        assert fresh.to_json() == resumed.to_json()
        assert not os.path.exists(path)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        try:
            search(SearchConfig(n=6, objective="MAX_EDGES"),
                   checkpoint=path, time_budget=0.0)
        except SearchTimeout:
            pass
        with pytest.raises(ValueError, match="checkpoint"):
            search(SearchConfig(n=6, objective="MAX_RHO"), checkpoint=path)

    def test_v1_checkpoint_refused(self, tmp_path):
        # a v1 fingerprint carries the removed prune_with_edge_bound key; its
        # candidates may come from the pruned MAX_RHO scan, so it must not resume
        path = tmp_path / "ckpt.json"
        v1 = ('{"n":5,"objective":"MAX_RHO","forbidden":"C3_PLUS",'
              '"require_unbalanced":true,"require_connected":true,"workers":1,'
              '"prune_with_edge_bound":true}')
        counters = {"underlying_scanned": 21, "signatures_scanned": 0, "feasible": 0}
        path.write_text(json.dumps({"fingerprint": v1, "next_batch": 1, "best": 2.56,
                                    "cands": [], "counters": counters}))
        with pytest.raises(ValueError, match="checkpoint"):
            search(SearchConfig(n=5, objective="MAX_RHO", forbidden="C3_PLUS"),
                   checkpoint=str(path))


class TestSwitchingNegMaximum:
    def test_matches_direct_scan(self):
        g = build_gst(2, 3)
        best, maxs = switching_neg_edge_maximum(g)
        # independent scan
        from _oracles import brute_switch

        seen = -1
        for bits in range(1 << g.n):
            u = [v for v in range(g.n) if (bits >> v) & 1]
            seen = max(seen, brute_switch(g, u).neg_edge_count)
        assert best == seen
        for m in maxs:
            assert m.neg_edge_count == best
            assert switching_equivalent(m, g)


class TestGF2Solutions:
    def test_matches_scan_on_complete_graphs(self):
        for n in (4, 5, 6):
            adj = np.abs(build_complete(n, 1).adj).astype(bool)
            nontree = _bfs_nontree_edges(adj)
            k = len(nontree)
            masks = _triangle_masks(adj, nontree)
            for want_odd, forbidden in ((False, "C3_MINUS"), (True, "C3_PLUS")):
                scan = sorted(int(p) for p in
                              _feasible_patterns(k, masks, forbidden, False))
                solved = _gf2_affine_solutions(masks, k, want_odd)
                assert solved == scan

    def test_complete_signature_classes(self):
        classes = _complete_signature_classes(5, "C3_MINUS")
        assert len(classes) == 1
        assert switching_equivalent(classes[0], build_complete(5, 1))
        classes = _complete_signature_classes(5, "C3_PLUS")
        assert len(classes) == 1
        assert switching_equivalent(classes[0], build_complete(5, -1))


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

    def test_t1_3(self):
        rep = verify_theorem("t1_3", 5)
        assert rep.passed
        assert rep.observed == pytest.approx(rho_bound(5), abs=1e-9)

    def test_l2_2(self):
        rep = verify_theorem("L2_2", 5)
        assert rep.passed and rep.observed == 6

    def test_l3_6_order(self):
        rep = verify_theorem("L3_6_ORDER", 10)
        assert rep.passed

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown theorem"):
            verify_theorem("T9_9", 5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            verify_theorem("L3_6_ORDER", 41)
        with pytest.raises(ValueError):
            verify_theorem("T1_2_NEG", 17)
