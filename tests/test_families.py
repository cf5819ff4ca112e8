import math
from functools import partial

import numpy as np
import pytest

from signed_extremal.bounds import edge_bound, neg_edge_bound
from signed_extremal.core import (
    counts,
    find_signed_triangles,
    is_balanced,
    is_connected,
    new_signed_graph,
    switching_equivalent,
    switching_isomorphic,
)
from signed_extremal.families import (
    FAMILY_NAMES,
    build_complete,
    build_family,
    build_gst,
    build_gst_maxneg,
    build_h,
    build_kn_switched_maxneg,
    gst_partition,
    h_partition,
)
from signed_extremal.search import switching_neg_edge_maximum
from signed_extremal.spectral import eigenvalues


class TestGst:
    def test_smallest_is_unbalanced_c4(self):
        c4 = new_signed_graph(4, [(0, 1, -1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
        assert build_gst(1, 1) == c4

    def test_structure_across_splits(self):
        for s in range(1, 8):
            for t in range(s, 15 - s):
                g = build_gst(s, t)
                n = s + t + 2
                assert counts(g) == (n * (n - 1) // 2 - (n - 2), 1)
                assert is_connected(g)
                assert not is_balanced(g)
                assert find_signed_triangles(g, -1) == []
                assert len(g.neighbors(0)) == s + 1 <= n - 2
                assert len(g.neighbors(1)) == t + 1 <= n - 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_gst(0, 3)

    @pytest.mark.parametrize("s, t", [(0, 1), (1, 0), (0, 0)])
    def test_partition_rejects_what_the_builder_rejects(self, s, t):
        with pytest.raises(ValueError) as built:
            build_gst(s, t)
        with pytest.raises(ValueError) as split:
            gst_partition(s, t)
        assert str(split.value) == str(built.value)


class TestGstMaxneg:
    @pytest.mark.parametrize("n,expect", [(7, 11), (4, 3), (10, 24)])
    def test_negative_edge_counts(self, n, expect):
        assert build_gst_maxneg(n).neg_edge_count == expect
        assert expect == neg_edge_bound(n)

    def test_equivalent_to_plain_family(self):
        for n in range(4, 13):
            s = (n - 2) // 2
            assert switching_equivalent(build_gst_maxneg(n), build_gst(s, n - 2 - s))

    def test_edge_count_preserved(self):
        for n in range(4, 13):
            assert build_gst_maxneg(n).edge_count == edge_bound(n)


class TestHFamilies:
    def test_h1_one_edge_fewer(self):
        for s, t in [(1, 4), (2, 3), (3, 3)]:
            assert build_h("H1", s, t).edge_count == build_gst(s, t).edge_count - 1

    def test_h_graphs_all_positive(self):
        for fam, s, t in [("H1", 1, 4), ("H2", 2, 3), ("H3", 1, 3)]:
            assert build_h(fam, s, t).neg_edge_count == 0

    def test_h1_isomorphic_to_h3(self):
        # H1 at split (1, n-3) and H3 at split (1, n-4) are the same graph
        for n in (7, 8, 9):
            assert switching_isomorphic(build_h("H1", 1, n - 3), build_h("H3", 1, n - 4))

    def test_h1_below_extremal_top_eigenvalue(self):
        lam_h = eigenvalues(build_h("H1", 1, 4)).eigenvalues[0]
        lam_g = eigenvalues(build_gst(1, 4)).eigenvalues[0]
        assert lam_h < lam_g

    def test_h3_vertex_attachments(self):
        g = build_h("H3", 2, 3)
        w = g.n - 1
        # w joins every clique vertex but neither apex; apexes keep the uv edge
        assert g.neighbors(w) == [2, 3, 4, 5, 6]
        assert g.adj[0, 1] == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_h("H2", 1, 4)
        with pytest.raises(ValueError):
            build_h("H9", 1, 1)

    @pytest.mark.parametrize("family, s, t", [("H2", 1, 3), ("H2", 2, 0), ("H1", 0, 3),
                                              ("H3", 1, 0), ("H9", 1, 1)])
    def test_partition_rejects_what_the_builder_rejects(self, family, s, t):
        with pytest.raises(ValueError) as built:
            build_h(family, s, t)
        with pytest.raises(ValueError) as split:
            h_partition(family, s, t)
        assert str(split.value) == str(built.value)

    def test_h1_partition_needs_two_clique_vertices_on_the_v_side(self):
        # build_h builds H1(s, 1), but the partition's layout would leave its
        # v-side clique block empty
        build_h("H1", 2, 1)
        with pytest.raises(ValueError, match="H1 partition needs t >= 2"):
            h_partition("H1", 2, 1)


class TestComplete:
    def test_positive_balanced_and_triangle_safe(self):
        g = build_complete(3, 1)
        assert is_balanced(g)
        assert find_signed_triangles(g, -1) == []

    def test_negative_triangle_content(self):
        g = build_complete(3, -1)
        assert len(find_signed_triangles(g, -1)) == 1
        assert find_signed_triangles(g, 1) == []

    def test_all_negative_has_no_positive_triangles(self):
        for n in (4, 5, 6):
            assert find_signed_triangles(build_complete(n, -1), 1) == []


class TestKnSwitched:
    def test_n4(self):
        assert build_kn_switched_maxneg(4).neg_edge_count == 4

    def test_balanced_and_triangle_free(self):
        for n in range(2, 11):
            g = build_kn_switched_maxneg(n)
            assert is_balanced(g)
            assert find_signed_triangles(g, -1) == []
            assert g.neg_edge_count == (n // 2) * ((n + 1) // 2)

    def test_maximal_over_all_switchings(self):
        for n in range(2, 11):
            best, _ = switching_neg_edge_maximum(build_complete(n, 1))
            assert best == (n // 2) * ((n + 1) // 2)


class TestLemmaOrderings:
    def test_top_eigenvalues_strictly_descending_in_balance(self):
        for n in range(7, 17):
            lams = [
                eigenvalues(build_gst(s, n - 2 - s)).eigenvalues[0]
                for s in range(1, (n - 2) // 2 + 1)
            ]
            assert all(a > b + 1e-6 for a, b in zip(lams, lams[1:]))

    def test_h_families_below_extremal(self):
        for n in (7, 9, 11):
            lam_g = eigenvalues(build_gst(1, n - 3)).eigenvalues[0]
            for s in range(1, (n - 2) // 2 + 1):
                assert eigenvalues(build_h("H1", s, n - 2 - s)).eigenvalues[0] < lam_g
            for s in range(2, n - 3 + 1):
                assert eigenvalues(build_h("H2", s, n - 2 - s)).eigenvalues[0] < lam_g
            for s in range(1, (n - 3) // 2 + 1):
                assert eigenvalues(build_h("H3", s, n - 3 - s)).eigenvalues[0] < lam_g


class TestDispatcher:
    def test_known_families(self):
        assert build_family("gst", s=1, t=4) == build_gst(1, 4)
        assert build_family("gst-maxneg", n=7) == build_gst_maxneg(7)
        assert build_family("unbal-c4") == build_gst(1, 1)
        assert build_family("complete-neg", n=4) == build_complete(4, -1)
        assert build_family("kn_switched_maxneg", n=5) == build_kn_switched_maxneg(5)
        assert build_family("h3", s=1, t=2) == build_h("H3", 1, 2)

    def test_missing_parameters(self):
        with pytest.raises(ValueError, match="--s"):
            build_family("gst", n=7)
        with pytest.raises(ValueError, match="unknown family"):
            build_family("petersen")

    def test_rejects_parameters_the_family_does_not_take(self):
        with pytest.raises(ValueError, match="^gst does not take --n$"):
            build_family("gst", s=1, t=4, n=9)
        with pytest.raises(ValueError, match="^unbal-c4 does not take --s or --n$"):
            build_family("unbal-c4", s=1, n=4)
        with pytest.raises(ValueError, match="^complete-neg does not take --t$"):
            build_family("complete-neg", t=2, n=4)
        with pytest.raises(ValueError, match="^h2 needs --s and --t$"):
            build_family("h2", s=2, n=4)

    def test_every_name_builds_its_family(self):
        st, n = {"s": 2, "t": 3}, {"n": 6}
        expected = {
            "gst": (st, build_gst(2, 3)),
            "gst-maxneg": (n, build_gst_maxneg(6)),
            "h1": (st, build_h("H1", 2, 3)),
            "h2": (st, build_h("H2", 2, 3)),
            "h3": (st, build_h("H3", 2, 3)),
            "unbal-c4": ({}, build_gst(1, 1)),
            "complete-pos": (n, build_complete(6, 1)),
            "complete-neg": (n, build_complete(6, -1)),
            "kn-switched-maxneg": (n, build_kn_switched_maxneg(6)),
        }
        assert FAMILY_NAMES == tuple(expected)
        for name, (params, g) in expected.items():
            assert build_family(name, **params) == g


# each builder and partition helper, with arguments it accepts
BUILDER_CALLS = {
    "build_gst": (build_gst, (2, 3)),
    "gst_partition": (gst_partition, (2, 3)),
    "build_gst_maxneg": (build_gst_maxneg, (6,)),
    "build_complete": (build_complete, (3, 1)),
    "build_kn_switched_maxneg": (build_kn_switched_maxneg, (4,)),
    **{f"{f.__name__}-{fam}": (partial(f, fam), (3, 3))
       for f in (build_h, h_partition) for fam in ("H1", "H2", "H3")},
}


@pytest.mark.parametrize("bad", [True, 1.5, 2.0], ids=repr)
@pytest.mark.parametrize("build, args", BUILDER_CALLS.values(), ids=list(BUILDER_CALLS))
def test_non_integer_parameters_rejected(build, args, bad):
    # bool is a subclass of int, and 2.0 == 2: neither may pass as a count or sign
    build(*args)
    for i in range(len(args)):
        with pytest.raises(ValueError, match="integer|sign must be"):
            build(*args[:i], bad, *args[i + 1:])
