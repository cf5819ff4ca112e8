import math
from fractions import Fraction

import numpy as np
import pytest

from signed_extremal.bounds import rho_bound
from signed_extremal.core import SignedGraph, negate, new_signed_graph, switch
from signed_extremal.families import (
    build_complete,
    build_gst,
    build_h,
    gst_partition,
    h_partition,
)
from signed_extremal.search import enumerate_underlying
from signed_extremal.spectral import (
    CharPolyId,
    NotEquitableError,
    SpectralError,
    _stacked_spectra,
    char_poly_eval,
    eigenvalues,
    interlacing_check,
    largest_root,
    multiset_contains,
    quotient_matrix,
    quotient_spectrum_check,
    spectral_radius,
    spectrum_to_json,
)

from _oracles import (
    all_signatures,
    check_spectrum_identities,
    connected_labeled_graphs,
    seeded_signed_graphs,
)


def unbalanced_c4():
    return new_signed_graph(4, [(0, 1, -1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])


def random_signed(rng, n_lo=3, n_hi=9):
    n = int(rng.integers(n_lo, n_hi))
    adj = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                adj[i, j] = adj[j, i] = int(rng.choice((-1, 1)))
    return SignedGraph(adj)


class TestEigenvalues:
    def test_k2(self):
        sp = eigenvalues(new_signed_graph(2, [(0, 1, 1)]))
        assert sp.eigenvalues == pytest.approx((1.0, -1.0), abs=1e-12)

    def test_unbalanced_c4(self):
        # characteristic polynomial is (x^2 - 2)^2
        r = math.sqrt(2)
        sp = eigenvalues(unbalanced_c4())
        assert sp.eigenvalues == pytest.approx((r, r, -r, -r), abs=1e-9)
        assert sp.rho == pytest.approx(r, abs=1e-9)

    def test_gst_top_eigenvalue_closed_form(self):
        sp = eigenvalues(build_gst(1, 4))
        assert sp.eigenvalues[0] == pytest.approx((3 + math.sqrt(41)) / 2, abs=1e-9)

    def test_k3_negative(self):
        sp = eigenvalues(build_complete(3, -1))
        assert sp.eigenvalues == pytest.approx((1.0, 1.0, -2.0), abs=1e-9)
        assert spectral_radius(build_complete(3, -1)) == pytest.approx(2.0, abs=1e-9)

    def test_single_vertex(self):
        sp = eigenvalues(new_signed_graph(1, []))
        assert sp.eigenvalues == (0.0,)
        assert sp.rho == 0.0

    def test_trace_and_frobenius_identities(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = random_signed(rng)
            check_spectrum_identities(g, eigenvalues(g))

    def test_principal_vector_is_eigenvector(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            g = random_signed(rng)
            sp = eigenvalues(g)
            x = np.array(sp.principal_vector)
            assert abs(np.linalg.norm(x) - 1) < 1e-9
            assert np.linalg.norm(g.adj @ x - sp.eigenvalues[0] * x) < 1e-8
            assert x[int(np.argmax(np.abs(x)))] > 0

    def test_switching_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = random_signed(rng)
            u = [v for v in range(g.n) if rng.random() < 0.5]
            a = eigenvalues(g).eigenvalues
            b = eigenvalues(switch(g, u)).eigenvalues
            assert max(abs(p - q) for p, q in zip(a, b)) < 1e-9

    def test_negation_reverses_spectrum(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = random_signed(rng)
            a = eigenvalues(g).eigenvalues
            b = eigenvalues(negate(g)).eigenvalues
            assert max(abs(-p - q) for p, q in zip(reversed(a), b)) < 1e-9

    def test_underlying_graph_dominates(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            g = random_signed(rng)
            assert spectral_radius(g) <= eigenvalues(g.underlying()).eigenvalues[0] + 1e-9

    def test_top_eigenvalue_dominates_bottom_for_extremal_family(self):
        for n in range(7, 41):
            sp = eigenvalues(build_gst(1, n - 3))
            assert sp.eigenvalues[0] >= -sp.eigenvalues[-1]
            assert sp.rho == sp.eigenvalues[0]
            # strictly above n - 5/2
            assert sp.eigenvalues[0] > n - 2.5


class TestStackedSpectra:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_matches_eigenvalues_graph_by_graph(self, n):
        graphs = list(seeded_signed_graphs(900 + n, n, 30))
        stacked = _stacked_spectra(np.array([g.adj for g in graphs]))
        assert stacked.shape == (len(graphs), n)
        for g, w in zip(graphs, stacked):
            assert np.abs(w - eigenvalues(g).eigenvalues).max() <= 1e-12

    def test_solver_failure_is_a_spectral_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(SpectralError, match="did not converge"):
            _stacked_spectra(build_gst(1, 4).adj[None])


class TestQuotient:
    def test_gst_quotient_matches_known_matrix(self):
        for s, t in [(1, 4), (2, 3), (3, 3)]:
            qm = quotient_matrix(build_gst(s, t), gst_partition(s, t))
            assert qm.q == (
                (0, -1, s, 0),
                (-1, 0, 0, t),
                (1, 0, s - 1, t),
                (0, 1, s, t - 1),
            )

    def test_complete_single_block(self):
        qm = quotient_matrix(build_complete(5, 1), [range(5)])
        assert qm.q == ((4,),)

    def test_singleton_partition_is_adjacency(self):
        g = unbalanced_c4()
        qm = quotient_matrix(g, [[0], [1], [2], [3]])
        assert np.array_equal(qm.as_array(), g.adj.astype(float))

    def test_not_equitable_reports_blocks(self):
        # path 0-1-2: {0,1},{2} is not equitable
        p3 = new_signed_graph(3, [(0, 1, 1), (1, 2, 1)])
        with pytest.raises(NotEquitableError) as err:
            quotient_matrix(p3, [[0, 1], [2]])
        assert err.value.block_i == 0

    def test_bad_partitions_rejected(self):
        g = unbalanced_c4()
        with pytest.raises(ValueError):
            quotient_matrix(g, [[0, 1], [1, 2, 3]])
        with pytest.raises(ValueError):
            quotient_matrix(g, [[0, 1], [2]])
        with pytest.raises(ValueError, match="blocks must be nonempty"):
            quotient_matrix(g, [[0, 1], [], [2, 3]])

    @pytest.mark.parametrize("partition, msg", [
        ([[0.2], [1], [2], [3, 4]], "not an integer"),
        ([[1.7], [0], [2], [3, 4]], "not an integer"),
        ([[True], [0], [2], [3, 4]], "not an integer"),
        ([[0], [1], [2], [3, 4, 5]], "outside the graph"),
    ])
    def test_blocks_must_hold_vertex_ints(self, partition, msg):
        with pytest.raises(ValueError, match=msg):
            quotient_matrix(build_gst(1, 2), partition)

    def test_quotient_spectrum_check(self):
        g = build_gst(1, 4)
        assert quotient_spectrum_check(g, gst_partition(1, 4))
        assert quotient_spectrum_check(g, [[v] for v in range(g.n)])

    def test_gst_spectrum_is_quotient_plus_minus_ones(self):
        for s, t in [(1, 4), (2, 3), (4, 4)]:
            g = build_gst(s, t)
            full = sorted(eigenvalues(g).eigenvalues)
            q = sorted(quotient_matrix(g, gst_partition(s, t)).eigenvalues())
            expect = sorted(q + [-1.0] * (s + t - 2))
            assert max(abs(a - b) for a, b in zip(full, expect)) < 1e-8

    def test_h_family_quotients_are_equitable(self):
        cases = [
            ("H1", 1, 4), ("H1", 2, 3), ("H2", 2, 3), ("H2", 3, 2), ("H3", 2, 2),
        ]
        for fam, s, t in cases:
            g = build_h(fam, s, t)
            assert quotient_spectrum_check(g, h_partition(fam, s, t))


class TestMultisetContains:
    def test_basic(self):
        assert multiset_contains([1.0, 2.0, 2.0], [2.0, 2.0], 1e-9)
        assert not multiset_contains([1.0, 2.0], [2.0, 2.0], 1e-9)
        assert multiset_contains([1.0, 2.0 + 1e-10], [2.0], 1e-9)


class TestCharPoly:
    def test_coefficients_match_quotient_matrices(self):
        # numpy-derived characteristic polynomial of the quotient matrix is an
        # independent oracle for the frozen integer coefficients
        cases = [
            (CharPolyId("F_GST", s=2, t=5), build_gst(2, 5), gst_partition(2, 5)),
            (CharPolyId("F1_S1", n=9), build_h("H1", 1, 6), h_partition("H1", 1, 6)),
            (CharPolyId("F1_GEN", s=3, t=4), build_h("H1", 3, 4), h_partition("H1", 3, 4)),
            (CharPolyId("F2_GEN", s=4, t=3), build_h("H2", 4, 3), h_partition("H2", 4, 3)),
            (CharPolyId("F2_S2", n=9), build_h("H2", 2, 5), h_partition("H2", 2, 5)),
            (CharPolyId("F3", s=2, t=4), build_h("H3", 2, 4), h_partition("H3", 2, 4)),
        ]
        for pid, g, partition in cases:
            q = quotient_matrix(g, partition).as_array()
            derived = np.poly(q)
            frozen = np.array(pid.coefficients(), dtype=float)
            assert np.allclose(derived, frozen, atol=1e-6), pid

    def test_f_gst_value_at_root_n5(self):
        x = (1 + math.sqrt(17)) / 2
        assert abs(char_poly_eval(CharPolyId("F_GST", s=1, t=2), x)) < 1e-9

    def test_vanishes_at_every_quotient_eigenvalue(self):
        cases = [
            (CharPolyId("F_GST", s=2, t=6), build_gst(2, 6), gst_partition(2, 6)),
            (CharPolyId("F1_S1", n=8), build_h("H1", 1, 5), h_partition("H1", 1, 5)),
            (CharPolyId("F1_GEN", s=2, t=4), build_h("H1", 2, 4), h_partition("H1", 2, 4)),
            (CharPolyId("F2_GEN", s=3, t=3), build_h("H2", 3, 3), h_partition("H2", 3, 3)),
            (CharPolyId("F2_S2", n=10), build_h("H2", 2, 6), h_partition("H2", 2, 6)),
            (CharPolyId("F3", s=2, t=3), build_h("H3", 2, 3), h_partition("H3", 2, 3)),
        ]
        for pid, g, partition in cases:
            degree = len(pid.coefficients()) - 1
            for lam in quotient_matrix(g, partition).eigenvalues():
                rel = abs(char_poly_eval(pid, lam)) / max(1.0, abs(lam)) ** degree
                assert rel <= 1e-6, (pid, lam, rel)

    def test_f_gst_difference_identity(self):
        for s, t in [(2, 3), (3, 5), (4, 4)]:
            for x in (-1.5, 0.0, 0.7, 2.0, 5.0):
                lhs = char_poly_eval(
                    CharPolyId("F_GST", s=s - 1, t=t + 1), x
                ) - char_poly_eval(CharPolyId("F_GST", s=s, t=t), x)
                assert lhs == pytest.approx((2 * x + 3) * (s - t - 1), abs=1e-9)

    def test_f3_difference_identity(self):
        for s, t in [(2, 3), (3, 4)]:
            for x in (0.5, 1.0, 3.0):
                lhs = char_poly_eval(CharPolyId("F3", s=s - 1, t=t + 1), x) - \
                    char_poly_eval(CharPolyId("F3", s=s, t=t), x)
                assert lhs == pytest.approx((s - 1 - t) * (2 * x * x + x - 2), abs=1e-9)

    def test_f1_difference_identity(self):
        for s, t in [(3, 3), (4, 5)]:
            for x in (1.0, 2.5, 4.0):
                lhs = char_poly_eval(CharPolyId("F1_GEN", s=s - 1, t=t + 1), x) - \
                    char_poly_eval(CharPolyId("F1_GEN", s=s, t=t), x)
                assert lhs == pytest.approx(
                    (s - 1 - t) * x * (2 * x * x + 3 * x - 2), abs=1e-9
                )

    def test_f2_difference_identity(self):
        n = 10
        for s in (3, 4, 5):
            for x in (1.0, 2.0, 3.5):
                lhs = char_poly_eval(CharPolyId("F2_GEN", s=n - 3, t=1), x) - \
                    char_poly_eval(CharPolyId("F2_GEN", s=s, t=n - s - 2), x)
                rhs = -(n - s - 3) * x * (2 * x - 1) * ((s - 1) * x + 2 * s - 4)
                assert lhs == pytest.approx(rhs, abs=1e-9)

    @pytest.mark.parametrize("pid", [CharPolyId("F_GST", s=3, t=4), CharPolyId("F1_S1", n=9),
                                     CharPolyId("F1_GEN", s=2, t=5), CharPolyId("F2_GEN", s=4, t=3),
                                     CharPolyId("F2_S2", n=8), CharPolyId("F3", s=2, t=6)], ids=str)
    def test_eval_is_exact_then_rounded_once(self, pid):
        coeffs = pid.coefficients()

        def exact(x):
            return sum(c * Fraction(x) ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs))

        for x in range(-30, 31):
            assert char_poly_eval(pid, x) == exact(x)
            assert char_poly_eval(pid, float(x)) == exact(x)
        rng = np.random.default_rng(28)
        # near the roots, where float Horner loses most of its digits
        roots = [r.real for r in np.roots(coeffs) if abs(r.imag) < 1e-9]
        xs = np.concatenate([rng.uniform(-pid.matrix_order, pid.matrix_order, 200),
                             np.repeat(roots, 20) + rng.normal(0, 1e-9, 20 * len(roots))])
        for x in xs:
            assert char_poly_eval(pid, x) == float(exact(x)), x

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_eval_rejects_non_finite_x(self, x):
        with pytest.raises(ValueError, match="finite"):
            char_poly_eval(CharPolyId("F_GST", s=1, t=2), x)

    def test_eval_past_float_range_overflows(self):
        # the exact value rounds to no float: loud, not inf
        with pytest.raises(OverflowError):
            char_poly_eval(CharPolyId("F_GST", s=1, t=2), 1e300)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(family="F_GST", s=0, t=2),
            dict(family="F1_GEN", s=1, t=3),
            dict(family="F2_GEN", s=2, t=3),
            dict(family="F2_S2", n=4),
            dict(family="F3", s=0, t=1),
            dict(family="F_GST"),
            dict(family="NOPE", s=1, t=1),
            # a parameter the family does not take; n was once ignored
            dict(family="F_GST", s=1, t=2, n=99),
            dict(family="F1_S1", n=7, s=1),
            dict(family="F3", s=1, t=1, n=5),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            CharPolyId(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(family="F1_S1", n=5.5),
        dict(family="F1_S1", n=6.0),
        dict(family="F_GST", s=2.0, t=3),
        dict(family="F3", s=1, t=True),
    ])
    def test_non_int_parameters_rejected(self, kwargs):
        # a float parameter would make the "exact integer" coefficients floats
        with pytest.raises(ValueError, match="must be an int"):
            CharPolyId(**kwargs)

    def test_numpy_integer_parameters_are_stored_as_ints(self):
        # as build_gst and new_signed_graph accept them; the exact Horner rule
        # then never sees a fixed-width integer
        plain = CharPolyId("F_GST", s=1, t=2)
        pid = CharPolyId("F_GST", s=np.int64(1), t=2)
        assert type(pid.s) is int and pid == plain
        assert pid.coefficients() == plain.coefficients()
        assert all(type(c) is int for c in pid.coefficients())
        assert largest_root(pid) == largest_root(plain)
        assert CharPolyId("F1_S1", n=np.uint8(7)).matrix_order == 7
        with pytest.raises(ValueError, match="must be an int"):
            CharPolyId("F3", s=np.bool_(True), t=1)


class TestLargestRoot:
    def test_matches_closed_form(self):
        for n in range(7, 13):
            r = largest_root(CharPolyId("F_GST", s=1, t=n - 3))
            assert r == pytest.approx(rho_bound(n), abs=1e-9)

    def test_n4_gives_sqrt2(self):
        # a double root (F_GST(1, 1) is (x^2 - 2)^2), found to the last bit
        assert largest_root(CharPolyId("F_GST", s=1, t=1)) == math.sqrt(2)

    def test_q_n_changes_sign_between_neighbouring_floats(self):
        # rho* is the largest root of q_n = x^2 - (n-4)x - (2n-6), a factor of
        # F_GST(1, n-3); the float returned is the one nearest it, so q_n
        # changes sign between the floats on either side of it
        for n in range(5, 400):
            r = largest_root(CharPolyId("F_GST", s=1, t=n - 3))
            below, above = (Fraction(math.nextafter(r, d)) for d in (-math.inf, math.inf))
            assert below * below - (n - 4) * below - (2 * n - 6) < 0, n
            assert above * above - (n - 4) * above - (2 * n - 6) > 0, n

    def test_quintic_matches_eigensolver(self):
        lam = eigenvalues(build_h("H1", 1, 4)).eigenvalues[0]
        assert largest_root(CharPolyId("F1_S1", n=7)) == pytest.approx(lam, abs=1e-9)

    def test_all_families_match_quotient_top_eigenvalue(self):
        # each family's polynomial is the characteristic polynomial of its
        # quotient matrix, whose symmetrized eigenvalues are all real: the
        # premise under largest_root's exact root count
        cases = []
        for s in range(1, 13):
            for t in range(1, 13):
                cases.append((CharPolyId("F_GST", s=s, t=t), build_gst(s, t), gst_partition(s, t)))
                for fam, family, least in (("H1", "F1_GEN", 2), ("H2", "F2_GEN", 3), ("H3", "F3", 1)):
                    if s >= least and t >= (2 if fam == "H1" else 1):
                        cases.append((CharPolyId(family, s=s, t=t), build_h(fam, s, t),
                                      h_partition(fam, s, t)))
        for n in range(5, 41):
            cases.append((CharPolyId("F1_S1", n=n), build_h("H1", 1, n - 3),
                          h_partition("H1", 1, n - 3)))
            cases.append((CharPolyId("F2_S2", n=n), build_h("H2", 2, n - 4),
                          h_partition("H2", 2, n - 4)))
        assert len({pid.family for pid, _, _ in cases}) == 6
        for pid, g, partition in cases:
            qm = quotient_matrix(g, partition)
            assert g.n == pid.matrix_order, pid
            assert tuple(np.rint(np.poly(qm.as_array())).astype(int)) == pid.coefficients(), pid
            assert largest_root(pid) == pytest.approx(qm.eigenvalues()[0], abs=1e-12), pid


class TestInterlacing:
    def test_full_set(self):
        g = build_gst(1, 4)
        assert interlacing_check(g, range(g.n))

    def test_gst_minus_apex(self):
        g = build_gst(1, 4)
        assert interlacing_check(g, [v for v in range(g.n) if v != 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            interlacing_check(build_gst(1, 1), [])

    @pytest.mark.parametrize("kept, msg", [([0.9, 1.2], "not an integer"),
                                           ([1.7], "not an integer"),
                                           ([True, 2], "not an integer"),
                                           ([0, 5], "outside the graph"),
                                           ([0, 2, 0], "must be distinct")])
    def test_kept_vertices_must_be_vertex_ints(self, kept, msg):
        with pytest.raises(ValueError, match=msg):
            interlacing_check(build_gst(1, 2), kept)

    def test_random_principal_submatrices(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            g = random_signed(rng, 3, 10)
            size = int(rng.integers(1, g.n + 1))
            kept = rng.choice(g.n, size=size, replace=False)
            assert interlacing_check(g, kept)


class TestSerialization:
    def test_json_shape(self):
        sp = eigenvalues(new_signed_graph(2, [(0, 1, 1)]))
        assert spectrum_to_json(sp) == '{"eigenvalues":[1,-1],"rho":1,"tol":1e-12}'

    def test_fifteen_significant_digits(self):
        sp = eigenvalues(build_gst(1, 4))
        text = spectrum_to_json(sp)
        assert "4.70156211871643" in text


class TestExhaustiveSmallSpectra:
    def test_every_signature_on_four_vertices(self):
        # spectra of all signed graphs on <= 4 vertices satisfy trace/Frobenius
        # and switching invariance of rho
        for adj in connected_labeled_graphs(4):
            for g in all_signatures(adj):
                sp = eigenvalues(g)
                check_spectrum_identities(g, sp)
                assert sp.rho == pytest.approx(
                    spectral_radius(switch(g, [0, 2])), abs=1e-9
                )


def stanley_bound(m):
    """(sqrt(1 + 8m) - 1) / 2: Stanley's bound on the spectral radius of a
    graph with m edges (Linear Algebra Appl. 87, 1987), elementwise."""
    return (np.sqrt(1 + 8 * m) - 1) / 2


class TestStanleyBound:
    # rho(S) <= rho(|S|) <= (sqrt(1 + 8m) - 1) / 2 is what lets the MAX_RHO
    # scan stop at the first edge count whose bound is out of reach

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_signature_of_every_labeled_graph(self, n):
        for adj in connected_labeled_graphs(n):
            signed = np.stack([g.adj for g in all_signatures(adj)]).astype(np.float64)
            w = np.linalg.eigvalsh(signed)
            rho = np.maximum(w[:, -1], -w[:, 0])
            top = np.linalg.eigvalsh(adj.astype(np.float64))[-1]
            assert rho.max() <= top + 1e-9
            assert top <= stanley_bound(int(adj.sum()) // 2) + 1e-9

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_every_connected_class(self, n):
        adj = np.stack([g.adj for g in enumerate_underlying(n)]).astype(np.float64)
        top = np.linalg.eigvalsh(adj)[:, -1]
        assert (top <= stanley_bound(adj.sum(axis=(1, 2)) // 2) + 1e-9).all()
