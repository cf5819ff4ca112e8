import itertools
import json
import math

import numpy as np
import pytest

from signed_extremal import bounds
from signed_extremal.bounds import (
    BoundReport,
    _balanced_clique_numbers,
    _balanced_spanning_subgraphs,
    _clique_spectral_bounds,
    _connected,
    balanced_clique_number,
    balanced_spanning_subgraph,
    clique_spectral_bound,
    edge_bound,
    make_bound_report,
    neg_edge_bound,
    rho_bound,
)
from signed_extremal.core import (
    SignedGraph,
    is_balanced,
    is_connected,
    negate,
    new_signed_graph,
    switch,
    switching_equivalent,
)
from signed_extremal.families import (
    build_complete,
    build_gst,
    build_gst_maxneg,
    build_kn_switched_maxneg,
)
from signed_extremal.properties import random_connected_signed_graph
from signed_extremal.spectral import _interlacing_checks, eigenvalues

from _oracles import (
    all_labeled_signed_graphs,
    per_graph_balanced_clique_number,
    per_graph_balanced_spanning_subgraph,
    per_graph_clique_spectral_bound,
    per_graph_interlacing_check,
)


def unbalanced_c4():
    return new_signed_graph(4, [(0, 1, -1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])


def ambiguous_graph():
    """Two principal-vector entries below 1e-10; of the four switchings of
    them, the second gives the subgraph of largest lambda_1, by a few ulps
    over the third."""
    return new_signed_graph(5, [(0, 1, 1), (0, 2, -1), (0, 4, -1), (1, 2, 1), (1, 3, 1),
                                (1, 4, 1), (2, 4, -1), (3, 4, 1)])


def ambiguous_graph_7():
    """Four principal-vector entries below 1e-10; a switching other than the
    first of the sixteen gives the largest lambda_1."""
    return new_signed_graph(7, [(0, 2, -1), (0, 5, -1), (0, 6, -1), (1, 2, -1), (1, 3, -1),
                                (1, 5, 1), (1, 6, -1), (2, 4, 1), (2, 6, -1), (3, 4, -1),
                                (3, 5, 1), (3, 6, -1), (4, 5, 1), (4, 6, -1), (5, 6, 1)])


def many_ambiguous_graph():
    """A positive K_8 and a path on 17 vertices, each path vertex joined to
    two clique vertices by opposite signs: lambda_1 = 7, its vector zero on
    the 17 path vertices."""
    edges = [(i, j, 1) for i in range(8) for j in range(i + 1, 8)]
    for k in range(17):
        edges += [(k % 8, 8 + k, 1), ((k + 1) % 8, 8 + k, -1)]
        edges += [(7 + k, 8 + k, 1)] if k else []
    return new_signed_graph(25, edges)


def disconnected_graph():
    return new_signed_graph(5, [(0, 1, -1), (2, 3, 1), (3, 4, -1)])


def kernel_graphs(seed):
    """1,200 seeded suite graphs with n = 1..12, the hand cases, ambiguous
    graphs of orders 5 and 7 among them, mixed in."""
    rng = np.random.default_rng(seed)
    graphs = [random_connected_signed_graph(rng, 1, 12) for _ in range(1200)]
    assert {g.n for g in graphs} == set(range(1, 13))
    graphs[300:300] = [unbalanced_c4(), ambiguous_graph(), ambiguous_graph_7()]
    graphs[900:900] = [ambiguous_graph_7(), ambiguous_graph(), unbalanced_c4()]
    return graphs


def disconnected_graph_25():
    """A path on 24 vertices and an isolated vertex, the order of
    many_ambiguous_graph."""
    return new_signed_graph(25, [(i, i + 1, 1) for i in range(23)])


def by_order(kernel, graphs, *per_graph):
    """A stacked kernel over graphs of mixed orders: one call per vertex
    count, in order of first appearance, on the stack of its graphs and their
    entries of each list of per_graph; the results in graph order."""
    out = {}
    for n in dict.fromkeys(g.n for g in graphs):
        idx = [i for i, g in enumerate(graphs) if g.n == n]
        got = kernel(np.array([graphs[i].adj for i in idx]),
                     *([values[i] for i in idx] for values in per_graph))
        assert len(got) == len(idx)
        out.update(zip(idx, got))
    return [out[i] for i in range(len(graphs))]


def eigh_calls(monkeypatch):
    """A list that gains the shape of each stack np.linalg.eigh solves from
    now on."""
    calls, eigh = [], np.linalg.eigh

    def counted(x, *args, **kwargs):
        calls.append(x.shape)
        return eigh(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def same_error(call, oracle):
    """call raises the exception oracle raises, with the same message."""
    with pytest.raises(Exception) as want:
        oracle()
    with pytest.raises(type(want.value)) as got:
        call()
    assert str(got.value) == str(want.value)


class TestClosedFormBounds:
    @pytest.mark.parametrize("n,expect", [(7, 16), (4, 4), (5, 7)])
    def test_edge_bound(self, n, expect):
        assert edge_bound(n) == expect

    @pytest.mark.parametrize("n,expect", [(7, 11), (4, 3), (10, 24)])
    def test_neg_edge_bound(self, n, expect):
        assert neg_edge_bound(n) == expect

    def test_rho_bound_values(self):
        assert rho_bound(7) == pytest.approx(4.701562118716424, abs=1e-12)
        assert rho_bound(4) == pytest.approx(math.sqrt(2), abs=1e-12)
        assert rho_bound(5) == pytest.approx((1 + math.sqrt(17)) / 2, abs=1e-12)

    @pytest.mark.parametrize("fn", [edge_bound, neg_edge_bound, rho_bound])
    def test_small_n_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(3)

    @pytest.mark.parametrize("fn", [edge_bound, neg_edge_bound, rho_bound])
    @pytest.mark.parametrize("n", [5.0, np.int64(5), True])
    def test_non_int_n_rejected(self, fn, n):
        # edge_bound(5.0) used to return 7.0 and rho_bound(5.0) 2.56
        with pytest.raises(ValueError, match="n must be an int"):
            fn(n)

    def test_bounds_met_with_equality_by_constructions(self):
        for n in range(4, 15):
            s = (n - 2) // 2
            assert build_gst(s, n - 2 - s).edge_count == edge_bound(n)
            assert build_gst_maxneg(n).neg_edge_count == neg_edge_bound(n)
            lam = eigenvalues(build_gst(1, n - 3)).eigenvalues[0]
            assert lam == pytest.approx(rho_bound(n), abs=1e-9)


class TestBalancedCliqueNumber:
    def test_homogeneous_complete(self):
        assert balanced_clique_number(build_complete(5, 1)) == 5
        assert balanced_clique_number(build_complete(5, -1)) == 2

    def test_positive_triangle_free_graphs(self):
        # without a positive triangle no balanced K3 exists
        for g in (build_complete(4, -1), negate(build_gst(1, 4))):
            assert balanced_clique_number(g) == 2

    def test_brute_force_small(self):
        import itertools

        rng = np.random.default_rng(12)
        for _ in range(30):
            g = random_connected_signed_graph(rng, 3, 7)
            best = 1
            for r in range(1, g.n + 1):
                for sub in itertools.combinations(range(g.n), r):
                    block = g.adj[np.ix_(sub, sub)]
                    if np.count_nonzero(block) != r * (r - 1):
                        continue
                    from _oracles import brute_is_balanced
                    from signed_extremal.core import SignedGraph

                    if brute_is_balanced(SignedGraph(block)):
                        best = max(best, r)
            assert balanced_clique_number(g) == best

    def test_bounded_by_underlying_clique_number(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            g = random_connected_signed_graph(rng, 3, 9)
            wb = balanced_clique_number(g)
            w = balanced_clique_number(g.underlying())
            assert wb <= w
            assert balanced_clique_number(g.underlying()) == w

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            balanced_clique_number(build_complete(15, 1))
        with pytest.raises(ValueError, match="capped"):
            by_order(_balanced_clique_numbers, [unbalanced_c4(), build_complete(15, 1)])


def assert_clique_numbers_agree(graphs):
    """The stacked bitset search, the one-graph function and the recursion
    it replaced give every graph the same int."""
    got = by_order(_balanced_clique_numbers, graphs)
    assert len(got) == len(graphs) and all(type(wb) is int for wb in got)
    assert got == [per_graph_balanced_clique_number(g) for g in graphs]
    assert got == [balanced_clique_number(g) for g in graphs]
    return got


class TestBalancedCliqueSearch:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_signed_graph(self, n):
        # disconnected and edgeless graphs included
        graphs = list(all_labeled_signed_graphs(n))
        assert len(graphs) == 3 ** (n * (n - 1) // 2)
        assert max(assert_clique_numbers_agree(graphs)) == n

    @pytest.mark.slow
    def test_every_signed_graph_on_five_vertices(self):
        graphs = list(all_labeled_signed_graphs(5))
        assert len(graphs) == 59049
        assert_clique_numbers_agree(graphs)

    def test_kernel_graphs(self):
        assert_clique_numbers_agree(kernel_graphs(35))

    def test_largest_complete_graphs(self):
        graphs = [build_complete(14, 1), build_complete(14, -1), build_kn_switched_maxneg(14)]
        assert assert_clique_numbers_agree(graphs) == [14, 2, 14]

    def test_every_extremal_family_member(self):
        graphs = [build_gst(s, t) for s in range(1, 12) for t in range(1, 13 - s)]
        assert {g.n for g in graphs} == set(range(4, 15))
        # the positive clique on s + t vertices; neither apex sees all of it
        assert assert_clique_numbers_agree(graphs) == [
            s + t for s in range(1, 12) for t in range(1, 13 - s)]


class TestCliqueSpectralBound:
    def test_k3_equality(self):
        rep = clique_spectral_bound(build_complete(3, 1))
        assert rep.observed == pytest.approx(2.0, abs=1e-9)
        assert rep.bound_value == pytest.approx(2.0, abs=1e-9)
        assert rep.satisfied

    def test_negated_extremal_family(self):
        rep = clique_spectral_bound(negate(build_gst(1, 4)))
        assert rep.details["balanced_clique_number"] == 2
        assert rep.bound_value == pytest.approx(4.0, abs=1e-12)
        assert rep.satisfied

    def test_requires_an_edge(self):
        with pytest.raises(ValueError):
            clique_spectral_bound(new_signed_graph(3, []))

    def test_random_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            g = random_connected_signed_graph(rng, 3, 10)
            assert clique_spectral_bound(g).satisfied


class TestBalancedSpanningSubgraph:
    def test_balanced_all_positive_is_fixed_point(self):
        g = build_complete(5, 1)
        assert balanced_spanning_subgraph(g) == g

    def test_unbalanced_c4_keeps_enough(self):
        h = balanced_spanning_subgraph(unbalanced_c4())
        assert h.n == 4 and is_balanced(h) and h.neg_edge_count == 0
        assert eigenvalues(h).eigenvalues[0] >= math.sqrt(2) - 1e-9

    def test_extremal_family(self):
        g = build_gst(1, 4)
        h = balanced_spanning_subgraph(g)
        assert eigenvalues(h).eigenvalues[0] >= eigenvalues(g).eigenvalues[0] - 1e-9

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            balanced_spanning_subgraph(new_signed_graph(3, [(0, 1, 1)]))

    def test_many_random_instances(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            g = random_connected_signed_graph(rng, 3, 10)
            h = balanced_spanning_subgraph(g)
            assert h.n == g.n
            assert is_balanced(h) and h.neg_edge_count == 0
            assert (
                eigenvalues(g).eigenvalues[0]
                <= eigenvalues(h).eigenvalues[0] + 1e-9
            )


class TestStackedKernels:
    """Each stacked kernel gives every graph of a mixed stack the result of
    the one-graph oracle it replaced, bit for bit."""

    @pytest.mark.parametrize("g", [ambiguous_graph(), ambiguous_graph_7()])
    def test_ambiguous_graph_keeps_a_later_switching(self, g):
        x = np.array(eigenvalues(g).principal_vector)
        ambiguous = np.flatnonzero(np.abs(x) < 1e-10)
        assert len(ambiguous) >= 2
        first = np.maximum(switch(g, np.flatnonzero(x <= -1e-10).tolist()).adj, 0)
        assert not np.array_equal(balanced_spanning_subgraph(g).adj, first)

    def test_balanced_spanning_matches_oracle(self):
        graphs = kernel_graphs(31)
        got = by_order(_balanced_spanning_subgraphs, graphs)
        assert len(got) == len(graphs)
        for g, h in zip(graphs, got):
            want = per_graph_balanced_spanning_subgraph(g)
            assert h.dtype == np.int8 and not h.flags.writeable
            assert h.tobytes() == want.adj.tobytes()
        assert ([balanced_spanning_subgraph(g).adj.tobytes() for g in graphs[290:310]]
                == [h.tobytes() for h in got[290:310]])

    def test_balanced_spanning_in_chunks_matches_oracle(self, monkeypatch):
        # 147 entries: three candidates of order 7 and five of order 5 per
        # solve; 2^a is no multiple of 3 or 5, so the switchings of two
        # ambiguous graphs share a chunk
        graphs = kernel_graphs(31)
        calls = eigh_calls(monkeypatch)
        by_order(_balanced_spanning_subgraphs, graphs)
        whole = len(calls)
        monkeypatch.setattr(bounds, "_STACK_ENTRIES", 147)
        got = by_order(_balanced_spanning_subgraphs, graphs)
        stacks = {n: sum(g.n == n for g in graphs) for n in (5, 7)}
        chunks = [(n, k) for k, n, _ in calls[whole:] if n in stacks and k != stacks[n]]
        assert len(calls) - whole > 2 * whole
        assert {n: max(k for m, k in chunks if m == n) for n in stacks} == {5: 5, 7: 3}
        for g, h in zip(graphs, got):
            assert h.tobytes() == per_graph_balanced_spanning_subgraph(g).adj.tobytes()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_connectivity_matches_is_connected(self, n):
        # every labelled graph on n vertices, all edges positive, as one stack
        cells = list(itertools.combinations(range(n), 2))
        stack = np.zeros((1 << len(cells), n, n), dtype=np.int8)
        for bit, (i, j) in enumerate(cells):
            stack[:, i, j] = stack[:, j, i] = np.arange(len(stack)) >> bit & 1
        want = [is_connected(SignedGraph(m)) for m in stack]
        assert _connected(stack) == want
        assert want.count(True) == {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}[n]

    def test_disconnected_last_raises_before_a_second_solve(self, monkeypatch):
        rng = np.random.default_rng(37)
        graphs = [ambiguous_graph()] + [random_connected_signed_graph(rng, 5, 5)
                                        for _ in range(8)] + [disconnected_graph()]
        calls = eigh_calls(monkeypatch)
        same_error(lambda: _balanced_spanning_subgraphs(np.array([g.adj for g in graphs])),
                   lambda: per_graph_balanced_spanning_subgraph(disconnected_graph()))
        assert calls == [(10, 5, 5)]

    def test_balanced_spanning_raises_like_oracle(self):
        graphs = kernel_graphs(32)[:40]
        graphs[20:20] = [disconnected_graph()]
        same_error(lambda: by_order(_balanced_spanning_subgraphs, graphs),
                   lambda: per_graph_balanced_spanning_subgraph(disconnected_graph()))
        same_error(lambda: balanced_spanning_subgraph(disconnected_graph()),
                   lambda: per_graph_balanced_spanning_subgraph(disconnected_graph()))
        same_error(lambda: balanced_spanning_subgraph(many_ambiguous_graph()),
                   lambda: per_graph_balanced_spanning_subgraph(many_ambiguous_graph()))

    @pytest.mark.parametrize("first_bad,later_bad", [
        (many_ambiguous_graph(), disconnected_graph_25()),
        (disconnected_graph_25(), many_ambiguous_graph()),
    ])
    def test_first_bad_graph_raises_in_a_stack(self, first_bad, later_bad):
        # the first bad graph follows good ones in the stack, and the later
        # one raises another error
        rng = np.random.default_rng(36)
        plain = [random_connected_signed_graph(rng, 25, 25) for _ in range(6)]
        graphs = plain[:3] + [first_bad] + plain[3:] + [later_bad]
        same_error(lambda: _balanced_spanning_subgraphs(np.array([g.adj for g in graphs])),
                   lambda: per_graph_balanced_spanning_subgraph(first_bad))
        errors = []
        for g in (first_bad, later_bad):
            with pytest.raises(Exception) as err:
                per_graph_balanced_spanning_subgraph(g)
            errors.append(type(err.value))
        assert errors[0] is not errors[1]

    def test_clique_bound_matches_oracle(self):
        graphs = [g for g in kernel_graphs(33) if g.edge_count]
        graphs[500:500] = [disconnected_graph()]
        got = by_order(_clique_spectral_bounds, graphs)
        assert len(got) == len(graphs)
        for g, rep in zip(graphs, got):
            want = per_graph_clique_spectral_bound(g)
            assert type(rep.observed) is float
            assert rep.observed.hex() == want.observed.hex()
            assert rep.bound_value.hex() == want.bound_value.hex()
            assert rep.to_json() == want.to_json()
            assert rep.details == want.details
        assert clique_spectral_bound(graphs[7]).to_json() == got[7].to_json()

    def test_clique_bound_raises_like_oracle(self):
        edgeless = new_signed_graph(3, [])
        graphs = [unbalanced_c4(), edgeless, ambiguous_graph()]
        same_error(lambda: by_order(_clique_spectral_bounds, graphs),
                   lambda: per_graph_clique_spectral_bound(edgeless))
        same_error(lambda: by_order(_clique_spectral_bounds,
                                    [unbalanced_c4(), build_complete(15, 1)]),
                   lambda: per_graph_clique_spectral_bound(build_complete(15, 1)))
        # no edge anywhere in a stack raises before the cap
        stack = np.array([build_complete(15, 1).adj, new_signed_graph(15, []).adj])
        same_error(lambda: _clique_spectral_bounds(stack),
                   lambda: per_graph_clique_spectral_bound(new_signed_graph(15, [])))

    def test_interlacing_matches_oracle(self):
        rng = np.random.default_rng(34)
        graphs = kernel_graphs(34)
        graphs[600:600] = [disconnected_graph()]
        kept = [rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False)
                for g in graphs]
        got = by_order(_interlacing_checks, graphs, kept)
        assert got == [per_graph_interlacing_check(g, k) for g, k in zip(graphs, kept)]
        assert all(type(ok) is bool for ok in got)

    def test_interlacing_solves_once_per_kept_size(self, monkeypatch):
        rng = np.random.default_rng(35)
        graphs = kernel_graphs(35)
        kept = [rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False)
                for g in graphs]
        calls = eigh_calls(monkeypatch)
        for n in dict.fromkeys(g.n for g in graphs):
            idx = [i for i, g in enumerate(graphs) if g.n == n]
            before = len(calls)
            _interlacing_checks(np.array([graphs[i].adj for i in idx]), [kept[i] for i in idx])
            assert len(calls) - before == 1 + len({len(kept[i]) for i in idx})

    @pytest.mark.parametrize("count", [1, 4])
    def test_interlacing_rejects_a_kept_list_of_another_length(self, count):
        stack = np.array([ambiguous_graph().adj] * 3)
        with pytest.raises(ValueError, match=f"{count} kept vertex sets for 3 matrices"):
            _interlacing_checks(stack, [[0, 1]] * count)

    def test_interlacing_rejects_a_bad_case_in_a_stack(self):
        stack = np.array([ambiguous_graph().adj] * 2)
        with pytest.raises(ValueError, match="distinct"):
            _interlacing_checks(stack, [[0, 1], [4, 2, 4]])


class TestBoundReport:
    def test_satisfied_semantics(self):
        rep = make_bound_report("edge_bound", 7, 16, 16)
        assert rep.satisfied
        rep = make_bound_report("edge_bound", 7, 16, 17)
        assert not rep.satisfied
        rep = make_bound_report("rho_bound", 7, 4.7, 4.7 + 5e-10, spectral=True)
        assert rep.satisfied

    def test_json_stable_field_order(self):
        rep = make_bound_report("edge_bound", 7, 16, 16, witness=build_gst(1, 4))
        data = json.loads(rep.to_json())
        assert list(data.keys()) == [
            "bound_name", "n", "bound_value", "observed", "satisfied",
            "witness", "passed", "notes",
        ]
        assert data["witness"].startswith("7 16\n")
