import hashlib
import sys

import pytest

from signed_extremal import properties
from signed_extremal.bounds import (
    _balanced_spanning_subgraphs,
    _clique_spectral_bounds,
    balanced_spanning_subgraph,
    make_bound_report,
)
from signed_extremal.core import (
    SignedGraph,
    canonical_switch,
    is_balanced,
    is_connected,
    negate,
    permute,
    switch,
)
from signed_extremal.families import build_complete
from signed_extremal.graphio import format_graph
from signed_extremal.properties import (
    SUITE_NAMES,
    random_connected_signed_graph,
    run_all_suites,
    run_suite,
)
from signed_extremal.spectral import FORMULA_TOL, eigenvalues

import numpy as np

from _oracles import (
    PER_DRAW_SUITE_DRAWS,
    per_draw_edge_addition,
    per_draw_random_connected_signed_graph,
    per_graph_balanced_spanning_subgraph,
    per_graph_clique_spectral_bound,
    per_graph_interlacing_check,
)

BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64]


def assert_same_state(a, b):
    """Equal bit generator states; Philox and SFC64 hold numpy arrays."""
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], dict):
            assert_same_state(a[key], b[key])
        else:
            assert np.array_equal(a[key], b[key]), key


def assert_replays_numpy(bit_generator, seed, n_range, graphs, warm=False, between=False):
    """random_connected_signed_graph against the per-draw oracle on twin
    streams: the same graph and the same generator state after each graph.
    warm enters with a spare 32-bit half; between makes other draws between
    graphs."""
    fast = np.random.Generator(bit_generator(seed))
    slow = np.random.Generator(bit_generator(seed))
    if warm:
        fast.integers(0, 2)
        slow.integers(0, 2)
        assert fast.bit_generator.state["has_uint32"] == 1
    for k in range(graphs):
        g = random_connected_signed_graph(fast, *n_range)
        assert g == per_draw_random_connected_signed_graph(slow, *n_range)
        assert_same_state(fast.bit_generator.state, slow.bit_generator.state)
        if between:
            for rng in (fast, slow):
                rng.integers(0, 3 + k)
                rng.random(k % 3)
                rng.integers(0, 2, size=k % 2)


def pcg64_with_zero_word(seed, k):
    """PCG64(seed) moved to a state whose raw word k (from 0) is 0. numpy
    steps the 128-bit state to state * M + inc mod 2^128 before each word and
    outputs rotr64(hi ^ lo, hi >> 58), so the state after step k + 1 is taken
    with hi < 2^58 and lo = hi, and stepped back with the inverse of M."""
    bg = np.random.PCG64(seed)
    state = bg.state
    inc = state["state"]["inc"]
    hi = state["state"]["state"] >> 70
    s = hi << 64 | hi
    inverse = pow(0x2360ED051FC65DA44385DF649FCCF645, -1, 1 << 128)
    for _ in range(k + 1):
        s = (s - inc) * inverse % (1 << 128)
    state["state"]["state"] = s
    bg.state = state
    return bg


class ScriptedBitGenerator:
    """A PCG64 without a spare half as _Words sees it: random_raw hands out
    the given words first, then those of PCG64(seed)."""

    def __init__(self, head, seed):
        self.head, self.tail = list(head), np.random.PCG64(seed)
        self.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}

    def random_raw(self, count):
        given, self.head = self.head[:count], self.head[count:]
        return np.array(given + self.tail.random_raw(count - len(given)).tolist(),
                        dtype=np.uint64)


class TestGenerator:
    def test_always_connected_and_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            g = random_connected_signed_graph(rng, 3, 10)
            assert 3 <= g.n <= 10
            assert is_connected(g)

    # the first 500 graphs of default_rng([7, k]) and the state after them:
    # `check --seed S` must draw the same graphs in every version
    @pytest.mark.parametrize("k,digest,state", [
        (0, "a083716d5e09ebd41853189b28d7299b25f5a84a2000721b0ced5f46dad04855",
         {"bit_generator": "PCG64",
          "state": {"state": 116434472622729142676131383727857806437,
                    "inc": 261136684632268670825940853076396136793},
          "has_uint32": 1, "uinteger": 1055820313}),
        (5, "c5fd25298b283e727f3de8889a0efc68a13f398b64606b0bb459dd13de9005cc",
         {"bit_generator": "PCG64",
          "state": {"state": 242653755658478114853582938727121163041,
                    "inc": 59238047567946217723630907172911787849},
          "has_uint32": 0, "uinteger": 2492043429}),
    ])
    def test_stream_is_pinned(self, k, digest, state):
        rng = np.random.default_rng([7, k])
        h = hashlib.sha256()
        for _ in range(500):
            h.update(random_connected_signed_graph(rng).adj.tobytes())
        assert h.hexdigest() == digest
        assert rng.bit_generator.state == state


class TestReplay:
    """The generator replays numpy's draws from a stream of raw words: same
    graphs, same stream position, for every supported bit generator."""

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    # (1, 25) and (5, 40) shuffle with masks up to 31 and 63; (1, 1) draws no n
    @pytest.mark.parametrize("n_range", [(3, 10), (1, 1), (1, 25), (5, 40)])
    def test_matches_numpy(self, bit_generator, n_range):
        for seed in range(4):
            assert_replays_numpy(bit_generator, seed, n_range, 30,
                                 warm=seed % 2 == 1, between=seed >= 2)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_lemire_rejection(self, bit_generator):
        # a spare half of 0 gives leftover 0, below 2**32 % 25 = 21, so the
        # draw of n from 25 values rejects it and takes the next half
        for seed in range(3):
            fast = np.random.Generator(bit_generator(seed))
            slow = np.random.Generator(bit_generator(seed))
            for rng in (fast, slow):
                state = rng.bit_generator.state
                state["has_uint32"], state["uinteger"] = 1, 0
                rng.bit_generator.state = state
            assert (random_connected_signed_graph(fast, 1, 25)
                    == per_draw_random_connected_signed_graph(slow, 1, 25))
            assert_same_state(fast.bit_generator.state, slow.bit_generator.state)

    def test_lemire_rejection_of_a_tree_parent(self, monkeypatch):
        # a raw word of 0 has halves of 0, so a parent draw from 0..idx-1
        # that reads one has leftover 0 < idx and goes to reject; a zero at
        # each of the first 40 words puts one among the tree draws in 13 of
        # these 120 graphs
        reject, callers = properties._Words.reject, []

        def spy(words, m, r):
            callers.append(sys._getframe(1).f_code.co_name)
            return reject(words, m, r)

        monkeypatch.setattr(properties._Words, "reject", spy)
        took = 0
        for seed in range(3):
            for k in range(40):
                assert pcg64_with_zero_word(seed, k).random_raw(k + 1)[k] == 0
                fast, slow = (np.random.Generator(pcg64_with_zero_word(seed, k))
                              for _ in range(2))
                before = callers.count("_draw_graph")
                assert (random_connected_signed_graph(fast)
                        == per_draw_random_connected_signed_graph(slow))
                assert_same_state(fast.bit_generator.state, slow.bit_generator.state)
                took += callers.count("_draw_graph") > before
        assert took == 13

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_graphs_past_the_first_chunk(self, bit_generator):
        # over 90 vertices the density loop alone needs many chunks of raw
        # words
        assert_replays_numpy(bit_generator, 3, (90, 100), 2, warm=True, between=True)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_one_stream_for_many_graphs(self, bit_generator):
        # as in a suite, graph after graph from one stream, across refills;
        # closing it leaves the generator where the per-draw calls do
        for seed, warm in ((0, False), (1, True)):
            fast, slow = bit_generator(seed), np.random.Generator(bit_generator(seed))
            if warm:
                np.random.Generator(fast).integers(0, 2)
                slow.integers(0, 2)
            words = properties._Words(fast)
            for _ in range(300):
                n, cells = properties._draw_graph(words)
                g = per_draw_random_connected_signed_graph(slow)
                assert (n, bytes(cells)) == (g.n, g.adj.tobytes())
            words.close()
            assert_same_state(fast.state, slow.bit_generator.state)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_refill_boundaries_match_numpy(self, chunk, monkeypatch):
        # chunks this small put refills at every offset against a graph's
        # reads, and a chunk of 1 ends the buffer right at each reservation
        monkeypatch.setattr(properties, "_CHUNK", chunk)
        for bit_generator in BIT_GENERATORS:
            for seed, n_range in ((0, (3, 10)), (1, (1, 25))):
                assert_replays_numpy(bit_generator, seed, n_range, 20, warm=seed == 1)

    def test_shuffle_rejections_past_the_reservation(self, monkeypatch):
        # the first shuffle step of a 5-vertex graph rejects both halves of
        # an all-ones word (7 > 4), so 60 such words, more than the 27 the
        # graph reserves, leave the graph and the stream after them as they
        # were without them
        monkeypatch.setattr(properties, "_CHUNK", 1)
        for seed in range(5):
            drawn = []
            for head in ([], [2 ** 64 - 1] * 60):
                words = properties._Words(ScriptedBitGenerator(head, seed))
                drawn.append((properties._draw_graph(words, 5, 5), words.spare, words.half,
                               words._taken - len(head) - len(words.buf) + words.pos))
            assert drawn[0] == drawn[1]

    def test_buffer_and_cell_table_stay_bounded(self):
        cells = sum(map(len, properties._PAIR_CELLS))
        words = properties._Words(np.random.PCG64(9))
        for _ in range(5000):
            properties._draw_graph(words)
            # one graph of n <= 10 reserves at most 10 * 10 + 2 words
            assert len(words.buf) <= properties._CHUNK + 10 * 10 + 2
        for _ in range(3):
            properties._draw_graph(words, 90, 100)
            assert len(words.buf) <= properties._CHUNK + 100 * 100 + 2
        words.close()
        assert sum(map(len, properties._PAIR_CELLS)) == cells

    def test_rejects_bit_generator_it_cannot_replay(self):
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(ValueError, match="not MT19937"):
            random_connected_signed_graph(rng)

    @pytest.mark.parametrize("n_min,n_max,match", [
        (0, 5, "need 1 <= n_min <= n_max"),
        (-2, 3, "need 1 <= n_min <= n_max"),
        (6, 5, "need 1 <= n_min <= n_max"),
        (True, 5, "must be ints"),
        (3, False, "must be ints"),
        (3.0, 10, "must be ints"),
        (3, "10", "must be ints"),
    ])
    def test_rejects_bad_range_before_drawing(self, n_min, n_max, match):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=match):
            random_connected_signed_graph(rng, n_min, n_max)
        assert rng.bit_generator.state == state

    def test_numpy_integer_range(self):
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        assert (random_connected_signed_graph(a, np.int64(2), np.int32(6))
                == random_connected_signed_graph(b, 2, 6))


class TestNumpyDraws:
    """The stream's replays of the suites' own Generator calls, against the
    installed numpy: values and the generator state after them. A numpy that
    changes one of these algorithms fails here before it changes a suite's
    instances."""

    def test_replays_match_numpy(self):
        for seed in range(240):
            bit_generator = BIT_GENERATORS[seed % len(BIT_GENERATORS)]
            fast, slow = bit_generator(seed), np.random.Generator(bit_generator(seed))
            if seed % 3 == 1:
                # enter with a spare 32-bit half
                np.random.Generator(fast).integers(0, 2)
                slow.integers(0, 2)
            words = properties._Words(fast)
            for r in range(1, 41):
                assert words.below(r) == slow.integers(0, r)
            for n in range(13):
                assert words.subset(n) == np.nonzero(slow.random(n) < 0.5)[0].tolist()
            for n in range(1, 13):
                for size in range(n + 1):
                    assert (words.sample(n, size)
                            == slow.choice(n, size=size, replace=False).tolist()), (n, size)
            words.close()
            assert_same_state(fast.state, slow.bit_generator.state)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_replays_across_refill_boundaries(self, chunk, monkeypatch):
        monkeypatch.setattr(properties, "_CHUNK", chunk)
        for seed in range(8):
            bit_generator = BIT_GENERATORS[seed % len(BIT_GENERATORS)]
            fast, slow = bit_generator(seed), np.random.Generator(bit_generator(seed))
            if seed % 2:
                np.random.Generator(fast).integers(0, 2)
                slow.integers(0, 2)
            words = properties._Words(fast)
            for n in range(1, 13):
                assert words.subset(n) == np.nonzero(slow.random(n) < 0.5)[0].tolist()
                assert (words.sample(n, n // 2)
                        == slow.choice(n, size=n // 2, replace=False).tolist())
                assert words.below(n) == slow.integers(0, n)
            words.close()
            assert_same_state(fast.state, slow.bit_generator.state)


def case_key(case):
    """A drawn case as plain values, each graph as its order and matrix bytes."""
    parts = case if isinstance(case, tuple) else (case,)
    return tuple((p.n, p.adj.tobytes()) if isinstance(p, SignedGraph) else p for p in parts)


def block_keys(block):
    """The case_key of each instance of a block, in instance order, read
    from its stacks per vertex count: the first graph, the second if the
    suite builds one, and the suite's own draw if it makes one."""
    keys = {}
    for idx, first, second, extras in block:
        stacks = (first,) if second is None else (first, second)
        for j, i in enumerate(idx):
            keys[i] = (tuple((len(a[j]), a[j].tobytes()) for a in stacks)
                       + (() if extras[j] is None else (extras[j],)))
    assert sorted(keys) == list(range(len(keys)))
    return [keys[i] for i in range(len(keys))]


class TestSuiteDraws:
    """Every suite judges the cases its per-draw reference draws, in order,
    in blocks of _SUITE_BLOCK: the graphs, switched subsets, kept sets and
    added edges."""

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_cases_match_the_per_draw_reference(self, name):
        block = properties._SUITE_BLOCK
        for seed in range(4):
            rng = np.random.default_rng([seed, SUITE_NAMES.index(name)])
            expected = [case_key(PER_DRAW_SUITE_DRAWS[name](rng)) for _ in range(1000)]
            for instances in (0, 1, block - 1, block, block + 1, 1000):
                blocks = [block_keys(b) for b in properties._case_blocks(name, seed, instances)]
                assert [len(b) for b in blocks] == [
                    min(block, instances - start) for start in range(0, instances, block)]
                assert [key for b in blocks for key in b] == expected[:instances]

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_cases_match_across_refill_boundaries(self, name, monkeypatch):
        for seed in (0, 5):
            rng = np.random.default_rng([seed, SUITE_NAMES.index(name)])
            expected = [case_key(PER_DRAW_SUITE_DRAWS[name](rng)) for _ in range(300)]
            for chunk in (1, 2, 3, 7):
                monkeypatch.setattr(properties, "_CHUNK", chunk)
                blocks = (block_keys(b) for b in properties._case_blocks(name, seed, 300))
                assert [key for b in blocks for key in b] == expected, chunk

    def test_benchmark_inputs_are_pinned(self):
        # the 2,000 cases of each suite at seed 1 that the property-check
        # benchmark judges: graphs, switched subsets, kept sets, added edges
        for name, digest in BENCHMARK_CASE_PINS.items():
            h = hashlib.sha256()
            for block in properties._case_blocks(name, 1, 2000):
                for key in block_keys(block):
                    h.update(repr(key).encode())
            assert h.hexdigest() == digest, name


# sha256 over repr(case_key(case)) of each suite's 2,000 cases at seed 1
BENCHMARK_CASE_PINS = {
    "switching-invariance": "ea804fc06636b04ca074de6a1a80b112d3c5e4a235f793e6e12aeb2eadd0a90c",
    "negation-symmetry": "3f787b9a33dbe7f2caabe2a8b8f152e43030cdfd943b801f658ce4f8385e9d41",
    "interlacing": "a0d644907d310209941fcbeff729b9ce3134558e283e60bb156befac961e070a",
    "balanced-spanning": "51df8fab143f22e03766a60e067493f6aabeaf57b768830c528968385e1feaca",
    "clique-bound": "e22579f452d8aba309c94376ba4dda3043dfc94a792e49b2de4775d11c411c3b",
    "edge-addition": "2db03c25c8335b56e5650e8454dbe2cff1b3cceb1ee5a7f787347a8c55fd0a23",
}


class TestTrustedGraphs:
    """Graphs built without the public checks are still valid graphs the
    checks accept, int8, read-only, and share no memory with their input."""

    OPERATIONS = {
        "generated": lambda g, rng: g,
        "switch": lambda g, rng: switch(g, [int(v) for v in np.nonzero(rng.random(g.n) < 0.5)[0]]),
        "negate": lambda g, rng: negate(g),
        "underlying": lambda g, rng: g.underlying(),
        "permute": lambda g, rng: permute(g, rng.permutation(g.n).tolist()),
        "canonical_switch": lambda g, rng: canonical_switch(g),
        "balanced_spanning_subgraph": lambda g, rng: balanced_spanning_subgraph(g),
    }

    @pytest.mark.parametrize("name", list(OPERATIONS))
    def test_derived_graphs(self, name):
        rng = np.random.default_rng([13, len(name)])
        op = self.OPERATIONS[name]
        for _ in range(500):
            g = random_connected_signed_graph(rng)
            h = op(g, rng)
            assert h.adj.dtype == np.int8 and not h.adj.flags.writeable
            assert SignedGraph(h.adj) == h
            if h is g:
                continue
            # negating the input in place must leave the result as it was
            before = h.adj.tobytes()
            g.adj.setflags(write=True)
            g.adj *= -1
            assert h.adj.tobytes() == before


    @pytest.mark.parametrize("name", ["switching-invariance", "negation-symmetry",
                                      "edge-addition"])
    def test_block_derived_graphs(self, name):
        # the stacks the block step builds per vertex count: the drawn
        # graphs, each instance's second graph, and edge-addition's first,
        # the underlying graph; a failing instance's graph is a view of the
        # first stack
        for block in properties._case_blocks(name, 13, 2 * properties._SUITE_BLOCK + 50):
            for _, first, second, _ in block:
                for a in (first, second):
                    assert a.dtype == np.int8 and not a.flags.writeable
                    assert all(SignedGraph(m).adj.tobytes() == m.tobytes() for m in a)
                # nothing written to one stack can reach the other
                assert not np.shares_memory(first, second)


class TestSuites:
    def test_all_pass_quickly(self):
        for r in run_all_suites(seed=1, instances=50):
            assert r.passed, r.log

    def test_same_seed_reproduces_logs(self):
        a = run_all_suites(seed=42, instances=25)
        b = run_all_suites(seed=42, instances=25)
        assert [(r.name, r.violations, r.log) for r in a] == [
            (r.name, r.violations, r.log) for r in b
        ]

    def test_suite_names_complete(self):
        assert set(SUITE_NAMES) == {
            "switching-invariance",
            "negation-symmetry",
            "interlacing",
            "balanced-spanning",
            "clique-bound",
            "edge-addition",
        }

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("spin-glass", seed=0)

    @pytest.mark.parametrize("instances", [-5, 2.5, True, "3"])
    def test_instances_must_be_a_non_negative_int(self, instances):
        with pytest.raises(ValueError, match="instances must be a non-negative int"):
            run_suite("interlacing", seed=0, instances=instances)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative int"):
            run_suite("interlacing", seed=seed, instances=1)

    def test_edge_addition_fails_loudly_without_a_non_edge(self, monkeypatch):
        monkeypatch.setattr(properties, "_draw_graph",
                            lambda words: (4, build_complete(4, 1).adj.tobytes()))
        with pytest.raises(RuntimeError, match="50 complete graphs"):
            run_suite("edge-addition", seed=0, instances=1)

    def test_zero_instances_allowed(self):
        r = run_suite("interlacing", seed=0, instances=0)
        assert r.instances == 0 and r.violations == 0 and r.passed


# (instances, violations, sha256 of "\n".join(log)) of every suite at seeds
# 1-3 and 2,000 instances, the scale of the property-check benchmark. With no
# violation the log is its summary line alone, so the seeds share a digest.
WORKLOAD_PINS = {
    ("switching-invariance", 1): (2000, 0, "6a5a7b900ec065f8510051cba43c1d81445d37cf6f1cd667bc2d7587125fa39d"),
    ("negation-symmetry", 1): (2000, 0, "75a28276c229ad621ea6cbc1eb0d817f0fb9018233a1c36cf3c0997a5439f118"),
    ("interlacing", 1): (2000, 0, "863b07937a9d78f4f658863572288b7aa062f52c668d151e449dec019fb694d4"),
    ("balanced-spanning", 1): (2000, 0, "c4add2c3005617f162655bf240f69725eea3b77cb87121bd1805be76be012eb3"),
    ("clique-bound", 1): (2000, 0, "de657cb90435683ac14856944c6cae510e245e1998ba52117c58a3660df8d59f"),
    ("edge-addition", 1): (2000, 0, "28871b77d537d2b6574da04f99994805fcada12be51f03e714e0fc775cb33665"),
    ("switching-invariance", 2): (2000, 0, "6a5a7b900ec065f8510051cba43c1d81445d37cf6f1cd667bc2d7587125fa39d"),
    ("negation-symmetry", 2): (2000, 0, "75a28276c229ad621ea6cbc1eb0d817f0fb9018233a1c36cf3c0997a5439f118"),
    ("interlacing", 2): (2000, 0, "863b07937a9d78f4f658863572288b7aa062f52c668d151e449dec019fb694d4"),
    ("balanced-spanning", 2): (2000, 0, "c4add2c3005617f162655bf240f69725eea3b77cb87121bd1805be76be012eb3"),
    ("clique-bound", 2): (2000, 0, "de657cb90435683ac14856944c6cae510e245e1998ba52117c58a3660df8d59f"),
    ("edge-addition", 2): (2000, 0, "28871b77d537d2b6574da04f99994805fcada12be51f03e714e0fc775cb33665"),
    ("switching-invariance", 3): (2000, 0, "6a5a7b900ec065f8510051cba43c1d81445d37cf6f1cd667bc2d7587125fa39d"),
    ("negation-symmetry", 3): (2000, 0, "75a28276c229ad621ea6cbc1eb0d817f0fb9018233a1c36cf3c0997a5439f118"),
    ("interlacing", 3): (2000, 0, "863b07937a9d78f4f658863572288b7aa062f52c668d151e449dec019fb694d4"),
    ("balanced-spanning", 3): (2000, 0, "c4add2c3005617f162655bf240f69725eea3b77cb87121bd1805be76be012eb3"),
    ("clique-bound", 3): (2000, 0, "de657cb90435683ac14856944c6cae510e245e1998ba52117c58a3660df8d59f"),
    ("edge-addition", 3): (2000, 0, "28871b77d537d2b6574da04f99994805fcada12be51f03e714e0fc775cb33665"),
}
# sha256, per seed, over the 2,000 instances of the balanced-spanning suite
# (each subgraph's bytes) and of the clique-bound suite (each report's JSON,
# float hex and details)
KERNEL_PINS = {
    1: ("d1b1c4eacafda860f8225343136b2f78bfd1e04a4e22ad75dd8ec95353efbf28",
        "22c79552b1ba89b5bccc08aa8267a9234a8076bc20f6c1084089f5f99155ea0b"),
    2: ("c0fc704814b69b9a67078f0253f9ba6640c50457eb008582a03bff0100d44619",
        "303d5809802cd715d422e4b8aa30d4351e3d424fe75e4153a6b41253b49e3e80"),
    3: ("96b344d84744f314393e4faa12633f9c006513dcd719a894867d15d0fce5119f",
        "c607017e888559705a6d9ae2ee9f7ff0b61136eff3fc65c296cb3212284921b1"),
}


def by_instance(block, kernel):
    """The results of a stacked kernel on each vertex count's first stack of
    a block, in instance order."""
    out = {}
    for idx, first, _, _ in block:
        got = kernel(first)
        assert len(got) == len(idx)
        out.update(zip(idx, got))
    return [out[i] for i in range(len(out))]


@pytest.mark.slow
class TestWorkloadScalePins:
    @pytest.mark.parametrize("name,seed", list(WORKLOAD_PINS))
    def test_suite_verdicts_and_logs(self, name, seed):
        r = run_suite(name, seed, 2000)
        digest = hashlib.sha256("\n".join(r.log).encode()).hexdigest()
        assert (r.instances, r.violations, digest) == WORKLOAD_PINS[name, seed]

    @pytest.mark.parametrize("seed", list(KERNEL_PINS))
    def test_kernel_outputs(self, seed):
        spanning, bound = hashlib.sha256(), hashlib.sha256()
        for block in properties._case_blocks("balanced-spanning", seed, 2000):
            for h in by_instance(block, _balanced_spanning_subgraphs):
                spanning.update(h.tobytes())
        for block in properties._case_blocks("clique-bound", seed, 2000):
            for rep in by_instance(block, _clique_spectral_bounds):
                bound.update((rep.to_json() + rep.observed.hex() + rep.bound_value.hex()
                              + repr(rep.details) + "\n").encode())
        assert (spanning.hexdigest(), bound.hexdigest()) == KERNEL_PINS[seed]


def odd_order_switch_flips_an_edge(g, u):
    adj = switch(g, u).adj.copy()
    if g.n % 2:
        i, j = np.argwhere(adj)[0]
        adj[i, j] = adj[j, i] = -adj[i, j]
    return SignedGraph(adj)


def odd_size_negation_is_identity(g):
    return g if g.edge_count % 2 else negate(g)


def odd_order_edge_lands_on_an_edge(g, u, v):
    """g, unsigned, with the edge (u, v) added, but for odd orders written
    over g's first edge instead, which leaves g as it was."""
    if g.n % 2:
        u, v = np.argwhere(g.adj)[0].tolist()
    adj = g.adj.copy()
    adj[u, v] = adj[v, u] = 1
    return SignedGraph(adj)


def reference_log(name, seed, instances):
    """The log of the switching-invariance, negation-symmetry or
    edge-addition suite under the one-graph faults above, one instance at a
    time through the per-draw oracles and the public eigenvalues."""
    rng = np.random.default_rng([seed, SUITE_NAMES.index(name)])
    log = []
    for i in range(instances):
        if name == "edge-addition":
            g, _, (u, v) = per_draw_edge_addition(rng)
            h = odd_order_edge_lands_on_an_edge(g, u, v)
            if not eigenvalues(g).eigenvalues[0] < eigenvalues(h).eigenvalues[0]:
                log.append(f"instance {i}: adding edge ({u},{v}) did not raise lambda_1:\n"
                           f"{format_graph(g)}")
            continue
        g = random_connected_signed_graph(rng)
        a = eigenvalues(g).eigenvalues
        if name == "switching-invariance":
            u = [int(v) for v in np.nonzero(rng.random(g.n) < 0.5)[0]]
            b = eigenvalues(odd_order_switch_flips_an_edge(g, u)).eigenvalues
            if max(abs(x - y) for x, y in zip(a, b)) > FORMULA_TOL:
                log.append(f"instance {i}: spectrum changed under switching at {u}:\n"
                           f"{format_graph(g)}")
        else:
            b = eigenvalues(odd_size_negation_is_identity(g)).eigenvalues
            if max(abs(-x - y) for x, y in zip(reversed(a), b)) > FORMULA_TOL:
                log.append(f"instance {i}: negation did not reverse the spectrum:\n"
                           f"{format_graph(g)}")
    return log + [f"{name}: {instances} instances, {len(log)} violations"]


def odd_orders_flip_an_edge(pairs):
    """The switching block step with odd_order_switch_flips_an_edge's fault."""
    def faulty(a, extras):
        first, second = pairs(a, extras)
        if a.shape[-1] % 2:
            for m in second:
                i, j = np.argwhere(m)[0]
                m[i, j] = m[j, i] = -m[i, j]
        return first, second
    return faulty


def odd_sizes_stay_unnegated(pairs):
    """The negation block step with odd_size_negation_is_identity's fault."""
    def faulty(a, extras):
        first, second = pairs(a, extras)
        for m, h in zip(a, second):
            if np.count_nonzero(m) // 2 % 2:
                h[...] = m
        return first, second
    return faulty


def odd_orders_add_an_edge_over_an_edge(pairs):
    """The edge-addition block step with odd_order_edge_lands_on_an_edge's
    fault: the drawn edge is misplaced onto the graph's first edge."""
    def faulty(a, extras):
        if a.shape[-1] % 2:
            extras = [tuple(np.argwhere(m)[0].tolist()) for m in a]
        return pairs(a, extras)
    return faulty


# suite: the fault applied to the stacked step that builds its second graphs
OPERATION_FAULTS = {
    "switching-invariance": odd_orders_flip_an_edge,
    "negation-symmetry": odd_sizes_stay_unnegated,
    "edge-addition": odd_orders_add_an_edge_over_an_edge,
}


def faulty_interlacing(case, ok):
    g, kept = case
    return ok and not (g.n % 2 and len(kept) < g.n)


def faulty_clique_bound(g, rep):
    if g.edge_count % 2:
        return make_bound_report("clique_spectral", g.n, rep.observed - 0.5, rep.observed,
                                 spectral=True)
    return rep


def faulty_balanced_spanning(g, h):
    # odd orders get g back, orders 6 and 10 the edgeless graph
    if g.n % 2:
        return g
    if g.n % 4 == 2:
        return SignedGraph(np.zeros_like(g.adj))
    return h


# suite: (kernel attribute of properties, fault applied to each of its results)
KERNEL_FAULTS = {
    "interlacing": ("_interlacing_checks", faulty_interlacing),
    "balanced-spanning": ("_balanced_spanning_subgraphs", faulty_balanced_spanning),
    "clique-bound": ("_clique_spectral_bounds", faulty_clique_bound),
}


def lambda_1(g):
    return np.linalg.eigvalsh(g.adj.astype(np.float64))[-1].item()


def kernel_reference_log(name, seed, instances):
    """The log of the interlacing, balanced-spanning or clique-bound suite
    under the fault of KERNEL_FAULTS, one instance at a time through the
    one-graph oracles."""
    fault = KERNEL_FAULTS[name][1]
    rng = np.random.default_rng([seed, SUITE_NAMES.index(name)])
    log = []
    for i in range(instances):
        g = random_connected_signed_graph(rng)
        failure = None
        if name == "interlacing":
            size = int(rng.integers(1, g.n + 1))
            kept = [int(v) for v in rng.choice(g.n, size=size, replace=False)]
            if not fault((g, kept), per_graph_interlacing_check(g, kept)):
                failure = f"interlacing failed for kept={sorted(kept)}"
        elif name == "clique-bound":
            rep = fault(g, per_graph_clique_spectral_bound(g))
            if not rep.satisfied:
                failure = (f"clique bound violated: lambda_1={rep.observed} > "
                           f"bound={rep.bound_value}")
        else:
            h = fault(g, per_graph_balanced_spanning_subgraph(g))
            if not (h.n == g.n and is_balanced(h) and h.neg_edge_count == 0):
                failure = "result not a balanced spanning subgraph"
            elif lambda_1(g) > lambda_1(h) + FORMULA_TOL:
                failure = f"lambda_1 dropped: {lambda_1(g)} > {lambda_1(h)}"
        if failure is not None:
            log.append(f"instance {i}: {failure}:\n{format_graph(g)}")
    return log + [f"{name}: {instances} instances, {len(log)} violations"]


def assert_blocks_fail_and_pass(expected, instances):
    """Violations in every block of the three, and instances that pass."""
    failed = [int(line.split(":")[0].split()[1]) for line in expected[:-1]]
    assert {i // properties._SUITE_BLOCK for i in failed} == {0, 1, 2}
    assert 0 < len(failed) < instances


class TestBlockedJudging:
    @pytest.mark.parametrize("name", list(OPERATION_FAULTS))
    def test_faulty_operations_log_like_one_instance_at_a_time(self, name, monkeypatch):
        draw, pairs, judge = properties._CHECKS[name]
        monkeypatch.setitem(properties._CHECKS, name, (draw, OPERATION_FAULTS[name](pairs), judge))
        # three blocks, the last one partial
        instances = 2 * properties._SUITE_BLOCK + 100
        result = run_suite(name, seed=11, instances=instances)
        expected = reference_log(name, 11, instances)
        assert result.log == expected
        assert result.violations == len(expected) - 1
        assert_blocks_fail_and_pass(expected, instances)

    @pytest.mark.parametrize("name", list(KERNEL_FAULTS))
    def test_faulty_kernels_log_like_one_instance_at_a_time(self, name, monkeypatch):
        attr, fault = KERNEL_FAULTS[name]
        kernel = getattr(properties, attr)

        def faulty_kernel(a, *kept):
            # each result as the one-graph fault sees it: the graph (with its
            # kept set) and the kernel's result, a subgraph restacked
            got, graphs = kernel(a, *kept), [SignedGraph(m) for m in a]
            if name == "interlacing":
                return [fault(case, ok) for case, ok in zip(zip(graphs, *kept), got)]
            if name == "balanced-spanning":
                return np.array([fault(g, SignedGraph(h)).adj for g, h in zip(graphs, got)])
            return [fault(g, result) for g, result in zip(graphs, got)]

        monkeypatch.setattr(properties, attr, faulty_kernel)
        # three blocks, the last one partial
        instances = 2 * properties._SUITE_BLOCK + 100
        result = run_suite(name, seed=11, instances=instances)
        expected = kernel_reference_log(name, 11, instances)
        assert result.log == expected
        assert result.violations == len(expected) - 1
        assert_blocks_fail_and_pass(expected, instances)
        if name == "balanced-spanning":
            assert any("lambda_1 dropped" in line for line in expected)
            assert any("not a balanced spanning" in line for line in expected)


def spy_on_trusted(monkeypatch):
    """The graphs SignedGraph._trusted makes from now on, in order."""
    made, trusted = [], SignedGraph._trusted.__func__

    def counted(cls, adj):
        made.append(trusted(cls, adj))
        return made[-1]

    monkeypatch.setattr(SignedGraph, "_trusted", classmethod(counted))
    return made


class TestStackNativeSuites:
    """A suite carries its instances as stacks: a passing run makes no
    SignedGraph, and a failing one makes one per failing instance, for its
    log line."""

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_passing_suite_makes_no_graph(self, name, monkeypatch):
        made = spy_on_trusted(monkeypatch)
        assert run_suite(name, seed=5, instances=300).passed
        assert made == []

    @pytest.mark.parametrize("name", list(OPERATION_FAULTS))
    def test_failing_instances_alone_get_a_graph(self, name, monkeypatch):
        expected = reference_log(name, 5, 300)
        draw, pairs, judge = properties._CHECKS[name]
        monkeypatch.setitem(properties._CHECKS, name, (draw, OPERATION_FAULTS[name](pairs), judge))
        made = spy_on_trusted(monkeypatch)
        result = run_suite(name, seed=5, instances=300)
        assert result.log == expected
        assert 0 < result.violations < 300
        # one graph per failing instance, the one its log line shows; the
        # judges make them a vertex count at a time
        assert sorted(format_graph(g) for g in made) == sorted(
            line.split(":\n", 1)[1] for line in result.log[:-1])
