"""Seeded randomized property suites.

Each suite draws its own instances from a deterministic generator, so a fixed
seed reproduces verdicts and logs exactly. A violation count of zero is the
pass condition; violating instances are recorded in the log.

A suite stands for numpy Generator calls on a generator seeded by (seed,
suite) but makes none: every draw of every instance, the graph and the
suite's own switched subset, kept set or added edge, is replayed from one
stream of that generator's raw 64-bit words (_Words), which gives the same
values the calls would.

Instances are drawn in blocks and judged a block at a time, so the spectra a
suite computes itself come from one stacked eigensolve per vertex count per
block. interlacing_check, clique_spectral_bound and
balanced_spanning_subgraph are judged through their stacked kernels, one
call per block, which give each graph the result of the one-graph function;
is_balanced, switch and negate are called one graph at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import _balanced_spanning_subgraphs, _clique_spectral_bounds
from .core import SignedGraph, is_balanced, negate, switch
from .graphio import format_graph
from .spectral import FORMULA_TOL, _by_shape, _interlacing_checks, _stacked_spectra

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suite", "run_all_suites",
           "random_connected_signed_graph"]


@dataclass
class SuiteResult:
    name: str
    instances: int
    violations: int
    log: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.violations == 0


# bit generators whose next 32-bit draw is the low half of a fresh 64-bit
# word, the high half kept for the next one (has_uint32, uinteger)
_REPLAYABLE = ("PCG64", "PCG64DXSM", "Philox", "SFC64")
# raw words a stream takes from its bit generator at a time
_CHUNK = 256


class _Words:
    """numpy Generator draws replayed from the raw 64-bit words of a bit
    generator, in integer arithmetic, with the same stream.

    It reads the generator's state once, when it opens, and then takes words
    _CHUNK at a time with random_raw, ahead of those it uses; close() puts
    the generator where the replayed calls would have left it. numpy draws a
    bounded integer by Lemire's method on a 32-bit half (Lemire, ACM TOMACS
    29, 2019), shuffles with masked rejection on 32-bit halves, samples
    without replacement by Floyd's algorithm (Bentley and Floyd, CACM 30(9),
    1987), and takes a double from the top 53 bits of a whole word.
    """

    def __init__(self, bg):
        state = bg.state
        if state["bit_generator"] not in _REPLAYABLE:
            raise ValueError(f"random_connected_signed_graph replays {', '.join(_REPLAYABLE)} "
                             f"draws, not {state['bit_generator']}")
        self._bg, self._state = bg, state
        self._spare, self._half = state["has_uint32"], state["uinteger"]
        self._taken, self._chunk = 0, iter(())
        # the next whole 64-bit word
        self.word = self._words().__next__

    def _words(self):
        while True:
            self._chunk = iter(self._bg.random_raw(_CHUNK).tolist())
            self._taken += _CHUNK
            yield from self._chunk

    def next32(self):
        """The next 32-bit draw: the spare high half if there is one, else
        the low half of a new word, keeping its high half."""
        if self._spare:
            self._spare = 0
            return self._half
        w = self.word()
        self._spare, self._half = 1, w >> 32
        return w & 0xFFFFFFFF

    def below(self, r):
        """integers(0, r) for 1 <= r < 2**32; integers(0, 1) draws nothing."""
        if r == 1:
            return 0
        m = self.next32() * r
        if m & 0xFFFFFFFF < r:
            least = (1 << 32) % r
            while m & 0xFFFFFFFF < least:
                m = self.next32() * r
        return m >> 32

    def masked(self, i):
        """A draw from 0..i by masked rejection, one step of permutation."""
        mask = (1 << i.bit_length()) - 1
        j = self.next32() & mask
        while j > i:
            j = self.next32() & mask
        return j

    def subset(self, n):
        """The vertices v < n with rng.random(n)[v] < 0.5, that is with a
        word below 2**63."""
        word = self.word
        return [v for v in range(n) if word() < 1 << 63]

    def sample(self, n, size):
        """rng.choice(n, size, replace=False) for size <= n: Floyd's algorithm
        with draws from 0..j, then a shuffle with draws from 0..i."""
        out, seen = [], set()
        for j in range(n - size, n):
            v = self.below(j + 1)
            if v in seen:
                v = j
            seen.add(v)
            out.append(v)
        for i in range(size - 1, 0, -1):
            k = self.below(i + 1)
            out[i], out[k] = out[k], out[i]
        return out

    def close(self):
        """Put the bit generator where the replayed calls would have left it:
        back to the entry state with the new spare half, then as many words
        on as were used; random_raw keeps the spare half, which advance()
        would clear."""
        state = self._state
        state["has_uint32"], state["uinteger"] = self._spare, self._half
        self._bg.state = state
        self._bg.random_raw(self._taken - self._chunk.__length_hint__())


def random_connected_signed_graph(rng: np.random.Generator, n_min: int = 3,
                                  n_max: int = 10) -> SignedGraph:
    """Random spanning tree plus density-controlled extra signed edges.

    Draws, in this order: n = rng.integers(n_min, n_max + 1), the vertex
    order rng.permutation(n), for idx = 1..n-1 the parent
    order[rng.integers(0, idx)] of order[idx] and its sign
    2 * rng.integers(0, 2) - 1, the density rng.uniform(0.15, 0.75), then
    for each vertex pair i < j not in the tree one rng.random() < density
    and, on a hit, a sign. Rather than call rng per draw, it replays those
    calls from a stream of rng's raw 64-bit words (_Words) and leaves rng
    exactly where the calls would.
    """
    for value in (n_min, n_max):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"n_min and n_max must be ints, got {value!r}")
    n_min, n_max = int(n_min), int(n_max)
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got {n_min} and {n_max}")
    words = _Words(rng.bit_generator)
    g = _draw_graph(words, n_min, n_max)
    words.close()
    return g


def _draw_graph(words, n_min=3, n_max=10):
    """The draws of random_connected_signed_graph, from the stream words."""
    word, next32, below = words.word, words.next32, words.below
    n = n_min + below(n_max - n_min + 1)
    # permutation(n): swap i with a draw from 0..i
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = words.masked(i)
        order[i], order[j] = order[j], order[i]
    # a sign is 2 * integers(0, 2) - 1, the top bit of a 32-bit half; the
    # matrix is built as bytes, -1 as 255
    adj = bytearray(n * n)
    for idx in range(1, n):
        parent, child = order[below(idx)], order[idx]
        adj[parent * n + child] = adj[child * n + parent] = 1 if next32() >> 31 else 255
    # uniform(low, high) is low + (high - low) * random(), and random() is
    # (word >> 11) * 2**-53, so random() < density iff word < limit
    density = 0.15 + (0.75 - 0.15) * ((word() >> 11) * 2.0 ** -53)
    limit = math.ceil(density * 2.0 ** 53) << 11
    for i in range(n):
        for k in range(i * n + i + 1, i * n + n):
            if not adj[k] and word() < limit:
                adj[k] = adj[(k - i * n) * n + i] = 1 if next32() >> 31 else 255
    return SignedGraph._trusted(np.frombuffer(adj, dtype=np.int8).reshape(n, n))


def _paired_spectra(cases) -> list[np.ndarray]:
    """Descending spectra, one (2, n) array per case, of the two same-order
    graphs that open each case, in case order: one stacked solve per vertex
    count."""
    return _by_shape([np.array((case[0].adj, case[1].adj)) for case in cases],
                     _stacked_spectra)


# Each suite is a draw, which makes every draw of one instance from the
# suite's stream along with the cheap graph operations, and a judge, which
# takes a block of drawn cases and returns one failure message or None per
# case, in order.

def _draw_switching_invariance(words):
    g = _draw_graph(words)
    u = words.subset(g.n)
    return g, switch(g, u), u


def _judge_switching_invariance(cases) -> list[str | None]:
    return [f"spectrum changed under switching at {u}:\n{format_graph(g)}"
            if np.abs(w[0] - w[1]).max() > FORMULA_TOL else None
            for (g, _, u), w in zip(cases, _paired_spectra(cases))]


def _draw_negation_symmetry(words):
    g = _draw_graph(words)
    return g, negate(g)


def _judge_negation_symmetry(cases) -> list[str | None]:
    return [f"negation did not reverse the spectrum:\n{format_graph(g)}"
            if np.abs(-w[0][::-1] - w[1]).max() > FORMULA_TOL else None
            for (g, _), w in zip(cases, _paired_spectra(cases))]


def _draw_interlacing(words):
    g = _draw_graph(words)
    # size = integers(1, n + 1)
    return g, words.sample(g.n, 1 + words.below(g.n))


def _judge_interlacing(cases) -> list[str | None]:
    return [None if ok else
            f"interlacing failed for kept={sorted(kept)}:\n{format_graph(g)}"
            for (g, kept), ok in zip(cases, _interlacing_checks(cases))]


def _judge_balanced_spanning(cases) -> list[str | None]:
    subgraphs = _balanced_spanning_subgraphs(cases)
    failures = [None if h.n == g.n and is_balanced(h) and h.neg_edge_count == 0 else
                f"result not a balanced spanning subgraph:\n{format_graph(g)}"
                for g, h in zip(cases, subgraphs)]
    spanning = [i for i, failure in enumerate(failures) if failure is None]
    spectra = _paired_spectra([(cases[i], subgraphs[i]) for i in spanning])
    for i, w in zip(spanning, spectra):
        lam_g, lam_h = w[:, 0].tolist()
        if lam_g > lam_h + FORMULA_TOL:
            failures[i] = f"lambda_1 dropped: {lam_g} > {lam_h}:\n{format_graph(cases[i])}"
    return failures


def _judge_clique_bound(cases) -> list[str | None]:
    return [None if rep.satisfied else
            f"clique bound violated: lambda_1={rep.observed} > "
            f"bound={rep.bound_value}:\n{format_graph(g)}"
            for g, rep in zip(cases, _clique_spectral_bounds(cases))]


def _draw_edge_addition(words):
    # connected unsigned graph with a spare non-edge
    for _ in range(50):
        g = _draw_graph(words).underlying()
        rows = g.adj.tolist()
        non_edges = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
                     if rows[i][j] == 0]
        if non_edges:
            break
    else:
        raise RuntimeError("edge-addition drew 50 complete graphs in a row")
    u, v = non_edges[words.below(len(non_edges))]
    adj = np.array(g.adj)
    adj[u, v] = adj[v, u] = 1
    return g, SignedGraph._trusted(adj), (u, v)


def _judge_edge_addition(cases) -> list[str | None]:
    return [None if w[0, 0] < w[1, 0] else
            f"adding edge ({u},{v}) did not raise lambda_1:\n{format_graph(g)}"
            for (g, _, (u, v)), w in zip(cases, _paired_spectra(cases))]


# (draw, judge) of each suite; the order fixes each suite's index in
# SUITE_NAMES, which seeds its stream
_CHECKS = {
    "switching-invariance": (_draw_switching_invariance, _judge_switching_invariance),
    "negation-symmetry": (_draw_negation_symmetry, _judge_negation_symmetry),
    "interlacing": (_draw_interlacing, _judge_interlacing),
    "balanced-spanning": (_draw_graph, _judge_balanced_spanning),
    "clique-bound": (_draw_graph, _judge_clique_bound),
    "edge-addition": (_draw_edge_addition, _judge_edge_addition),
}
SUITE_NAMES = tuple(_CHECKS)
# instances drawn before they are judged together; larger blocks hold more
# graphs at once for little further gain
_SUITE_BLOCK = 256


def _check_count(name: str, value) -> None:
    # bool is a subclass of int
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative int, got {value!r}")


def _case_blocks(name, seed, instances):
    """The cases run_suite judges, in blocks of _SUITE_BLOCK, all drawn from
    one stream on a generator derived from (seed, suite), so suites are
    independent."""
    words = _Words(np.random.default_rng([seed, SUITE_NAMES.index(name)]).bit_generator)
    draw = _CHECKS[name][0]
    for start in range(0, instances, _SUITE_BLOCK):
        yield [draw(words) for _ in range(min(_SUITE_BLOCK, instances - start))]


def run_suite(name: str, seed: int, instances: int = 200) -> SuiteResult:
    if name not in _CHECKS:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    _check_count("instances", instances)
    _check_count("seed", seed)
    judge = _CHECKS[name][1]
    result = SuiteResult(name=name, instances=instances, violations=0)
    start = 0
    for cases in _case_blocks(name, seed, instances):
        for i, failure in enumerate(judge(cases), start):
            if failure is not None:
                result.violations += 1
                result.log.append(f"instance {i}: {failure}")
        start += len(cases)
    result.log.append(
        f"{name}: {instances} instances, {result.violations} violations"
    )
    return result


def run_all_suites(seed: int, instances: int = 200) -> list[SuiteResult]:
    return [run_suite(name, seed, instances) for name in SUITE_NAMES]
