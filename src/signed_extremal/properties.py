"""Seeded randomized property suites.

Each suite draws its own instances from a deterministic generator, so a fixed
seed reproduces verdicts and logs exactly. A violation count of zero is the
pass condition; violating instances are recorded in the log.

A suite stands for numpy Generator calls on a generator seeded by (seed,
suite) but makes none: every draw of every instance, the graph and the
suite's own switched subset, kept set or added edge, is replayed from that
generator's raw 64-bit words, which gives the same values the calls would.
The words wait in a plain list with an integer cursor (_Words). Each graph
is read from it in one pass of _draw_graph, and the suite's own draws read
the same list.

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
    _CHUNK at a time with random_raw, ahead of those it uses, into the list
    buf. pos is the next unused word, and spare and half are the spare high
    32-bit half that numpy keeps (has_uint32, uinteger). _draw_graph reads
    them into locals, reads the words of a graph in place and writes them
    back once; the methods below read one draw at a time. Used words are
    dropped at the end of each graph, never inside one, which leaves buf
    under _CHUNK words plus one graph's reservation. close() puts the
    generator where the replayed calls would have left it.

    numpy draws a bounded integer by Lemire's method on a 32-bit half
    (Lemire, ACM TOMACS 29, 2019), shuffles with masked rejection on 32-bit
    halves, samples without replacement by Floyd's algorithm (Bentley and
    Floyd, CACM 30(9), 1987), and takes a double from the top 53 bits of a
    whole word.
    """

    def __init__(self, bg):
        state = bg.state
        if state["bit_generator"] not in _REPLAYABLE:
            raise ValueError(f"random_connected_signed_graph replays {', '.join(_REPLAYABLE)} "
                             f"draws, not {state['bit_generator']}")
        self._bg, self._state = bg, state
        self.spare, self.half = state["has_uint32"], state["uinteger"]
        # the words taken from the generator so far, of which buf holds the
        # last len(buf)
        self.buf, self.pos, self._taken = [], 0, 0

    def take(self, k):
        """Make at least k unused words ready, whole chunks at a time; it
        only appends, so a graph may call it while it reads buf in place."""
        short = k - (len(self.buf) - self.pos)
        if short > 0:
            count = -(-short // _CHUNK) * _CHUNK
            self.buf += self._bg.random_raw(count).tolist()
            self._taken += count

    def next32(self):
        """The next 32-bit draw: the spare high half if there is one, else
        the low half of a new word, keeping its high half."""
        if self.spare:
            self.spare = 0
            return self.half
        if self.pos == len(self.buf):
            self.take(1)
        w = self.buf[self.pos]
        self.pos += 1
        self.spare, self.half = 1, w >> 32
        return w & 0xFFFFFFFF

    def below(self, r):
        """integers(0, r) for 1 <= r < 2**32; integers(0, 1) draws nothing."""
        if r == 1:
            return 0
        m = self.next32() * r
        if m & 0xFFFFFFFF < r:
            m = self.reject(m, r)
        return m >> 32

    def reject(self, m, r):
        """The rest of Lemire's draw from 0..r-1 for m, a 32-bit half times
        r whose low half fell below r: draw again while the low half is below
        2**32 % r; the result is the accepted m."""
        least = (1 << 32) % r
        while m & 0xFFFFFFFF < least:
            m = self.next32() * r
        return m

    def subset(self, n):
        """The vertices v < n with rng.random(n)[v] < 0.5, that is with a
        word below 2**63."""
        self.take(n)
        pos = self.pos
        self.pos = pos + n
        return [v for v, w in enumerate(self.buf[pos:pos + n]) if w < 1 << 63]

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
        state["has_uint32"], state["uinteger"] = self.spare, self.half
        self._bg.state = state
        self._bg.random_raw(self._taken - (len(self.buf) - self.pos))


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


def _pair_cells(n):
    """The cell i * n + j and its mirror j * n + i of each vertex pair i < j
    of an n-vertex matrix, row by row."""
    return tuple((i * n + j, j * n + i) for i in range(n) for j in range(i + 1, n))


# the pair cells of the orders up to the default n_max; a larger order
# builds its own per graph, so the table stays this size
_PAIR_CELLS = tuple(_pair_cells(n) for n in range(11))


def _draw_graph(words, n_min=3, n_max=10):
    """The draws of random_connected_signed_graph, from the stream words.

    Every draw after n is read in place from words.buf. A graph reads at
    most (n - 1)(n - 2) / 2 pair words, one density word and 32-bit halves
    for n - 1 shuffle steps, 2(n - 1) tree draws and one sign per pair, under
    n * n + 2 words in all, so that many are made ready first. A rejected
    draw reads past them and makes them ready again.
    """
    n = n_min + words.below(n_max - n_min + 1)
    need = n * n + 2
    buf = words.buf
    if len(buf) - words.pos < need:
        words.take(need)
    pos, spare, half = words.pos, words.spare, words.half
    # permutation(n): swap i with a draw from 0..i, a 32-bit half under the
    # least all-ones mask that covers i, rejected while above i
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while True:
            if spare:
                j, spare = half & mask, 0
            else:
                w = buf[pos]
                pos += 1
                j, spare, half = w & mask, 1, w >> 32
            if j <= i:
                break
            if len(buf) - pos < need:
                words.pos = pos
                words.take(need)
        order[i], order[j] = order[j], order[i]
    # the parent of order[idx] is order[integers(0, idx)], by Lemire's
    # method, and a sign is 2 * integers(0, 2) - 1, the top bit of a 32-bit
    # half; the matrix is built as bytes, -1 as 255
    adj = bytearray(n * n)
    for idx in range(1, n):
        if idx == 1:
            # integers(0, 1) draws nothing
            parent = order[0]
        else:
            if spare:
                m, spare = half * idx, 0
            else:
                w = buf[pos]
                pos += 1
                m, spare, half = (w & 0xFFFFFFFF) * idx, 1, w >> 32
            if m & 0xFFFFFFFF < idx:
                words.pos, words.spare, words.half = pos, spare, half
                m = words.reject(m, idx)
                words.take(need)
                pos, spare, half = words.pos, words.spare, words.half
            parent = order[m >> 32]
        child = order[idx]
        if spare:
            s, spare = half, 0
        else:
            s = buf[pos]
            pos += 1
            spare, half = 1, s >> 32
        adj[parent * n + child] = adj[child * n + parent] = 1 if s & 0x80000000 else 255
    # uniform(low, high) is low + (high - low) * random(), and random() is
    # (word >> 11) * 2**-53, so random() < density iff word < limit
    density = 0.15 + (0.75 - 0.15) * ((buf[pos] >> 11) * 2.0 ** -53)
    pos += 1
    limit = math.ceil(density * 2.0 ** 53) << 11
    for k, mirror in _PAIR_CELLS[n] if n < len(_PAIR_CELLS) else _pair_cells(n):
        if not adj[k]:
            w = buf[pos]
            pos += 1
            if w < limit:
                if spare:
                    s, spare = half, 0
                else:
                    s = buf[pos]
                    pos += 1
                    spare, half = 1, s >> 32
                adj[k] = adj[mirror] = 1 if s & 0x80000000 else 255
    # a graph boundary: drop the words read so far
    del buf[:pos]
    words.pos, words.spare, words.half = 0, spare, half
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
