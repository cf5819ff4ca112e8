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

Instances are drawn and judged in blocks, and a block is carried as stacks:
a drawn graph is its order and its n * n cell bytes, and a block step joins
the cells of each vertex count into one read-only (k, n, n) int8 stack, with
the instances' indices and the suite's own draws beside it as plain lists.
The paired suites build their second graphs a stack at a time (switchings by
core._switched, negations, or the underlying graphs plus an edge), and their
judges solve each count's two stacks at once. interlacing_check,
clique_spectral_bound and balanced_spanning_subgraph are judged through
stacked kernels that take one count's stack. A SignedGraph is made only for
the log of an instance that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import _balanced_spanning_subgraphs, _clique_spectral_bounds
from .core import SignedGraph, _groups, _is_int, _switched
from .graphio import format_graph
from .spectral import FORMULA_TOL, _interlacing_checks, _stacked_spectra

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
        if not _is_int(value):
            raise ValueError(f"n_min and n_max must be ints, got {value!r}")
    n_min, n_max = int(n_min), int(n_max)
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got {n_min} and {n_max}")
    words = _Words(rng.bit_generator)
    n, cells = _draw_graph(words, n_min, n_max)
    words.close()
    return SignedGraph._trusted(np.frombuffer(cells, dtype=np.int8).reshape(n, n))


def _pair_cells(n):
    """The cell i * n + j and its mirror j * n + i of each vertex pair i < j
    of an n-vertex matrix, row by row."""
    return tuple((i * n + j, j * n + i) for i in range(n) for j in range(i + 1, n))


# the pair cells of the orders up to the default n_max; a larger order
# builds its own per graph, so the table stays this size
_PAIR_CELLS = tuple(_pair_cells(n) for n in range(11))


def _draw_graph(words, n_min=3, n_max=10):
    """The draws of random_connected_signed_graph, from the stream words: the
    order n and the n * n cells of its sign matrix as bytes, -1 as 255.

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
    # half
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
    return n, adj


# Each suite is a draw of one instance (n, cells, extra) from the suite's
# stream, an optional pairs step and a judge of one vertex count's stacks,
# which returns the message of each failing instance by its stack index.

def _block_step(drawn, pairs):
    """Per vertex count of a block of drawn instances: their indices, the
    read-only (k, n, n) int8 stacks of their first and second graphs, and
    their extras. The first stack joins the drawn cells; pairs maps it and
    the extras to the first and the second stack, and without pairs there is
    no second stack."""
    block = []
    for idx in _groups([d[0] for d in drawn]):
        n, extras = drawn[idx[0]][0], [drawn[i][2] for i in idx]
        first = np.frombuffer(b"".join([drawn[i][1] for i in idx]), dtype=np.int8)
        first, second = first.reshape(-1, n, n), None
        if pairs is not None:
            first, second = pairs(first, extras)
            first.setflags(write=False)
            second.setflags(write=False)
        block.append((idx, first, second, extras))
    return block


def _shown(m):
    """format_graph of the int8 matrix m, a view of a read-only stack."""
    return format_graph(SignedGraph._trusted(m))


def _paired(failed, message):
    """The judge giving message(text, extra) to each instance whose
    descending spectra x, y give failed(x, y), text its first graph shown:
    one solve of the two stacks, verdicts on plain lists."""
    def judge(first, second, extras) -> dict[int, str]:
        w = _stacked_spectra(np.array((first, second)))
        return {j: message(_shown(first[j]), extras[j])
                for j, (x, y) in enumerate(zip(w[0].tolist(), w[1].tolist())) if failed(x, y)}
    return judge


def _draw_switching(words):
    n, cells = _draw_graph(words)
    return n, cells, words.subset(n)


def _draw_interlacing(words):
    n, cells = _draw_graph(words)
    # size = integers(1, n + 1)
    return n, cells, words.sample(n, 1 + words.below(n))


def _judge_interlacing(a, _, kept) -> dict[int, str]:
    return {j: f"interlacing failed for kept={sorted(kept[j])}:\n{_shown(a[j])}"
            for j, ok in enumerate(_interlacing_checks(a, kept)) if not ok}


def _judge_balanced_spanning(a, *_) -> dict[int, str]:
    h = _balanced_spanning_subgraphs(a)
    # a spanning subgraph without negative edges is balanced; subgraphs are
    # looked at alone only if the stack holds a negative entry
    bad = ([j for j, m in enumerate(h) if np.count_nonzero(m == -1)]
           if np.count_nonzero(h == -1) else ())
    failures = {j: f"result not a balanced spanning subgraph:\n{_shown(a[j])}" for j in bad}
    ok = [j for j in range(len(a)) if j not in failures]
    if ok:
        w = _stacked_spectra(np.array((a[ok], h[ok])))
        for j, x, y in zip(ok, w[0].tolist(), w[1].tolist()):
            if x[0] > y[0] + FORMULA_TOL:
                failures[j] = f"lambda_1 dropped: {x[0]} > {y[0]}:\n{_shown(a[j])}"
    return failures


def _judge_clique_bound(a, *_) -> dict[int, str]:
    return {j: f"clique bound violated: lambda_1={rep.observed} > "
               f"bound={rep.bound_value}:\n{_shown(a[j])}"
            for j, rep in enumerate(_clique_spectral_bounds(a)) if not rep.satisfied}


def _draw_edge_addition(words):
    # connected unsigned graph with a spare non-edge: a pair cell holding 0
    for _ in range(50):
        n, cells = _draw_graph(words)
        empty = [k for k, _ in _PAIR_CELLS[n] if not cells[k]]
        if empty:
            break
    else:
        raise RuntimeError("edge-addition drew 50 complete graphs in a row")
    return n, cells, divmod(empty[words.below(len(empty))], n)


def _add_edges(a, edges):
    """The (k, n, n) stack a of 0/1 matrices and a copy with the edge
    edges[i] = (u, v) made 1 in its matrix i."""
    n, out = a.shape[-1], a.copy()
    out.reshape(-1)[[i * n * n + c for i, (u, v) in enumerate(edges)
                     for c in (u * n + v, v * n + u)]] = 1
    return a, out


def _draw_plain(words):
    return *_draw_graph(words), None


# (draw, pairs of _block_step or None, judge) of each suite; the order
# fixes each suite's index in SUITE_NAMES, which seeds its stream
_CHECKS = {
    "switching-invariance": (
        _draw_switching,
        lambda a, subsets: (a, _switched(a, subsets)),
        _paired(lambda x, y: max(abs(p - q) for p, q in zip(x, y)) > FORMULA_TOL,
                lambda text, u: f"spectrum changed under switching at {u}:\n{text}")),
    "negation-symmetry": (
        _draw_plain, lambda a, _: (a, -a),
        _paired(lambda x, y: max(abs(-p - q) for p, q in zip(reversed(x), y)) > FORMULA_TOL,
                lambda text, _: f"negation did not reverse the spectrum:\n{text}")),
    "interlacing": (_draw_interlacing, None, _judge_interlacing),
    "balanced-spanning": (_draw_plain, None, _judge_balanced_spanning),
    "clique-bound": (_draw_plain, None, _judge_clique_bound),
    # the underlying graphs, and each with its drawn edge added
    "edge-addition": (
        _draw_edge_addition, lambda a, edges: _add_edges(np.abs(a), edges),
        _paired(lambda x, y: not x[0] < y[0],
                lambda text, e: f"adding edge ({e[0]},{e[1]}) did not raise lambda_1:\n{text}")),
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
    """The blocks run_suite judges (_block_step), of _SUITE_BLOCK instances,
    all drawn from one stream on a generator derived from (seed, suite), so
    suites are independent."""
    words = _Words(np.random.default_rng([seed, SUITE_NAMES.index(name)]).bit_generator)
    draw, pairs, _ = _CHECKS[name]
    for start in range(0, instances, _SUITE_BLOCK):
        yield _block_step([draw(words) for _ in range(min(_SUITE_BLOCK, instances - start))],
                          pairs)


def run_suite(name: str, seed: int, instances: int = 200) -> SuiteResult:
    if name not in _CHECKS:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    _check_count("instances", instances)
    _check_count("seed", seed)
    judge = _CHECKS[name][2]
    result = SuiteResult(name=name, instances=instances, violations=0)
    blocks = _case_blocks(name, seed, instances)
    for start, block in zip(range(0, instances, _SUITE_BLOCK), blocks):
        # each failure by its index in the block, logged in instance order
        failures = {idx[j]: failure for idx, *stacks in block
                    for j, failure in judge(*stacks).items()}
        result.violations += len(failures)
        result.log += [f"instance {start + i}: {failures[i]}" for i in sorted(failures)]
    result.log.append(
        f"{name}: {instances} instances, {result.violations} violations"
    )
    return result


def run_all_suites(seed: int, instances: int = 200) -> list[SuiteResult]:
    return [run_suite(name, seed, instances) for name in SUITE_NAMES]
