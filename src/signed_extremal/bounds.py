"""Closed-form bounds and bound certificates for triangle-constrained signed graphs.

Integer bounds are compared exactly; spectral bounds get 1e-9 slack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._render import json_text
from .core import SignedGraph
from .graphio import format_graph
from .spectral import SpectralError, _eigh_values, _symmetric_eigh

__all__ = [
    "SPECTRAL_SLACK",
    "BoundReport",
    "make_bound_report",
    "edge_bound",
    "neg_edge_bound",
    "rho_bound",
    "balanced_clique_number",
    "clique_spectral_bound",
    "balanced_spanning_subgraph",
]

SPECTRAL_SLACK = 1e-9
# balanced_clique_number branches over every clique of the underlying graph
_CLIQUE_MAX_ORDER = 14
# matrix entries per stacked solve of candidate switchings (32 MB as float64)
_STACK_ENTRIES = 1 << 22


@dataclass(frozen=True)
class BoundReport:
    """Outcome of comparing an observed quantity against a bound.

    `satisfied` always means observed <= bound_value (+ slack for spectral
    bounds). Theorem verifications also give `passed`, which further
    requires the equality case and witness identification to hold.
    """

    bound_name: str
    n: int
    bound_value: float | int
    observed: float | int
    satisfied: bool
    witness: SignedGraph | None = None
    passed: bool | None = None
    notes: str = ""
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        witness = format_graph(self.witness) if self.witness is not None else None
        return json_text({"bound_name": self.bound_name, "n": self.n,
                          "bound_value": self.bound_value, "observed": self.observed,
                          "satisfied": self.satisfied, "witness": witness,
                          "passed": self.passed, "notes": self.notes})


def make_bound_report(name: str, n: int, bound, observed, witness=None,
                      spectral: bool = False, *, passed: bool | None = None,
                      notes: str = "", details: dict | None = None) -> BoundReport:
    tol = SPECTRAL_SLACK if spectral else 0
    return BoundReport(bound_name=name, n=n, bound_value=bound, observed=observed,
                       satisfied=bool(observed <= bound + tol), witness=witness,
                       passed=passed, notes=notes, details={} if details is None else details)


def _check_n(n) -> None:
    # bool is a subclass of int; numpy integers are not ints
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n must be an int, got {n!r}")


def _check_order(n: int):
    _check_n(n)
    if n < 4:
        raise ValueError(f"bound defined for n >= 4, got {n}")


def edge_bound(n: int) -> int:
    """Maximum edges of a connected unbalanced negative-triangle-free signed graph."""
    _check_order(n)
    return n * (n - 1) // 2 - (n - 2)


def neg_edge_bound(n: int) -> int:
    """Maximum negative edges over the extremal family's switching class."""
    _check_order(n)
    return ((n - 2) // 2) * ((n - 1) // 2) + n - 2


def rho_bound(n: int) -> float:
    """Maximum spectral radius of a connected unbalanced negative-triangle-free signed graph."""
    _check_order(n)
    return 0.5 * (math.sqrt(n * n - 8) + n - 4)


def balanced_clique_number(g: SignedGraph) -> int:
    """Largest vertex count of a balanced complete induced signed subgraph.
    Rejects graphs above _CLIQUE_MAX_ORDER vertices to bound the cost."""
    return _balanced_clique_numbers(g.adj[None])[0]


def _grow_balanced_clique(pos, neg, size, same, other, best):
    """The larger of best, size and every balanced clique grown from the
    current one of `size` vertices by the vertices that may join with the
    root's spin (bitset same) or with the other spin (bitset other)."""
    if size > best:
        best = size
    while size + (same | other).bit_count() > best:
        low = (same | other) & -(same | other)
        w = low.bit_length() - 1
        # with the root's spin, w keeps the vertices of same it sees positively
        # and those of other it sees negatively; with the other spin, the reverse
        p, q = (pos[w], neg[w]) if same & low else (neg[w], pos[w])
        same, other = same & ~low, other & ~low
        best = _grow_balanced_clique(pos, neg, size + 1, same & p, other & q, best)
    return best


def _balanced_clique_numbers(a: np.ndarray) -> list[int]:
    """balanced_clique_number of each matrix of a (k, n, n) int8 stack, in
    order, from neighbour bitsets. A clique is balanced iff its vertices take
    spins with sign(u,v) = spin(u)spin(v); it grows from its lowest vertex,
    spin +1, by the lowest candidate, taken then left out, while a larger one
    can still come."""
    if a.shape[-1] > _CLIQUE_MAX_ORDER:
        raise ValueError(f"balanced clique search capped at {_CLIQUE_MAX_ORDER} vertices")
    # each row's +1 and -1 entries as the bits of a little-endian word of one
    # or two bytes; a matmul would run numpy code that raises the suites' peak RSS
    words = [np.packbits(a == s, axis=2, bitorder="little") for s in (1, -1)]
    out = []
    for pos, neg in zip(*(w.view(f"<u{w.shape[2]}")[:, :, 0].tolist() for w in words)):
        best = 1  # a single vertex is a balanced complete subgraph
        for r in range(len(pos)):
            same, other = pos[r] & (-2 << r), neg[r] & (-2 << r)
            if (same | other).bit_count() >= best:
                best = _grow_balanced_clique(pos, neg, 1, same, other, best)
        out.append(best)
    return out


def clique_spectral_bound(g: SignedGraph) -> BoundReport:
    """Compare l1(g) against sqrt(2e (wb-1)/wb) for the balanced clique number wb."""
    return _clique_spectral_bounds(g.adj[None])[0]


def _clique_spectral_bounds(a: np.ndarray) -> list[BoundReport]:
    """clique_spectral_bound of each matrix of a (k, n, n) int8 stack, in
    order, with one eigh and one clique search; no edge anywhere raises
    before the cap."""
    edges = [int(np.count_nonzero(m)) // 2 for m in a]
    if 0 in edges:
        raise ValueError("clique spectral bound needs at least one edge")
    cliques, lam1 = _balanced_clique_numbers(a), _eigh_values(a)[:, -1].tolist()
    return [make_bound_report("clique_spectral", a.shape[-1], math.sqrt(2.0 * e * (wb - 1) / wb),
                              w, spectral=True, details={"balanced_clique_number": wb, "edges": e})
            for e, wb, w in zip(edges, cliques, lam1)]


def balanced_spanning_subgraph(g: SignedGraph) -> SignedGraph:
    """A balanced spanning subgraph H with l1(g) <= l1(H).

    Switches g so the principal eigenvector is entrywise nonnegative, then
    removes all negative edges. Eigenvector entries below 1e-10 in magnitude
    have an ambiguous side; both memberships are tried and the choice
    maximizing l1 of the result is kept.
    """
    return SignedGraph._trusted(_balanced_spanning_subgraphs(g.adj[None])[0])


def _connected(a: np.ndarray) -> list[bool]:
    """Whether each matrix of a (k, n, n) stack is connected: vertex 0's
    reachable set, grown along the edges n - 1 times, is every vertex."""
    under, seen = a != 0, np.zeros(a.shape[:2], dtype=bool)
    seen[:, 0] = True
    for _ in range(a.shape[-1] - 1):
        seen |= (under & seen[:, :, None]).any(axis=1)
    return seen.all(axis=1).tolist()


def _principal_switchings(a: np.ndarray):
    """lambda_1 of each matrix of an (m, n, n) stack, the ambiguous entries of
    its principal vector, the spins of the vector signed as eigenvalues signs
    it (-1 at entries <= -1e-10) and the candidate they give."""
    w, vecs = _symmetric_eigh(a)
    spins, ambiguous = [], []
    # in Python: numpy on the strided vectors raised the suites' peak RSS
    for x in vecs[..., -1].tolist():
        # the first entry of largest magnitude is made positive
        sign = -1.0 if max(x, key=abs) < 0 else 1.0
        spins.append([-1 if sign * v <= -1e-10 else 1 for v in x])
        ambiguous.append([i for i, v in enumerate(x) if abs(v) < 1e-10])
    s = np.array(spins, dtype=np.int8)
    return w[:, -1], ambiguous, s, np.maximum(s[:, :, None] * s[:, None, :] * a, 0)


def _balanced_spanning_subgraphs(a: np.ndarray) -> np.ndarray:
    """balanced_spanning_subgraph of each matrix of a (k, n, n) int8 stack, in
    order, as one read-only such stack: its spins and one candidate each from
    one eigh. Each matrix with a ambiguous entries takes their 2^a switchings,
    in itertools.product order, and keeps the first maximum; all are solved
    together, in stacks of at most _STACK_ENTRIES entries. Disconnected graphs
    and over 16 ambiguous entries raise, in stack order, before any is solved."""
    lam1, ambiguous, spin, h = _principal_switchings(a)
    for connected, picks in zip(_connected(a), ambiguous):
        if not connected:
            raise ValueError("balanced spanning subgraph extraction needs a connected graph")
        if len(picks) > 16:
            raise SpectralError("too many ambiguous eigenvector entries")
    # only lambda_1 of each candidate is kept; a matrix with ambiguous
    # entries then takes the subgraph and lambda_1 of its best switching
    lam = _eigh_values(h)[:, -1].tolist()
    todo = [j for j, picks in enumerate(ambiguous) if picks]
    if todo:
        # one spin row per switching, the last ambiguous entry varying fastest
        rows, owner, values = [], [], []
        for j, base in zip(todo, spin[todo].tolist()):
            rows += itertools.product(*[(1, -1) if i in ambiguous[j] else (v,)
                                        for i, v in enumerate(base)])
            owner += [j] * (1 << len(ambiguous[j]))
        spins, step = np.array(rows, dtype=np.int8), max(1, _STACK_ENTRIES // a[0].size)
        for k in range(0, len(rows), step):
            s = spins[k:k + step]
            part = np.maximum(s[:, :, None] * s[:, None, :] * a[owner[k:k + step]], 0)
            values += _eigh_values(part)[:, -1].tolist()
        best, start = [], 0
        for j in todo:
            part = values[start:start + (1 << len(ambiguous[j]))]
            best.append(start + part.index(max(part)))
            lam[j], start = max(part), start + len(part)
        s = spins[best]
        h[todo] = np.maximum(s[:, :, None] * s[:, None, :] * a[todo], 0)
    for x, x1 in zip(lam, lam1.tolist()):
        if x < x1 - SPECTRAL_SLACK:
            raise SpectralError(f"balanced spanning subgraph lost spectral radius: {x} < {x1}")
    h.setflags(write=False)
    return h
