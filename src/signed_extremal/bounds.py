"""Closed-form bounds and bound certificates for triangle-constrained signed graphs.

Integer bounds are compared exactly; spectral bounds get 1e-9 slack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._render import json_text
from .core import SignedGraph, is_connected
from .graphio import format_graph
from .spectral import SpectralError, _by_shape, _eigh_values, _symmetric_eigh

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

    Branch and bound over cliques of the underlying graph, testing balance by
    spin propagation: a clique stays balanced iff every added vertex w admits a
    spin with sign(w,c) = spin(w)spin(c) against all current members. Rejects
    graphs above _CLIQUE_MAX_ORDER vertices to bound the cost.
    """
    if g.n > _CLIQUE_MAX_ORDER:
        raise ValueError(f"balanced clique search capped at {_CLIQUE_MAX_ORDER} vertices")
    rows = g.adj.tolist()
    best = 1  # a single vertex is a balanced complete subgraph

    def extend(clique, spins, candidates):
        nonlocal best
        if len(clique) > best:
            best = len(clique)
        for idx, w in enumerate(candidates):
            if len(clique) + len(candidates) - idx <= best:
                return
            if clique:
                sw = rows[w][clique[0]] * spins[0]
                if any(rows[w][c] != sw * sc for c, sc in zip(clique, spins)):
                    continue
            else:
                sw = 1
            nxt = [x for x in candidates[idx + 1:] if rows[w][x]]
            extend(clique + [w], spins + [sw], nxt)

    extend([], [], list(range(g.n)))
    return best


def clique_spectral_bound(g: SignedGraph) -> BoundReport:
    """Compare l1(g) against sqrt(2e (wb-1)/wb) for the balanced clique number wb."""
    return _clique_spectral_bounds([g])[0]


def _clique_spectral_bounds(graphs) -> list[BoundReport]:
    """clique_spectral_bound of each graph, in order, with one eigh per
    vertex count; every graph's edges and clique number come first."""
    edges = [g.edge_count for g in graphs]
    if 0 in edges:
        raise ValueError("clique spectral bound needs at least one edge")
    cliques = [balanced_clique_number(g) for g in graphs]
    return [make_bound_report("clique_spectral", g.n, math.sqrt(2.0 * e * (wb - 1) / wb),
                              float(w[-1]), spectral=True,
                              details={"balanced_clique_number": wb, "edges": e})
            for g, e, wb, w in zip(graphs, edges, cliques,
                                   _by_shape([g.adj for g in graphs], _eigh_values))]


def balanced_spanning_subgraph(g: SignedGraph) -> SignedGraph:
    """A balanced spanning subgraph H with l1(g) <= l1(H).

    Switches g so the principal eigenvector is entrywise nonnegative, then
    removes all negative edges. Eigenvector entries below 1e-10 in magnitude
    have an ambiguous side; both memberships are tried and the choice
    maximizing l1 of the result is kept.
    """
    return _balanced_spanning_subgraphs([g])[0]


def _balanced_spanning_subgraphs(graphs) -> list[SignedGraph]:
    """balanced_spanning_subgraph of each graph, in order.

    The principal vectors come from one eigh per vertex count, each vector
    signed as eigenvalues signs it. The 2^a switchings of each graph's a
    ambiguous entries, in itertools.product order, go into one stack of
    candidates, solved with one eigh per vertex count; a graph keeps its
    first maximum. Disconnected graphs and too many ambiguous entries raise,
    in graph order, before any candidate is solved.
    """
    spectra = _by_shape([g.adj for g in graphs], _symmetric_eigh)
    stacks = []
    for g, (_, vecs) in zip(graphs, spectra):
        # one _bfs_tree per graph costs less than _bfs_trees per vertex count
        if not is_connected(g):
            raise ValueError("balanced spanning subgraph extraction needs a connected graph")
        x = vecs[:, -1].tolist()
        # the first entry of largest magnitude is made positive
        sign = -1.0 if max(x, key=abs) < 0 else 1.0
        ambiguous = [i for i, v in enumerate(x) if abs(v) < 1e-10]
        if len(ambiguous) > 16:
            raise SpectralError("too many ambiguous eigenvector entries")
        # one spin row per switching: -1 on the negative entries and on the
        # picked ambiguous ones, the last ambiguous entry varying fastest
        spin = [-1 if sign * v <= -1e-10 else 1 for v in x]
        rows = []
        for choice in itertools.product((1, -1), repeat=len(ambiguous)):
            for i, c in zip(ambiguous, choice):
                spin[i] = c
            rows.append(list(spin))
        spins = np.array(rows, dtype=np.int8)
        stacks.append(np.maximum(spins[:, :, None] * spins[:, None, :] * g.adj, 0))
    # only lambda_1 of each candidate is kept
    values = _by_shape([h for stack in stacks for h in stack], lambda a: _eigh_values(a)[:, -1])
    out, k = [], 0
    for stack, (w, _) in zip(stacks, spectra):
        lam = [float(v) for v in values[k:k + len(stack)]]
        k += len(stack)
        best = lam.index(max(lam))
        if lam[best] < w[-1] - SPECTRAL_SLACK:
            raise SpectralError(
                "balanced spanning subgraph lost spectral radius: "
                f"{lam[best]} < {float(w[-1])}"
            )
        out.append(SignedGraph._trusted(stack[best].copy()))
    return out
