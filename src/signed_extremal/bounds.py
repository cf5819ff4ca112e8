"""Closed-form bounds and bound certificates for triangle-constrained signed graphs.

Integer bounds are compared exactly; spectral bounds get 1e-9 slack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._render import json_text
from .core import SignedGraph, is_connected, switch
from .graphio import format_graph
from .spectral import SpectralError, eigenvalues

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


@dataclass
class BoundReport:
    """Outcome of comparing an observed quantity against a bound.

    `satisfied` always means observed <= bound_value (+ slack for spectral
    bounds). Theorem verifications additionally set `passed`, which also
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
                      spectral: bool = False) -> BoundReport:
    tol = SPECTRAL_SLACK if spectral else 0
    return BoundReport(
        bound_name=name,
        n=n,
        bound_value=bound,
        observed=observed,
        satisfied=bool(observed <= bound + tol),
        witness=witness,
    )


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
    adj = g.adj
    best = 1  # a single vertex is a balanced complete subgraph

    def extend(clique, spins, candidates):
        nonlocal best
        if len(clique) > best:
            best = len(clique)
        for idx, w in enumerate(candidates):
            if len(clique) + len(candidates) - idx <= best:
                return
            if clique:
                sw = int(adj[w, clique[0]]) * spins[0]
                if any(int(adj[w, c]) != sw * sc for c, sc in zip(clique, spins)):
                    continue
            else:
                sw = 1
            nxt = [x for x in candidates[idx + 1:] if adj[w, x] != 0]
            extend(clique + [w], spins + [sw], nxt)

    extend([], [], list(range(g.n)))
    return best


def clique_spectral_bound(g: SignedGraph) -> BoundReport:
    """Compare l1(g) against sqrt(2e (wb-1)/wb) for the balanced clique number wb."""
    e = g.edge_count
    if e < 1:
        raise ValueError("clique spectral bound needs at least one edge")
    wb = balanced_clique_number(g)
    bound = math.sqrt(2.0 * e * (wb - 1) / wb)
    lam1 = eigenvalues(g).eigenvalues[0]
    rep = make_bound_report("clique_spectral", g.n, bound, lam1, spectral=True)
    rep.details = {"balanced_clique_number": wb, "edges": e}
    return rep


def balanced_spanning_subgraph(g: SignedGraph) -> SignedGraph:
    """A balanced spanning subgraph H with l1(g) <= l1(H).

    Switches g so the principal eigenvector is entrywise nonnegative, then
    removes all negative edges. Eigenvector entries below 1e-10 in magnitude
    have an ambiguous side; both memberships are tried and the choice
    maximizing l1 of the result is kept.
    """
    if not is_connected(g):
        raise ValueError("balanced spanning subgraph extraction needs a connected graph")
    sp = eigenvalues(g)
    x = np.array(sp.principal_vector)
    ambiguous = [i for i in range(g.n) if abs(x[i]) < 1e-10]
    if len(ambiguous) > 16:
        raise SpectralError("too many ambiguous eigenvector entries")
    negatives = [i for i in range(g.n) if x[i] <= -1e-10]
    best_h, best_val = None, -math.inf
    for choice in itertools.product((False, True), repeat=len(ambiguous)):
        u = negatives + [i for i, pick in zip(ambiguous, choice) if pick]
        switched = switch(g, u)
        h = SignedGraph._trusted(np.maximum(switched.adj, 0))
        val = eigenvalues(h).eigenvalues[0]
        if val > best_val:
            best_h, best_val = h, val
    if best_val < sp.eigenvalues[0] - SPECTRAL_SLACK:
        raise SpectralError(
            "balanced spanning subgraph lost spectral radius: "
            f"{best_val} < {sp.eigenvalues[0]}"
        )
    return best_h
