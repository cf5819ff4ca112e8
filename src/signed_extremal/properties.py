"""Seeded randomized property suites.

Each suite draws its own instances from a deterministic generator, so a fixed
seed reproduces verdicts and logs exactly. A violation count of zero is the
pass condition; violating instances are recorded in the log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import balanced_spanning_subgraph, clique_spectral_bound
from .core import SignedGraph, is_balanced, negate, switch
from .graphio import format_graph
from .spectral import FORMULA_TOL, eigenvalues, interlacing_check

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suite", "run_all_suites",
           "random_connected_signed_graph"]

SUITE_NAMES = (
    "switching-invariance",
    "negation-symmetry",
    "interlacing",
    "balanced-spanning",
    "clique-bound",
    "edge-addition",
)


@dataclass
class SuiteResult:
    name: str
    instances: int
    violations: int
    log: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.violations == 0


def random_connected_signed_graph(rng: np.random.Generator, n_min: int = 3,
                                  n_max: int = 10) -> SignedGraph:
    """Random spanning tree plus density-controlled extra signed edges."""
    n = int(rng.integers(n_min, n_max + 1))
    adj = [[0] * n for _ in range(n)]
    order = rng.permutation(n).tolist()
    # a sign is 2 * integers(0, 2) - 1: the value rng.choice((-1, 1)) takes
    # from the stream, so seeded suites keep their graphs
    for idx in range(1, n):
        parent = order[int(rng.integers(0, idx))]
        child = order[idx]
        adj[parent][child] = adj[child][parent] = 2 * int(rng.integers(0, 2)) - 1
    density = float(rng.uniform(0.15, 0.75))
    for i in range(n):
        row = adj[i]
        for j in range(i + 1, n):
            if row[j] == 0 and rng.random() < density:
                row[j] = adj[j][i] = 2 * int(rng.integers(0, 2)) - 1
    return SignedGraph(np.array(adj, dtype=np.int8))


def _random_vertex_subset(rng, n):
    mask = rng.random(n) < 0.5
    return [int(v) for v in np.nonzero(mask)[0]]


def _check_switching_invariance(rng) -> str | None:
    g = random_connected_signed_graph(rng)
    u = _random_vertex_subset(rng, g.n)
    a = eigenvalues(g).eigenvalues
    b = eigenvalues(switch(g, u)).eigenvalues
    if max(abs(x - y) for x, y in zip(a, b)) > FORMULA_TOL:
        return f"spectrum changed under switching at {u}:\n{format_graph(g)}"
    return None


def _check_negation_symmetry(rng) -> str | None:
    g = random_connected_signed_graph(rng)
    a = eigenvalues(g).eigenvalues
    b = eigenvalues(negate(g)).eigenvalues
    flipped = tuple(-x for x in reversed(a))
    if max(abs(x - y) for x, y in zip(flipped, b)) > FORMULA_TOL:
        return f"negation did not reverse the spectrum:\n{format_graph(g)}"
    return None


def _check_interlacing(rng) -> str | None:
    g = random_connected_signed_graph(rng)
    size = int(rng.integers(1, g.n + 1))
    kept = [int(v) for v in rng.choice(g.n, size=size, replace=False)]
    if not interlacing_check(g, kept):
        return f"interlacing failed for kept={sorted(kept)}:\n{format_graph(g)}"
    return None


def _check_balanced_spanning(rng) -> str | None:
    g = random_connected_signed_graph(rng)
    h = balanced_spanning_subgraph(g)
    if h.n != g.n or not is_balanced(h) or h.neg_edge_count != 0:
        return f"result not a balanced spanning subgraph:\n{format_graph(g)}"
    lam_g = eigenvalues(g).eigenvalues[0]
    lam_h = eigenvalues(h).eigenvalues[0]
    if lam_g > lam_h + FORMULA_TOL:
        return f"lambda_1 dropped: {lam_g} > {lam_h}:\n{format_graph(g)}"
    return None


def _check_clique_bound(rng) -> str | None:
    g = random_connected_signed_graph(rng)
    rep = clique_spectral_bound(g)
    if not rep.satisfied:
        return (f"clique bound violated: lambda_1={rep.observed} > "
                f"bound={rep.bound_value}:\n{format_graph(g)}")
    return None


def _check_edge_addition(rng) -> str | None:
    # connected unsigned graph with a spare non-edge
    for _ in range(50):
        g = random_connected_signed_graph(rng)
        g = g.underlying()
        rows = g.adj.tolist()
        non_edges = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
                     if rows[i][j] == 0]
        if non_edges:
            break
    else:  # pragma: no cover - generator always leaves gaps eventually
        return None
    u, v = non_edges[int(rng.integers(0, len(non_edges)))]
    adj = np.array(g.adj)
    adj[u, v] = adj[v, u] = 1
    bigger = SignedGraph(adj)
    lam = eigenvalues(g).eigenvalues[0]
    lam_plus = eigenvalues(bigger).eigenvalues[0]
    if not lam < lam_plus:
        return f"adding edge ({u},{v}) did not raise lambda_1:\n{format_graph(g)}"
    return None


_CHECKS = {
    "switching-invariance": _check_switching_invariance,
    "negation-symmetry": _check_negation_symmetry,
    "interlacing": _check_interlacing,
    "balanced-spanning": _check_balanced_spanning,
    "clique-bound": _check_clique_bound,
    "edge-addition": _check_edge_addition,
}


def run_suite(name: str, seed: int, instances: int = 200) -> SuiteResult:
    if name not in _CHECKS:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    # bool is a subclass of int
    if not isinstance(instances, int) or isinstance(instances, bool) or instances < 0:
        raise ValueError(f"instances must be a non-negative int, got {instances!r}")
    # per-suite stream derived from (seed, suite) so suites are independent
    rng = np.random.default_rng([seed, SUITE_NAMES.index(name)])
    check = _CHECKS[name]
    result = SuiteResult(name=name, instances=instances, violations=0)
    for i in range(instances):
        failure = check(rng)
        if failure is not None:
            result.violations += 1
            result.log.append(f"instance {i}: {failure}")
    result.log.append(
        f"{name}: {instances} instances, {result.violations} violations"
    )
    return result


def run_all_suites(seed: int, instances: int = 200) -> list[SuiteResult]:
    return [run_suite(name, seed, instances) for name in SUITE_NAMES]
