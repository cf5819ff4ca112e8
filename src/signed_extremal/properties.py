"""Seeded randomized property suites.

Each suite draws its own instances from a deterministic generator, so a fixed
seed reproduces verdicts and logs exactly. A violation count of zero is the
pass condition; violating instances are recorded in the log.

Instances are drawn in blocks and judged a block at a time, so the spectra a
suite computes itself come from one stacked eigensolve per vertex count per
block. The library functions under test (interlacing_check,
clique_spectral_bound, balanced_spanning_subgraph, is_balanced, switch,
negate) are still called one graph at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import balanced_spanning_subgraph, clique_spectral_bound
from .core import SignedGraph, is_balanced, negate, switch
from .graphio import format_graph
from .spectral import FORMULA_TOL, _stacked_spectra, interlacing_check

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


def _paired_spectra(cases) -> list[np.ndarray]:
    """Descending spectra, one (2, n) array per case, of the two same-order
    graphs that open each case, in case order: one stacked solve per vertex
    count."""
    out: list[np.ndarray] = [None] * len(cases)
    by_order: dict[int, list[int]] = {}
    for i, case in enumerate(cases):
        by_order.setdefault(case[0].n, []).append(i)
    for idx in by_order.values():
        stack = np.array([(cases[i][0].adj, cases[i][1].adj) for i in idx])
        for i, w in zip(idx, _stacked_spectra(stack)):
            out[i] = w
    return out


# Each suite is a draw, which makes every rng call of one instance along with
# the cheap graph operations, and a judge, which takes a block of drawn cases
# and returns one failure message or None per case, in order.

def _draw_switching_invariance(rng):
    g = random_connected_signed_graph(rng)
    u = _random_vertex_subset(rng, g.n)
    return g, switch(g, u), u


def _judge_switching_invariance(cases) -> list[str | None]:
    return [f"spectrum changed under switching at {u}:\n{format_graph(g)}"
            if np.abs(w[0] - w[1]).max() > FORMULA_TOL else None
            for (g, _, u), w in zip(cases, _paired_spectra(cases))]


def _draw_negation_symmetry(rng):
    g = random_connected_signed_graph(rng)
    return g, negate(g)


def _judge_negation_symmetry(cases) -> list[str | None]:
    return [f"negation did not reverse the spectrum:\n{format_graph(g)}"
            if np.abs(-w[0][::-1] - w[1]).max() > FORMULA_TOL else None
            for (g, _), w in zip(cases, _paired_spectra(cases))]


def _draw_interlacing(rng):
    g = random_connected_signed_graph(rng)
    size = int(rng.integers(1, g.n + 1))
    return g, [int(v) for v in rng.choice(g.n, size=size, replace=False)]


def _judge_interlacing(cases) -> list[str | None]:
    return [None if interlacing_check(g, kept) else
            f"interlacing failed for kept={sorted(kept)}:\n{format_graph(g)}"
            for g, kept in cases]


def _judge_balanced_spanning(cases) -> list[str | None]:
    subgraphs = [balanced_spanning_subgraph(g) for g in cases]
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
    failures = []
    for g in cases:
        rep = clique_spectral_bound(g)
        failures.append(None if rep.satisfied else
                        f"clique bound violated: lambda_1={rep.observed} > "
                        f"bound={rep.bound_value}:\n{format_graph(g)}")
    return failures


def _draw_edge_addition(rng):
    # connected unsigned graph with a spare non-edge
    for _ in range(50):
        g = random_connected_signed_graph(rng).underlying()
        rows = g.adj.tolist()
        non_edges = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
                     if rows[i][j] == 0]
        if non_edges:
            break
    else:
        raise RuntimeError("edge-addition drew 50 complete graphs in a row")
    u, v = non_edges[int(rng.integers(0, len(non_edges)))]
    adj = np.array(g.adj)
    adj[u, v] = adj[v, u] = 1
    return g, SignedGraph(adj), (u, v)


def _judge_edge_addition(cases) -> list[str | None]:
    return [None if w[0, 0] < w[1, 0] else
            f"adding edge ({u},{v}) did not raise lambda_1:\n{format_graph(g)}"
            for (g, _, (u, v)), w in zip(cases, _paired_spectra(cases))]


# (draw, judge) of each suite
_CHECKS = {
    "switching-invariance": (_draw_switching_invariance, _judge_switching_invariance),
    "negation-symmetry": (_draw_negation_symmetry, _judge_negation_symmetry),
    "interlacing": (_draw_interlacing, _judge_interlacing),
    "balanced-spanning": (random_connected_signed_graph, _judge_balanced_spanning),
    "clique-bound": (random_connected_signed_graph, _judge_clique_bound),
    "edge-addition": (_draw_edge_addition, _judge_edge_addition),
}
# instances drawn before they are judged together; larger blocks hold more
# graphs at once for little further gain
_SUITE_BLOCK = 256


def _check_count(name: str, value) -> None:
    # bool is a subclass of int
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative int, got {value!r}")


def run_suite(name: str, seed: int, instances: int = 200) -> SuiteResult:
    if name not in _CHECKS:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    _check_count("instances", instances)
    _check_count("seed", seed)
    # per-suite stream derived from (seed, suite) so suites are independent
    rng = np.random.default_rng([seed, SUITE_NAMES.index(name)])
    draw, judge = _CHECKS[name]
    result = SuiteResult(name=name, instances=instances, violations=0)
    for start in range(0, instances, _SUITE_BLOCK):
        cases = [draw(rng) for _ in range(min(_SUITE_BLOCK, instances - start))]
        for i, failure in enumerate(judge(cases), start):
            if failure is not None:
                result.violations += 1
                result.log.append(f"instance {i}: {failure}")
    result.log.append(
        f"{name}: {instances} instances, {result.violations} violations"
    )
    return result


def run_all_suites(seed: int, instances: int = 200) -> list[SuiteResult]:
    return [run_suite(name, seed, instances) for name in SUITE_NAMES]
