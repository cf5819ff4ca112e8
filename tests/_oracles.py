"""Independent brute-force oracles used by the tests.

Everything here deliberately avoids the library's own algorithms: sign
recomputation by definition, cycle enumeration by DFS, isomorphism by scanning
every permutation, balance by trying every spin assignment.
"""

from __future__ import annotations

import itertools

import numpy as np

from signed_extremal.core import SignedGraph


def brute_switch(g: SignedGraph, vertex_set) -> SignedGraph:
    """Apply the cut rule edge by edge."""
    members = set(vertex_set)
    adj = np.array(g.adj)
    for u in range(g.n):
        for v in range(g.n):
            if adj[u, v] != 0 and (u in members) != (v in members):
                adj[u, v] = -adj[u, v]
    return SignedGraph(adj)


def brute_is_balanced(g: SignedGraph) -> bool:
    """Try every spin assignment (exponential; n <= ~12)."""
    for bits in range(1 << g.n):
        spin = [1 if (bits >> v) & 1 else -1 for v in range(g.n)]
        if all(
            g.adj[u, v] == 0 or g.adj[u, v] == spin[u] * spin[v]
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            return True
    return False


def all_simple_cycles(g: SignedGraph):
    """Every simple cycle as a vertex tuple starting at its smallest vertex,
    together with its sign. Each cycle reported once."""
    n = g.n
    cycles = set()
    results = []

    def dfs(start, path, seen):
        v = path[-1]
        for u in range(n):
            if g.adj[v, u] == 0:
                continue
            if u == start and len(path) >= 3:
                key = frozenset(zip(path, path[1:] + [start]))
                canon = frozenset(frozenset(e) for e in key)
                if canon not in cycles:
                    cycles.add(canon)
                    sign = 1
                    for a, b in zip(path, path[1:] + [start]):
                        sign *= int(g.adj[a, b])
                    results.append((tuple(path), sign))
            elif u > start and u not in seen:
                dfs(start, path + [u], seen | {u})

    for s in range(n):
        dfs(s, [s], {s})
    return results


def graphs_isomorphic(a1: np.ndarray, a2: np.ndarray) -> bool:
    """Unsigned isomorphism by scanning every permutation."""
    n = a1.shape[0]
    if a2.shape[0] != n:
        return False
    for perm in itertools.permutations(range(n)):
        p = list(perm)
        if np.array_equal(a1[np.ix_(p, p)], a2):
            return True
    return False


def connected_labeled_graphs(n: int):
    """All labeled connected graphs on n vertices as boolean matrices."""
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in range(1 << len(cells)):
        adj = np.zeros((n, n), dtype=bool)
        for idx, (i, j) in enumerate(cells):
            if (bits >> idx) & 1:
                adj[i, j] = adj[j, i] = True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in range(n):
                if adj[v, u] and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) == n:
            yield adj


def all_signatures(adj_bool: np.ndarray):
    """All 2^m signed graphs over a fixed underlying graph."""
    n = adj_bool.shape[0]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if adj_bool[i, j]]
    for bits in range(1 << len(edges)):
        adj = adj_bool.astype(np.int8)
        for idx, (i, j) in enumerate(edges):
            if (bits >> idx) & 1:
                adj[i, j] = adj[j, i] = -1
        yield SignedGraph(adj)


def forbidden_and_balance_flags(adj: np.ndarray):
    """Flags for a stack of sign matrices of shape (batch, n, n), by definition.

    Returns ({selector: has a triangle of the forbidden sign}, balanced):
    triangle signs are recomputed as edge-sign products, and balance tries
    every spin assignment.
    """
    n = adj.shape[-1]
    tri = np.array([adj[:, i, j] * adj[:, j, k] * adj[:, i, k]
                    for i, j, k in itertools.combinations(range(n), 3)])
    has = {"C3_MINUS": (tri == -1).any(axis=0),
           "C3_PLUS": (tri == 1).any(axis=0),
           "NONE": np.zeros(len(adj), dtype=bool)}
    balanced = np.zeros(len(adj), dtype=bool)
    for bits in range(1 << n):
        spin = np.array([-1 if (bits >> v) & 1 else 1 for v in range(n)])
        balanced |= (adj * np.outer(spin, spin) >= 0).all(axis=(1, 2))
    return has, balanced
