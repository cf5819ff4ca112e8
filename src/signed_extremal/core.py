"""Signed graphs: representation, switching algebra, balance, triangles, cycles.

A signed graph on vertices 0..n-1 is stored as a dense symmetric matrix with
entries in {-1, 0, +1}. All operations here are pure functions returning new
values; SignedGraph instances are immutable and hashable.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "SignedGraph",
    "Cycle",
    "new_signed_graph",
    "permute",
    "switch",
    "negate",
    "is_connected",
    "is_balanced",
    "canonical_switch",
    "switching_equivalent",
    "switching_isomorphic",
    "find_signed_triangles",
    "shortest_unbalanced_cycle",
    "cycle_sign",
    "counts",
]


class SignedGraph:
    """Immutable signed graph backed by a read-only int8 sign matrix."""

    __slots__ = ("adj",)

    def __init__(self, adj):
        raw = np.asarray(adj)
        # checked before the int8 cast, which would truncate 0.6 to 0 and
        # wrap 255 to -1; for bools and integers the range is the same test
        if raw.dtype.kind in "biu":
            ok = raw.size == 0 or (raw.min() >= -1 and raw.max() <= 1)
        else:
            ok = np.isin(raw, (-1, 0, 1)).all()
        if not ok:
            raise ValueError("adjacency entries must be in {-1, 0, +1}")
        a = raw.astype(np.int8)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if a.shape[0] < 1:
            raise ValueError("signed graph needs at least one vertex")
        if a.diagonal().any():
            raise ValueError("loops are not allowed (diagonal must be zero)")
        if not (a == a.T).all():
            raise ValueError("adjacency must be symmetric")
        a.setflags(write=False)
        self.adj = a

    @classmethod
    def _trusted(cls, adj: np.ndarray) -> "SignedGraph":
        """Wrap an int8 sign matrix derived from valid graphs, unchecked.

        The caller hands adj over: it is made read-only, and nothing else may
        write to it or to an array it views.
        """
        adj.setflags(write=False)
        g = object.__new__(cls)
        g.adj = adj
        return g

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adj)) // 2

    @property
    def neg_edge_count(self) -> int:
        return int(np.count_nonzero(self.adj == -1)) // 2

    def edges(self) -> list[tuple[int, int, int]]:
        """All edges as (u, v, sign) with u < v, sorted."""
        iu, ju = np.nonzero(np.triu(self.adj))
        return [(int(u), int(v), int(self.adj[u, v])) for u, v in zip(iu, ju)]

    def neighbors(self, v: int) -> list[int]:
        return [int(u) for u in np.nonzero(self.adj[v])[0]]

    def underlying(self) -> "SignedGraph":
        """The same graph with every edge made positive."""
        return SignedGraph._trusted(np.abs(self.adj))

    def __eq__(self, other):
        return isinstance(other, SignedGraph) and np.array_equal(self.adj, other.adj)

    def __hash__(self):
        return hash((self.n, self.adj.tobytes()))

    def __repr__(self):
        return f"SignedGraph(n={self.n}, e={self.edge_count}, e_neg={self.neg_edge_count})"


@dataclass(frozen=True)
class Cycle:
    """A cycle given by its vertex sequence and its edge-sign product."""

    vertices: tuple[int, ...]
    sign: int

    def __len__(self):
        return len(self.vertices)


def new_signed_graph(n: int, edges) -> SignedGraph:
    """Build a signed graph from an edge list of (u, v, sign) triples.

    Rejects loops, endpoints that are not vertices, duplicate edges, and signs
    outside {-1, +1}; counts, vertices and signs are ints, never bools.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"vertex count must be a positive integer, got {n!r}")
    adj = np.zeros((n, n), dtype=np.int8)
    seen = set()
    for u, v, s in edges:
        u, v = _check_vertex_set(n, (u, v))
        if u == v:
            raise ValueError(f"edge ({u},{v}): loops are not allowed")
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)) or s not in (-1, 1):
            raise ValueError(f"edge ({u},{v}): sign must be -1 or +1, got {s!r}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge ({u},{v})")
        seen.add(key)
        adj[u, v] = adj[v, u] = s
    return SignedGraph(adj)


def permute(g: SignedGraph, order) -> SignedGraph:
    """Relabel so that new vertex i is old vertex order[i]."""
    idx = _check_vertex_set(g.n, order)
    if sorted(idx) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")
    return SignedGraph._trusted(g.adj[np.ix_(idx, idx)])


def _check_vertex_set(n: int, vertices) -> list[int]:
    """The entries of vertices as ints, in order; ValueError for an entry that
    is not an int or numpy integer (bool included) or not a vertex of a graph
    on n vertices."""
    out = []
    for v in vertices:
        # bool is a subclass of int; numpy bools are not numpy integers
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"vertex {v!r} is not an integer")
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} is outside the graph 0..{n - 1}")
        out.append(int(v))
    return out


def switch(g: SignedGraph, vertex_set) -> SignedGraph:
    """Negate every edge with exactly one endpoint in vertex_set."""
    s = np.ones(g.n, dtype=np.int8)
    s[_check_vertex_set(g.n, vertex_set)] = -1
    return SignedGraph._trusted(np.outer(s, s) * g.adj)


def negate(g: SignedGraph) -> SignedGraph:
    """Flip the sign of every edge."""
    return SignedGraph._trusted(-g.adj)


def is_connected(g: SignedGraph) -> bool:
    """True iff the canonical spanning forest of the underlying graph is one tree."""
    return len(_bfs_tree(g.adj)) == g.n - 1


def is_balanced(g: SignedGraph) -> bool:
    """True iff a spin assignment s:V->{+1,-1} has sign(uv) = s(u)s(v) on every edge.

    The spins that make the canonical spanning forest positive are the only
    candidates up to a sign per component, so g is balanced iff switching by
    them leaves no negative edge. Without a negative edge every cycle is
    positive, so g is balanced without a tree.
    """
    if g.adj.min() >= 0:
        return True
    s = _bfs_tree_spins(g)
    return np.array_equal(np.outer(s, s) * g.adj, np.abs(g.adj))


def _bfs_tree(adj: np.ndarray) -> list[tuple[int, int]]:
    """Edges (parent, child) of the canonical spanning forest, in discovery order.

    Breadth-first from the smallest vertex of each component, neighbours
    visited in increasing index order. The forest spans a connected graph iff
    it has n - 1 edges. canonical_switch and the search's signature
    enumerator both pin this forest positive, so they must share it; the
    enumerator's class tables use the stacked form, _bfs_trees.
    """
    rows = adj.tolist()
    seen = [False] * len(rows)
    tree = []
    for root in range(len(rows)):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        # the loop also visits the vertices appended while it runs
        for v in queue:
            for u, x in enumerate(rows[v]):
                if x and not seen[u]:
                    seen[u] = True
                    tree.append((v, u))
                    queue.append(u)
    return tree


def _bfs_trees(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_bfs_tree of every graph of a (G, n, n) bool stack at once.

    Returns the (G, n - 1, 2) forest edges (parent, child) in discovery order
    and which graphs are connected; a graph that is not gets meaningless
    edges. Step i takes the vertex at queue position i of every graph and
    queues its undiscovered neighbours in increasing index order, as the
    queue of _bfs_tree does, so the trees are the same, order included. For
    one graph _bfs_tree is far cheaper.
    """
    g, n = adj.shape[:2]
    rows = np.arange(g)
    # vertex 0 first; positions not reached yet hold 0, whose neighbours are
    # all queued at step 0, so a queue that runs dry queues nothing more
    order = np.zeros((g, n), dtype=np.intp)
    edges = np.zeros((g, n - 1, 2), dtype=np.intp)
    seen = np.zeros((g, n), dtype=bool)
    seen[:, 0] = True
    for i in range(n - 1):
        v = order[:, i]
        new = adj[rows, v] & ~seen
        r, u = np.nonzero(new)
        # queue positions, after the vertices found so far
        k = (seen.sum(axis=1, keepdims=True) + np.cumsum(new, axis=1) - 1)[r, u]
        order[r, k] = u
        edges[r, k - 1] = np.column_stack((v[r], u))
        seen |= new
    return edges, seen.all(axis=1)


def _tree_spins(adj: np.ndarray, tree) -> np.ndarray:
    """Spins (G, n) that make every edge of the forest `tree` positive in each
    matrix of the (G, n, n) stack adj."""
    spin = np.ones(adj.shape[:2], dtype=np.int8)
    # a parent is discovered before its children, so its spin is final
    for v, u in tree:
        spin[:, u] = spin[:, v] * adj[:, v, u]
    return spin


def _bfs_tree_spins(g: SignedGraph) -> np.ndarray:
    """Spins that make every edge of the canonical spanning forest positive."""
    return _tree_spins(g.adj[None], _bfs_tree(g.adj))[0]


def canonical_switch(g: SignedGraph) -> SignedGraph:
    """The unique switching-equivalent graph whose canonical spanning forest is all-positive.

    Deterministic for a fixed labeling, so two signed graphs on the same labeled
    underlying graph are switching equivalent iff their canonical forms are equal.
    """
    spin = _bfs_tree_spins(g)
    return SignedGraph._trusted(np.outer(spin, spin) * g.adj)


def switching_equivalent(g1: SignedGraph, g2: SignedGraph) -> bool:
    """True iff g1, g2 share the labeled underlying graph and a switching maps one to the other."""
    if g1.n != g2.n or not np.array_equal(np.abs(g1.adj), np.abs(g2.adj)):
        return False
    return canonical_switch(g1) == canonical_switch(g2)


def counts(g: SignedGraph) -> tuple[int, int]:
    """(edge count, negative edge count)."""
    return g.edge_count, g.neg_edge_count


def find_signed_triangles(g: SignedGraph, sign: int) -> list[Cycle]:
    """All triangles whose edge-sign product equals sign (+1 or -1)."""
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    a = g.adj
    out = []
    for i, j, k in itertools.combinations(range(g.n), 3):
        p = int(a[i, j]) * int(a[j, k]) * int(a[i, k])
        if p == sign:
            out.append(Cycle((i, j, k), sign))
    return out


def cycle_sign(g: SignedGraph, vertices) -> int:
    """Edge-sign product along the closed walk vertices[0] -> ... -> vertices[0]."""
    vs = list(vertices)
    if len(vs) < 3 or len(set(vs)) != len(vs):
        raise ValueError("cycle needs at least 3 distinct vertices")
    prod = 1
    for a, b in zip(vs, vs[1:] + vs[:1]):
        s = int(g.adj[a, b])
        if s == 0:
            raise ValueError(f"({a},{b}) is not an edge")
        prod *= s
    return prod


def shortest_unbalanced_cycle(g: SignedGraph) -> Cycle | None:
    """A minimum-length negative cycle, or None if the graph is balanced.

    Searches the signed double cover: two layers of V, positive edges stay
    within a layer, negative edges cross. The shortest path from (v, 0) to
    (v, 1), minimized over v, projects onto a shortest negative cycle.
    """
    if is_balanced(g):
        return None
    n = g.n
    best_len = None
    best_path = None
    for start in range(n):
        # nodes 0..n-1 are layer 0, n..2n-1 layer 1
        parent = np.full(2 * n, -2, dtype=np.int64)
        parent[start] = -1
        queue = deque([start])
        found = False
        while queue and not found:
            x = queue.popleft()
            v, layer = x % n, x // n
            for u in np.nonzero(g.adj[v])[0]:
                nl = layer if g.adj[v, u] == 1 else 1 - layer
                y = int(u) + n * nl
                if parent[y] == -2:
                    parent[y] = x
                    if y == start + n:
                        found = True
                        break
                    queue.append(y)
        if not found:
            continue
        path = [start + n]
        while path[-1] != start:
            path.append(int(parent[path[-1]]))
        path.reverse()
        if best_len is None or len(path) - 1 < best_len:
            best_len = len(path) - 1
            best_path = [p % n for p in path[:-1]]
    vs = tuple(best_path)
    # the globally shortest negative closed walk is a simple cycle
    if len(set(vs)) != len(vs) or len(vs) < 3 or cycle_sign(g, vs) != -1:
        raise RuntimeError(f"internal error: {vs} is not a negative simple cycle")
    return Cycle(vs, -1)


# ---------------------------------------------------------------------------
# Canonical labeling machinery (shared with the search engine)
# ---------------------------------------------------------------------------

# orders per batch in canonical_forms and _least_sign_row; K_9 has 362,880 optimal orders
_ORDER_CHUNK = 8192
# switching_isomorphic scans class-respecting relabelings, n! for K_n
_SWITCHING_ISO_MAX_ORDER = 9


@lru_cache(maxsize=None)
def _triu_cells(n: int):
    """Row and column indices of the upper-triangle cells, row by row (read-only)."""
    iu, ju = np.triu_indices(n, k=1)
    iu, ju = iu.astype(np.intp), ju.astype(np.intp)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


class Labelling(NamedTuple):
    """Canonical labelling of a stack of G unsigned graphs (canonical_forms)."""

    codes: list[int]        # canonical bitmap of each graph
    orders: np.ndarray      # (rows, n) optimal orders, graph by graph, in the
                            # smallest unsigned dtype that holds n - 1
    counts: np.ndarray      # (G,) optimal orders of each graph


def refined_color_classes(adj_bool: np.ndarray) -> list[list[int]]:
    """Vertex classes under colour refinement, in colour order: the one-graph
    view of canonical_forms. Colours start as degree ranks and each round
    re-ranks (colour, sorted neighbour colours), so isomorphic graphs get
    corresponding classes in the same order."""
    colours = _refine(adj_bool[None])[0]
    return [np.flatnonzero(colours == c).tolist() for c in range(colours.max() + 1)]


def canonical_form(adj_bool: np.ndarray) -> tuple[int, np.ndarray]:
    """The canonical bitmap of one graph and its optimal orders (canonical_forms)."""
    lab = canonical_forms(adj_bool[None])
    return lab.codes[0], lab.orders


def _dense_ranks(keys: np.ndarray) -> np.ndarray:
    """The rank of each row keys[g, v] among the distinct rows of graph g, in
    lexicographic order: a (G, n, width) integer stack gives (G, n) ranks."""
    g, n, _ = keys.shape
    # each graph's rows sorted on their own, the first column the primary key
    order = np.lexsort(keys.transpose(2, 0, 1)[::-1], axis=-1)
    graph = np.arange(g)[:, None]
    rows = keys[graph, order]
    new = np.zeros((g, n), dtype=np.intp)
    new[:, 1:] = (rows[:, 1:] != rows[:, :-1]).any(axis=2)
    ranks = np.empty((g, n), dtype=np.intp)
    ranks[graph, order] = np.cumsum(new, axis=1)
    return ranks


@lru_cache(maxsize=None)
def _count_weights(n: int) -> tuple[int, np.ndarray]:
    """(k, weights): weights[c] (n, words) puts colour c at digit c % k of
    word c // k, the first digit most significant, in base n; k is the most
    base-n digits whose words stay below 2^53 (at most n, so n = 1 ends)."""
    k = 1
    while k < n and n ** (k + 1) <= 1 << 53:
        k += 1
    c = np.arange(n)
    weights = np.zeros((n, -(-n // k)))
    weights[c, c // k] = np.int64(n) ** (k - 1 - c % k)
    weights.setflags(write=False)
    return k, weights


def _refine(adj: np.ndarray) -> np.ndarray:
    """Colours (G, n) of a bool adjacency stack under colour refinement.

    Colours start as degree ranks; each round ranks (colour, sorted neighbour
    colours) within each graph until no class splits. Within a colour class
    all degrees are equal, so comparing sorted neighbour-colour tuples is
    comparing the neighbour-colour counts in descending order, and the count
    of the last colour, the degree less the others, decides nothing. A round
    packs the other counts, each at most n - 1, into base-n digits of a few
    words, adj @ weights[colours] in float64 (_count_weights), and ranks the
    rows (colour, -words). A word and every partial sum of it is an integer
    below n^k <= 2^53, so the float arithmetic is exact, and base-n words
    compare as their digit tuples do.
    """
    n = adj.shape[1]
    k, weights = _count_weights(n)
    colours = _dense_ranks(adj.sum(axis=2, dtype=np.intp)[:, :, None])
    active = np.flatnonzero(colours.max(axis=1) < n - 1)
    a = adj[active].astype(np.float64)
    while len(active):
        col = colours[active]
        top = col.max()
        table = np.zeros((top + 1, -(-top // k)))
        table[:top] = weights[:top, :table.shape[1]]
        words = (a @ table[col]).astype(np.int64)
        new = _dense_ranks(np.concatenate((col[:, :, None], -words), axis=2))
        colours[active] = new
        # a partition that did not split is stable; a discrete one cannot split
        top = new.max(axis=1)
        going = (top > col.max(axis=1)) & (top < n - 1)
        active, a = active[going], a[going]
    return colours


@lru_cache(maxsize=None)
def _permutation_table(k: int) -> np.ndarray:
    """Every permutation of range(k), one per row, in itertools.permutations order."""
    table = np.array(list(itertools.permutations(range(k))), dtype=np.uint8)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _candidate_orders(sizes: tuple[int, ...]) -> np.ndarray:
    """Every order of range(sum(sizes)) that keeps each run of consecutive
    positions, of the given sizes, in place; rows follow itertools.product
    over the per-run permutations, the first run varying slowest. Cached by
    sizes and read-only, in the smallest unsigned dtype that holds a position,
    so arithmetic on positions must widen them first."""
    orders = np.arange(sum(sizes))[None]
    for start, k in zip(itertools.accumulate(sizes, initial=0), sizes):
        if k > 1:
            orders = np.repeat(orders, math.factorial(k), axis=0)
            orders[:, start:start + k] = np.tile(start + _permutation_table(k),
                                                 (len(orders) // math.factorial(k), 1))
    orders = orders.astype(np.min_scalar_type(sum(sizes)))
    orders.setflags(write=False)
    return orders


def _least_rows(owner: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the uint8 rows that equal the lexicographically
    least row of their owner; owner is ascending."""
    # zero-padded to big-endian uint64 words, rows compare as their bytes do
    words = np.zeros((len(values), -(-values.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, :values.shape[1]] = values
    words = words.view(">u8")
    rows = np.arange(len(owner))
    for w in range(words.shape[1]):
        own = owner[rows]
        first = np.concatenate(([True], own[1:] != own[:-1]))
        col = words[rows, w]
        rows = rows[col == np.minimum.reduceat(col, np.flatnonzero(first))[np.cumsum(first) - 1]]
    return rows


def _row_budget(n: int) -> int:
    """The most candidate orders of one template on n vertices: _ORDER_CHUNK
    up to the 28 cells of n = 8, fewer above, so that no gather holds more
    than _ORDER_CHUNK x 28 cells."""
    return max(1, _ORDER_CHUNK * 28 // max(n * (n - 1) // 2, 28))


def _template_sizes(cells: np.ndarray) -> np.ndarray:
    """The number of orders that keep the cells of each row of cells (B, n),
    prod |cell|!, as floats (rounded only far above _ORDER_CHUNK; inf past
    the float range, from 171 vertices on, which still exceeds it)."""
    n = cells.shape[1]
    with np.errstate(over="ignore"):
        factorials = np.concatenate(([1.0], np.cumprod(np.arange(1.0, n + 1))))
        return factorials[(cells[:, :, None] == np.arange(n)).sum(axis=1)].prod(axis=1)


def _individualize(adj: np.ndarray, colours: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The branches of a (G, n, n) bool stack whose templates fit the budget.

    A graph whose colour classes keep more than _row_budget(n) orders is
    individualized one position at a time (McKay and Piperno, "Practical
    graph isomorphism, II", J. Symbolic Comput. 60, 2014): each vertex of the
    cell at the next open position i is tried there, and every later cell
    splits into its non-neighbours, then its neighbours. That split is the
    least row i of the code, so only the branches of each graph whose row i
    is least are kept; they all have the same cell sizes and leave together.

    Returns the graph of each branch and its cells, numbered in position
    order (each cell by its first position once any graph branches), graph
    by graph, each graph's branches in lexicographic order of their
    individualized prefixes.
    """
    owner = np.arange(len(adj))
    n = adj.shape[1]
    budget = _row_budget(n)
    big = _template_sizes(colours) > budget
    if not big.any():
        return owner, colours
    cells = (colours[:, None, :] < colours[:, :, None]).sum(axis=2)
    done = []
    # every template shrinks to one order once all positions are individualized
    for i in itertools.count():
        done.append((owner[~big], cells[~big]))
        owner, cells = owner[big], cells[big]
        if not len(owner):
            break
        # one branch per vertex of the cell at position i, in vertex order
        branch, v = np.nonzero(cells == i)
        owner, cells = owner[branch], cells[branch]
        nbr = adj[owner, v]
        # the rest of v's cell starts at i + 1
        cells[cells == i] = i + 1
        cells[np.arange(len(v)), v] = i
        later = cells > i
        # each later cell's non-neighbours keep its first position
        zeros = ((cells[:, :, None] == np.arange(n)) & ~nbr[:, :, None]).sum(axis=1)
        cells = np.where(later & nbr, cells + np.take_along_axis(zeros, cells, axis=1), cells)
        # row i of the code: a position holds a neighbour iff its cell does
        row = np.take_along_axis(nbr, np.argsort(cells, axis=1, kind="stable"), axis=1)
        keep = _least_rows(owner, row[:, i + 1:].view(np.uint8))
        owner, cells = owner[keep], cells[keep]
        big = _template_sizes(cells) > budget
    owner, cells = (np.concatenate(parts) for parts in zip(*done))
    # a graph's branches all leave at one depth, already in prefix order
    by_graph = np.argsort(owner, kind="stable")
    return owner[by_graph], cells[by_graph]


# every composition of 8 vertices fits; an entry holds at most the row
# budget's _ORDER_CHUNK x 28 cells, at 1 to 4 bytes each
@lru_cache(maxsize=256)
def _template_cells(sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The candidate orders of sizes (_candidate_orders) and, for each, the
    cells p * n + q that its upper triangle reads (positions p < q, n =
    sum(sizes)), in the smallest unsigned dtype that holds n^2 - 1; cached
    and read-only."""
    template = _candidate_orders(sizes)
    n = template.shape[1]
    iu, ju = _triu_cells(n)
    # widened first: p * n + q passes 255 from n = 17 on
    cells = (template[:, iu].astype(np.intp) * n + template[:, ju]).astype(
        np.min_scalar_type(n * n - 1))
    cells.setflags(write=False)
    return template, cells


def canonical_forms(adj: np.ndarray) -> Labelling:
    """Canonical bitmaps of a (G, n, n) bool stack of G >= 1 unsigned graphs
    and the orders achieving them.

    A graph's bitmap is the least upper-triangle bit string over all orders
    that respect its refined colour classes, packed into a Python int (MSB
    first). Each graph's optimal orders come out in ascending lexicographic
    order. A graph whose classes keep more than _row_budget(n) orders is
    first split into branches by individualization (_individualize). Each
    branch's candidate orders are a cached template over its vertices sorted
    by cell (_template_cells). The branches come graph by graph, and each
    run of consecutive branches whose templates together fit the row budget
    is gathered in one go, so no gather holds more than _ORDER_CHUNK x 28
    cells. Each run keeps each graph's least rows; a graph split across two
    runs keeps the least of both.
    """
    g, n = adj.shape[:2]
    colours = _refine(adj)
    graph, classes = _individualize(adj, colours)
    by_cell = np.argsort(classes, axis=1, kind="stable")
    # each branch's graph with its vertices sorted by cell, flattened
    flat = adj[graph[:, None, None], by_cell[:, :, None], by_cell[:, None, :]].reshape(-1)
    # the orders are gathered from by_cell, so they keep its smallest dtype
    by_cell = by_cell.astype(np.min_scalar_type(n - 1))
    # the cell sizes of each branch, in position order
    sizes = list(map(bytes, (classes[:, :, None] == np.arange(n)).sum(axis=1, dtype=np.uint8)))
    by_sig = {sig: _template_cells(tuple(k for k in sig if k)) for sig in dict.fromkeys(sizes)}
    parts = [by_sig[sig] for sig in sizes]
    lengths = np.array([len(template) for template, _ in parts])
    ends = np.cumsum(lengths)
    budget = _row_budget(n)
    kept = []
    lo = 0
    while lo < len(parts):
        # the most branches from lo whose orders fit the budget, at least
        # one: _individualize leaves every template at or under it
        hi = int(np.searchsorted(ends, ends[lo] - lengths[lo] + budget, "right"))
        template, cells = map(np.concatenate, zip(*parts[lo:hi]))
        branch = np.repeat(np.arange(lo, hi), lengths[lo:hi])
        packed = np.packbits(flat[(branch * (n * n))[:, None] + cells], axis=1)
        owner = graph[branch]
        rows = _least_rows(owner, packed)
        kept.append((owner[rows], packed[rows], by_cell[branch[rows, None], template[rows]]))
        lo = hi
    if len(kept) > 1:
        owner, packed, orders = map(np.concatenate, zip(*kept))
        # the parts go before the merge copies the orders, the largest array
        del kept
        keep = _least_rows(owner, packed)
        owner, packed, orders = owner[keep], packed[keep], orders[keep]
    else:
        (owner, packed, orders), = kept
    counts = np.bincount(owner, minlength=g)
    codes = [int.from_bytes(row.tobytes(), "big") for row in packed[np.cumsum(counts) - counts]]
    return Labelling(codes, orders, counts)


def _least_sign_row(adj: np.ndarray, orders: np.ndarray, switched: bool) -> bytes:
    """The least upper-triangle sign row of the sign matrix adj relabeled by
    each of its underlying graph's optimal orders (from canonical_form).

    When switched, each relabeled matrix is first switched so that its
    canonical spanning forest is positive. All these orders give the same
    underlying graph, hence one forest.
    """
    tree = _bfs_tree(adj[np.ix_(orders[0], orders[0])]) if switched else []
    iu, ju = _triu_cells(len(adj))
    rows = []
    for start in range(0, len(orders), _ORDER_CHUNK):
        # numpy gathers by intp indices faster than by the orders' small dtype
        chunk = orders[start:start + _ORDER_CHUNK].astype(np.intp)
        moved = adj[chunk[:, :, None], chunk[:, None, :]]
        spin = _tree_spins(moved, tree)
        # signs -1/0/+1 compare as the bytes 2/0/1
        vals = (spin[:, iu] * spin[:, ju] * moved[:, iu, ju] % 3).astype(np.uint8)
        rows.append(vals[_least_rows(np.zeros(len(vals), dtype=np.intp), vals)[0]].tobytes())
    return min(rows)


def _signed_code(g: SignedGraph, switched: bool) -> tuple[int, bytes]:
    code, orders = canonical_form(np.abs(g.adj).astype(bool))
    return code, _least_sign_row(g.adj, orders, switched)


def canonical_signed_code(g: SignedGraph) -> tuple[int, bytes]:
    """A complete invariant of the (relabeling, switching) class of g: the
    least underlying bitmap over class-respecting relabelings, then the least
    canonical-switch sign row over the relabelings that attain it."""
    return _signed_code(g, switched=True)


def signed_isomorphic(g1: SignedGraph, g2: SignedGraph) -> bool:
    """True iff some relabeling maps g1 onto g2 with identical signs (no switching)."""
    # graphs of different orders have sign rows of different lengths
    return _signed_code(g1, switched=False) == _signed_code(g2, switched=False)


def switching_isomorphic(g1: SignedGraph, g2: SignedGraph) -> bool:
    """True iff some vertex bijection maps g1 onto a switching of g2.

    Exhaustive over class-respecting relabelings, so intended for small orders;
    rejects graphs above _SWITCHING_ISO_MAX_ORDER vertices to bound the cost.
    """
    if g1.n != g2.n:
        return False
    if g1.n > _SWITCHING_ISO_MAX_ORDER:
        raise ValueError(
            f"switching isomorphism capped at {_SWITCHING_ISO_MAX_ORDER} vertices")
    return canonical_signed_code(g1) == canonical_signed_code(g2)
