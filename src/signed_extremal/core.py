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
        return list(zip(iu.tolist(), ju.tolist(), self.adj[iu, ju].tolist()))

    def neighbors(self, v: int) -> list[int]:
        (v,) = _check_vertex_set(self.n, (v,))
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
    if not _is_int(n) or n < 1:
        raise ValueError(f"vertex count must be a positive integer, got {n!r}")
    adj = np.zeros((n, n), dtype=np.int8)
    seen = set()
    for u, v, s in edges:
        u, v = _check_vertex_set(n, (u, v))
        if u == v:
            raise ValueError(f"edge ({u},{v}): loops are not allowed")
        if not _is_int(s) or s not in (-1, 1):
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


def _is_int(v) -> bool:
    """An int or numpy integer, never a bool (bool is a subclass of int;
    numpy bools are not numpy integers)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_vertex_set(n: int, vertices) -> list[int]:
    """The entries of vertices as ints, in order; ValueError for an entry that
    is not an int or numpy integer (bool included) or not a vertex of a graph
    on n vertices."""
    out = []
    for v in vertices:
        if not _is_int(v):
            raise ValueError(f"vertex {v!r} is not an integer")
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} is outside the graph 0..{n - 1}")
        out.append(int(v))
    return out


def _switched(a: np.ndarray, vertex_sets) -> np.ndarray:
    """s[:, :, None] * s[:, None, :] * a, a (k, n, n) stack or one matrix,
    for the spins s, -1 on each of the k checked vertex lists vertex_sets."""
    n = a.shape[-1]
    s = np.ones((len(vertex_sets), n), dtype=np.int8)
    # not built from lists: that numpy code raised the property suites' peak RSS
    s.reshape(-1)[[i * n + v for i, vs in enumerate(vertex_sets) for v in vs]] = -1
    return s[:, :, None] * s[:, None, :] * a


def switch(g: SignedGraph, vertex_set) -> SignedGraph:
    """Negate every edge with exactly one endpoint in vertex_set."""
    return SignedGraph._trusted(_switched(g.adj, [_check_vertex_set(g.n, vertex_set)])[0])


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
    enumerator's tables call it once per row.
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


def _tree_spins(adj: np.ndarray, tree) -> np.ndarray:
    """Spins (..., n) that make every edge of the forest `tree` positive in
    each matrix of the (..., n, n) stack adj."""
    spin = np.ones(adj.shape[:-1], dtype=np.int8)
    # a parent is discovered before its children, so its spin is final
    for v, u in tree:
        spin[..., u] = spin[..., v] * adj[..., v, u]
    return spin


def _bfs_tree_spins(g: SignedGraph) -> np.ndarray:
    """Spins that make every edge of the canonical spanning forest positive."""
    return _tree_spins(g.adj, _bfs_tree(g.adj))


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
    vs = _check_vertex_set(g.n, vertices)
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

# core's one work cap: the count vectors of one switching maximum and the
# switchings expanded at its peak (2^20 is every switching of a twin-free
# 20-vertex graph), and the branches alive in one labelling or sign-row search,
# which never outnumber optimal orders: at most 9! = 362,880 up to 9 vertices
_SWITCH_MAX_WORK = 1 << 20


@lru_cache(maxsize=None)
def _triu_cells(n: int):
    """Row and column indices of the upper-triangle cells, row by row (read-only)."""
    iu, ju = np.triu_indices(n, k=1)
    iu, ju = iu.astype(np.intp), ju.astype(np.intp)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def refined_color_classes(adj_bool: np.ndarray) -> list[list[int]]:
    """Vertex classes of one graph under colour refinement (_refine), in colour
    order: the classes canonical_form's orders respect. Colours start as
    degree ranks and each round re-ranks (colour, sorted neighbour colours),
    so isomorphic graphs get corresponding classes in the same order."""
    colours = _refine(adj_bool[None])[0]
    return [np.flatnonzero(colours == c).tolist() for c in range(colours.max() + 1)]


def canonical_form(adj_bool: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The canonical bitmap of one graph, the least upper-triangle bit string
    over the orders that respect its refined colour classes as packed bytes
    (_packed_codes), and its optimal orders in which each twin class ascends,
    one per coset of the twin swaps: _label_stack of a one-graph stack. The
    orders ascend: the search gives them in prefix order, and two that part
    take the least vertices of two twin classes with none in the prefix, as
    an automorphism that fixes the prefix fixes the twin classes it meets."""
    _, first, _, perm = _label_stack(adj_bool[None], 1)
    return _packed_codes(adj_bool[None], first)[0].tobytes(), perm


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
    base-n digits whose words stay below 2^53 (at most n, so n = 1 ends) and
    leave room below 2^63 for one more digit, the colour _refine puts on top
    of the first word (which takes a digit off k only from n = 1,449 on)."""
    k = 1
    while k < n and n ** (k + 1) <= 1 << 53 and n ** (k + 2) <= 1 << 63:
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
    rows (colour, -words), with the colour as one more digit on top of the
    first word: colour * n^k - word is below n^(k + 1) <= 2^63 in magnitude
    and orders as (colour, -word) does. A word and every partial sum of it
    is an integer below n^k <= 2^53, so the float arithmetic is exact, and
    base-n words compare as their digit tuples do.
    """
    n = adj.shape[1]
    k, weights = _count_weights(n)
    colours = _dense_ranks(adj.sum(axis=2, dtype=np.intp)[:, :, None])
    active = np.flatnonzero(colours.max(axis=1) < n - 1)
    a = adj[active].astype(np.float64)
    while len(active):
        col = colours[active]
        top = col.max()
        # at least one word, which a single colour leaves 0, to carry the colour
        table = np.zeros((top + 1, max(-(-top // k), 1)))
        table[:top] = weights[:top, :table.shape[1]]
        keys = -(a @ table[col]).astype(np.int64)
        keys[:, :, 0] += col * n ** k
        new = _dense_ranks(keys)
        colours[active] = new
        # a partition that did not split is stable; a discrete one cannot split
        top = new.max(axis=1)
        going = (top > col.max(axis=1)) & (top < n - 1)
        active, a = active[going], a[going]
    return colours


def _least_rows(owner: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the rows of byte values that equal the
    lexicographically least row of their owner; owner is ascending."""
    # zero-padded to big-endian uint64 words, rows compare as their bytes do
    words = np.zeros((len(values), -(-values.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, :values.shape[1]] = values
    words = words.view(">u8")
    rows = np.arange(len(owner))
    for w in range(words.shape[1]):
        own = owner[rows]
        first = np.concatenate(([True], own[1:] != own[:-1]))
        if first.all():  # one row per owner is left
            break
        col = words[rows, w]
        rows = rows[col == np.minimum.reduceat(col, np.flatnonzero(first))[np.cumsum(first) - 1]]
    return rows


def _search_cells(values: np.ndarray, owner: np.ndarray, cell: np.ndarray, tag: np.ndarray,
                  layout: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(owner, own, perm): the branches left by individualizing the positions
    in turn (McKay and Piperno, J. Symbolic Comput. 60, 2014). Start b has
    values[b] (n, n), entries 0 to 2; slot i of every start holds vertex
    layout[i], with cell cell[b, i] (below 4n) and tag tag[b, i] (below n),
    each cell's slots consecutive. An owner with one start whose cells each
    hold one tag has one order, its slots sorted, and takes no branch.
    Position p takes each vertex that is the first of its tag in its slot's
    cell (slot argsort(layout)[p]): that vertex goes first, every cell splits
    by its values to it, which fixes row p, and only each owner's branches
    with the least row p go on (owner ascends), until each cell is one tag;
    the later rows are then compared. Row r of perm is start own[r]'s order,
    vertex by position; own ascends, and each start's branches come in prefix
    order. More than _SWITCH_MAX_WORK branches at one position are refused."""
    n = len(layout)
    b = (n - 1).bit_length()
    # each slot's key: its cell, below 4n after a split, its tag and its vertex
    dtype = np.min_scalar_type((4 << 3 * b) - 1)
    key = np.sort(cell.astype(dtype) << 2 * b | tag.astype(dtype) << b | layout.astype(dtype))
    low = (1 << 2 * b) - 1
    slots, slot = np.arange(n, dtype=dtype), np.argsort(layout)
    # where a slot starts a tag but not a cell
    step = key[:, 1:] ^ key[:, :-1]
    done = ~((step >> b != 0) & (step <= low)).any(1) & (np.bincount(owner)[owner] == 1)
    own = np.flatnonzero(~done)
    finished = owner[done], np.flatnonzero(done), (key[done] & (1 << b) - 1)[:, slot]
    if done.all():
        return finished
    owner, key = owner[own], key[own]
    for p, s in enumerate(slot.tolist()):
        key.sort()
        if p:
            # row p - 1: one plus the values to its vertex, one per cell
            keep = _least_rows(owner, key[:, slot[p:]] >> 2 * b & 3)
            owner, own, key = owner[keep], own[keep], key[keep]
        perm = key & (1 << b) - 1
        # the first slot of each slot's cell, and the first of each tag
        step = key ^ np.roll(key, 1, 1)
        start = np.maximum.accumulate(np.where(step > low, slots, 0), 1)
        new = step >> b != 0
        new[:, 0] = True
        if (new == (start == slots)).all():
            break
        take, j = np.nonzero((start == s) & new)
        _check_work(len(take), what)
        owner, own, key = owner[take], own[take], key[take]
        # the vertex at s first, then each cell by its value to it
        to = values[own[:, None], perm[take, j, None], perm[take]]
        key = (start[take] * 4 + to + (slots != j[:, None])) << 2 * b | key & low
    perm = perm[:, slot]
    # the rows past position p, while some owner keeps two branches
    for q in range(p, n - 1):
        if (owner[1:] != owner[:-1]).all():
            break
        keep = _least_rows(owner, values[own[:, None], perm[:, q, None], perm[:, q + 1:]])
        owner, own, perm = owner[keep], own[keep], perm[keep]
    owner, own, perm = map(np.concatenate, zip(finished, (owner, own, perm)))
    # an owner that finished at once has one row, so a stable sort keeps order
    order = np.argsort(owner, kind="stable")
    return owner[order], own[order], perm[order]


def _packed_codes(adj: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """The code of each graph of a (G, n, n) bool stack relabelled by its
    order (G, n): its upper-triangle cells, row by row, packed MSB first into
    a uint8 row padded with zero bits to whole bytes. Codes of one n have one
    length, so as bytes they compare as the big-endian numbers they spell."""
    g, n = adj.shape[:2]
    iu, ju = _triu_cells(n)
    cells = adj[np.arange(g)[:, None], orders[:, iu], orders[:, ju]]
    # the indexing leaves the cells, and so their bytes, column-major
    return np.ascontiguousarray(np.packbits(cells, axis=1))


def _label_stack(adj: np.ndarray, block: int):
    """(tags, first, branch, perm) of a (G, n, n) bool stack, in the smallest
    unsigned dtype that holds n - 1: the least twin of each vertex
    (_twin_firsts), each graph's first optimal order, whose code
    (_packed_codes) is its canonical bitmap, and the optimal orders in which
    each twin class ascends, one per coset of the twin swaps, row r an order
    of graph branch[r], each graph's in prefix order. Refinement (_refine),
    tags and the search (_search_cells) take `block` graphs at a time; a
    graph whose colour classes are all twin sets, K_n among them, keeps its
    one order, by colour and within a colour by vertex, without a branch."""
    g, n = adj.shape[:2]
    dtype = np.min_scalar_type(n - 1)
    tags = np.empty((g, n), dtype=dtype)
    branch, perm = [], []
    for lo in range(0, g, block):
        part = adj[lo:lo + block]
        tags[lo:lo + block] = _twin_firsts(part)
        b, _, p = _search_cells(part.view(np.uint8), np.arange(len(part)), _refine(part),
                                tags[lo:lo + block], np.arange(n), "labelling")
        branch.append(b + lo)
        perm.append(p.astype(dtype))
    branch, perm = np.concatenate(branch), np.concatenate(perm)
    counts = np.bincount(branch, minlength=g)
    return tags, perm[np.cumsum(counts) - counts], branch, perm


class _Labels(NamedTuple):
    """The labelling of G graphs in canonical form, which the class
    enumeration carries from the level that accepts a class to the level
    where it is a parent (_canonical_labels)."""

    tags: np.ndarray        # (G, n) the least position of each position's twin class
    orders: np.ndarray      # (rows, n) automorphisms, one per coset of the twin swaps
    counts: np.ndarray      # (G,) rows of each graph, 1 for a twin graph

    def take(self, index) -> "_Labels":
        """The labels of the graphs index (a slice or an index array), in that order."""
        counts = self.counts[index]
        starts = (np.cumsum(self.counts) - self.counts)[index]
        rows = np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
        return _Labels(self.tags[index], self.orders[rows], counts)


def _canonical_labels(index, tags, first, branch, perm) -> _Labels:
    """The labels of the graphs index, ascending, of a stack that _label_stack
    labelled, in canonical positions: each position's least twin, and each
    graph's optimal orders composed with the inverse of its first order, the
    automorphisms of its canonical form, one per coset of its twin swaps,
    the identity first. As each twin class ascends in every order, each maps
    the k-th position of a twin class to the k-th position of its image."""
    inverse = np.argsort(first, axis=1).astype(first.dtype)
    rows = np.isin(branch, index)
    tags = np.take_along_axis(tags[index], first[index], 1)
    return _Labels(np.take_along_axis(inverse[index], tags, 1),
                   np.take_along_axis(inverse[branch[rows]], perm[rows], 1),
                   np.bincount(branch, minlength=len(first))[index])


def _least_of_orbits(labels: _Labels, masks: np.ndarray) -> np.ndarray:
    """least[g, j]: whether the vertex subset masks[j] is the least of its
    orbit under the automorphisms of graph g, for graphs in canonical form
    with their labels. masks holds ascending bitmasks, 0 first, and with each
    mask the mask less its lowest bit.

    The twin swaps T are normal in Aut(G), so the least of S's orbit is the
    least, over the carried orders r, of fill(r(S)), where fill moves the
    members of S in each twin class to that class's least positions. So S is
    least iff fill(S) = S, that is S holds the predecessor in its twin class
    of each of its positions, and S is the least of the r(S): each r maps
    the k-th position of a twin class to the k-th of its image, so it keeps
    fill(S) = S. The mask images live only for the call."""
    tags, orders, counts = labels
    m = tags.shape[1]
    sizes = np.bitwise_count(masks)
    # each position's predecessor in its twin class, itself if it is the least
    before = np.tril(tags[:, :, None] == tags[:, None, :], -1)
    pred = np.where(before.any(2), (before * np.arange(m)).max(2), np.arange(m))
    column = np.zeros(1 << m, dtype=np.intp)
    column[masks] = np.arange(len(masks))
    first = masks & -masks
    # image[r, S] is S under map r, the orders and then each graph's
    # predecessors: the image of S less its lowest bit, joined with that
    # bit's image, built size by size from column 0, the empty set
    dtype = np.min_scalar_type((1 << m) - 1)
    bit_image = np.left_shift(dtype.type(1), np.concatenate((orders, pred.astype(orders.dtype))))
    image = np.zeros((len(bit_image), len(masks)), dtype=dtype)
    for k in range(1, sizes.max() + 1):
        col = np.flatnonzero(sizes == k)
        image[:, col] = (image[:, column[masks[col] ^ first[col]]]
                         | bit_image[:, np.bitwise_count(first[col] - 1)])
    least = image[len(orders):] & ~masks == 0
    least &= np.minimum.reduceat(image[:len(orders)], np.cumsum(counts) - counts, 0) == masks
    return least


def _twin_firsts(adj: np.ndarray, up_to_sign: bool = False) -> np.ndarray:
    """The least twin of each vertex in each sign matrix of a stack (..., n, n):
    a != b are signed twins when adj[a, x] == adj[b, x] for every x outside
    {a, b}, or with up_to_sign switching twins, adj[a, x] == e adj[b, x] for
    one e = +-1, whose swap is a switching automorphism. Both are
    equivalences. With s = adj[a, b], the rows off the pair differ by
    |A_a - e A_b|^2 - 2 s^2 in squared norm, and |A_a - e A_b|^2 = (A^2)_aa +
    (A^2)_bb - 2 e (A^2)_ab is least at e = sign (A^2)_ab. So a and b are
    twins iff (A^2)_aa + (A^2)_bb = 2 (e (A^2)_ab + s^2): one matmul decides
    every pair, in integers of magnitude at most 2n, exact in float32."""
    a = adj.astype(np.float32)
    sq = a @ a
    d = sq.diagonal(0, -2, -1).copy()
    if up_to_sign:
        np.abs(sq, out=sq)
    a *= a
    sq += a
    sq *= 2
    # a's buffer takes (A^2)_aa + (A^2)_bb; a vertex is its own twin, so each
    # row's first twin is its class's least
    np.add(d[..., None], d[..., None, :], out=a)
    return (a == sq).argmax(-1)


def _signed_twin_classes(adj: np.ndarray) -> list[list[int]]:
    """The classes of signed twins (_twin_firsts) of the sign matrix adj, each
    ascending, in order of their least vertex."""
    return list(_groups(_twin_firsts(adj).tolist()))


def _check_work(count: int, what: str, unit: str = "branches"):
    """Refuse `count` units of work past _SWITCH_MAX_WORK, before allocating."""
    if count > _SWITCH_MAX_WORK:
        raise ValueError(f"{what} capped at {_SWITCH_MAX_WORK} {unit}, got {count}")


def _twin_quotient(adj: np.ndarray) -> tuple[list[list[int]], np.ndarray, np.ndarray]:
    """The signed-twin classes of the sign matrix adj (_signed_twin_classes),
    their sizes k and the class sign matrix: the sign between two classes off
    the diagonal, and each class's inner sign on it (0 for a single vertex)."""
    classes = _signed_twin_classes(adj)
    first = [c[0] for c in classes]
    signs = adj[np.ix_(first, first)].astype(np.int64)
    signs[np.diag_indices(len(classes))] = [adj[c[0], c[-1]] for c in classes]
    return classes, np.array([len(c) for c in classes], dtype=np.int64), signs


def _count_grid(sizes: np.ndarray) -> np.ndarray:
    """Every count vector c with 0 <= c <= sizes, one int64 row each, the
    first entry counting fastest: with every size 1, row x is the bits of x."""
    radix = sizes + 1
    index = np.arange(int(np.prod(radix)))
    return index[:, None] // (np.cumprod(radix) // radix) % radix


def _switching_peak(sizes: np.ndarray, signs: np.ndarray) -> tuple[int, np.ndarray]:
    """The largest negative edge count over the switchings of a graph given by
    its signed-twin quotient (_twin_quotient), and the count vectors attaining
    it, one row each.

    Switching c_i vertices of each class X_i flips the sign of the c_i (k_i -
    c_i) edges inside X_i and of the c_i (k_j - c_j) + c_j (k_i - c_i) edges
    between X_i and X_j, so neg(c) = neg_0 + c^T S (k - c) with S the class sign
    matrix. Split the classes into two runs A and B: c^T S c = c_A^T S_AA c_A +
    c_B^T S_BB c_B + 2 c_A^T S_AB c_B (Horowitz and Sahni, J. ACM 21, 1974), so
    the count grids of the runs give every vector from one matmul: row r,
    column x is the vector (a[r], b[x]). The split makes the larger grid
    least, and A is the smaller one, so the table's rows are long; on a
    twin-free graph the grid is the 2^n switchings and the runs hold n // 2
    and n - n // 2 vertices. Every term and partial sum is an integer of
    magnitude below 5 n^2, so float64, which runs in BLAS unlike int matmul,
    is exact. Rejects a grid of more than _SWITCH_MAX_WORK vectors before
    allocating.
    """
    radix = (sizes + 1).tolist()
    total = math.prod(radix)
    _check_work(total, "switching maximum", "count vectors")
    prefix = np.cumprod([1, *radix])
    h = int(np.argmin(np.maximum(prefix, total // prefix)))
    runs = [slice(h), slice(h, None)]
    if prefix[h] ** 2 > total:
        runs.reverse()
    a, b = (_count_grid(sizes[run]).astype(np.float64) for run in runs)
    s = signs.astype(np.float64)
    gain = s @ sizes

    def own(c, run):
        return c @ gain[run] - ((c @ s[run, run]) * c).sum(1)

    # one matmul adds each run's own terms as well: [a S'_AB, own_A, 1] times
    # [b, 1, own_B], S' = -2 S
    ra, rb = runs
    table = (np.column_stack([a @ (-2 * s[ra, rb]), own(a, ra), np.ones(len(a))])
             @ np.column_stack([b, np.ones(len(b)), own(b, rb)]).T)
    # ties are few, so only the rows that reach the top are compared whole
    row_top = table.max(axis=1)
    top = row_top.max()
    rows = np.flatnonzero(row_top == top)
    row, col = np.nonzero(table[rows] == top)
    vectors = np.empty((len(row), len(sizes)), dtype=np.int64)
    vectors[:, ra], vectors[:, rb] = a[rows[row]], b[col]
    negative = signs == -1
    neg0 = (sizes @ negative @ sizes - sizes @ negative.diagonal()) // 2
    return int(neg0 + top), vectors


def _distinct_matrices(stack: np.ndarray) -> np.ndarray:
    """The distinct rows of an int8 stack (G, ...), matrices or any other
    shape, sorted by their bytes. Sorted as one void scalar each, which
    compares bytewise; np.unique would import numpy.ma on its first call,
    about 10 ms and 0.5 MB."""
    width = math.prod(stack.shape[1:])
    rows = np.sort(stack.reshape(len(stack), width).view(np.dtype((np.void, width))).ravel())
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = rows[1:] != rows[:-1]
    return rows[keep].view(np.int8).reshape(-1, *stack.shape[1:])


def _switched_matrices(adj: np.ndarray, classes: list[list[int]],
                       vectors: np.ndarray) -> np.ndarray:
    """The matrices of every switching of the sign matrix adj that takes c_i
    vertices of its signed-twin class i, for each count vector c of vectors:
    prod C(k_i, c_i) switchings per vector. A class switched in part picks its
    minority side, so C(k, 1) = k rows cost k, not 2^k. A switching
    and its complement give one matrix, and vectors holds k - c with each c
    when they are the peak of _switching_peak (neg(c) = neg(k - c)), so only
    the switchings that keep vertex 0 become matrices, _SWITCH_MAX_WORK cells
    at a time, each batch without duplicates (_distinct_matrices)."""
    n = len(adj)
    blocks = []
    for c in vectors.tolist():
        spins = np.ones((1, n), dtype=np.int8)
        for members, ci in zip(classes, c):
            k = len(members)
            if ci in (0, k):  # switched whole or not at all
                spins[:, members] = 1 if ci == 0 else -1
                continue
            flip = 2 * ci > k
            m = k - ci if flip else ci
            pick = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(k), m)),
                               dtype=np.intp).reshape(-1, m)
            sub = np.full((len(pick), k), -1 if flip else 1, dtype=np.int8)
            np.put_along_axis(sub, pick, 1 if flip else -1, axis=1)
            spins = np.repeat(spins, len(sub), axis=0)
            spins[:, members] = np.tile(sub, (len(spins) // len(sub), 1))
        blocks.append(spins[spins[:, 0] == 1])
    spins = np.concatenate(blocks)
    step = max(1, _SWITCH_MAX_WORK // (n * n))
    return np.concatenate([_distinct_matrices(chunk[:, :, None] * chunk[:, None, :] * adj)
                           for chunk in np.split(spins, range(step, len(spins), step))])


def _least_sign_rows(adj: np.ndarray, orders: np.ndarray, switched: bool) -> list[bytes]:
    """For each sign matrix of the (G, n, n) stack adj, whose matrices share
    one underlying graph, its least upper-triangle sign row, signs -1/0/+1 as
    the bytes 2/0/1, relabeled by each optimal order of that graph, given one
    per coset of the twin swaps (canonical_form), and switched first, when
    switched, so that its canonical spanning forest, one for all these
    orders, is positive.

    A search within the twin classes (_search_cells). Only the least
    position of a class can be internal in the forest, as its first member
    dequeued finds every neighbour of the others, which share one parent.
    So a start, an order with one vertex per class of switching twins
    (_twin_firsts) at each internal position, fixes every spin. Each later
    position of a class takes one vertex per signed twin of the start, until
    each cell is one signed-twin class, whose arrangements all give one row.
    Each matrix owns its distinct starts, found with one sort of them all,
    and keeps the first row left of its branches. More than
    _SWITCH_MAX_WORK starts or branches are refused."""
    n = adj.shape[1]
    under = adj[0, orders[0, :, None], orders[0]] != 0
    tree = _bfs_tree(under) if switched else []
    inner = sorted({p for p, _ in tree})
    classes = _signed_twin_classes(under)
    fixed = [c for c in classes if c[0] in inner]
    firsts = _twin_firsts(adj, up_to_sign=True)
    leads = (firsts == np.arange(n)).any(0)
    picked = orders
    for c in fixed:
        # each start once per vertex of c that leads its class of switching
        # twins in some matrix, at c's least position, its internal one
        r, q = np.nonzero(leads[picked[:, c]])
        _check_work(len(adj) * len(r), "sign rows")
        picked, q, r = picked[r], np.array(c)[q], np.arange(len(r))
        picked[r, c[0]], picked[r, q] = picked[r, q], picked[r, c[0]]
    # each matrix's starts, whose internal vertices lead in it, switched
    at = picked[:, inner]
    g, k = np.nonzero((firsts[:, at] == at).all(-1))
    moved = adj[g[:, None, None], picked[k, :, None], picked[k, None]]
    spin = _tree_spins(moved, tree)
    moved *= spin[:, :, None]
    moved *= spin[:, None]
    # each matrix's distinct starts (every matrix has one): its index,
    # big-endian, ahead of each start's cells sorts the rows by matrix
    rows = _distinct_matrices(np.concatenate(
        (g.astype(">u4")[:, None].view(np.int8), moved.reshape(len(g), -1)), 1))
    owner = rows[:, :4].copy().view(">u4")[:, 0].astype(np.intp)
    stack = rows[:, 4:].reshape(-1, n, n)
    # the positions class by class, an internal one a cell of its own, and
    # each slot's tag its signed-twin class in the start
    layout, cell = np.array([(p, 2 * k + (p not in inner))
                             for k, c in enumerate(classes) for p in c]).T
    values = stack % 3
    owner, own, perm = _search_cells(values, owner, cell, _twin_firsts(stack)[:, layout],
                                     layout, "sign rows")
    # every row left of an owner is its least
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    own, perm = own[first, None], perm[first]
    iu, ju = _triu_cells(n)
    return [row.tobytes() for row in values[own, perm[:, iu], perm[:, ju]]]


def _groups(keys):
    """The indices of each distinct key, by first appearance."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups.values()


def _signed_keys(adj: np.ndarray, switched: bool) -> list[tuple[bytes, bytes]]:
    """The key (code, sign row) of each sign matrix of the int8 stack adj, in
    input order: the canonical bitmap of its underlying graph (canonical_form)
    and its least sign row over that graph's optimal orders, switched first
    when switched (_least_sign_rows). Each distinct underlying graph is
    labelled once, and the rows of its matrices found in one call."""
    under = adj != 0
    keys = [None] * len(adj)
    for idx in _groups([u.tobytes() for u in under]):
        code, orders = canonical_form(under[idx[0]])
        for i, row in zip(idx, _least_sign_rows(adj[idx], orders, switched)):
            keys[i] = code, row
    return keys


def canonical_signed_code(g: SignedGraph) -> tuple[bytes, bytes]:
    """A complete invariant of the (relabeling, switching) class of g: the
    least underlying bitmap over class-respecting relabelings, then the least
    canonical-switch sign row over the relabelings that attain it."""
    return _signed_keys(g.adj[None], switched=True)[0]


def signed_isomorphic(g1: SignedGraph, g2: SignedGraph) -> bool:
    """True iff some relabeling maps g1 onto g2 with identical signs (no switching)."""
    # graphs of different orders have sign rows of different lengths
    return _signed_keys(g1.adj[None], switched=False) == _signed_keys(g2.adj[None], switched=False)


def switching_isomorphic(g1: SignedGraph, g2: SignedGraph) -> bool:
    """True iff some vertex bijection maps g1 onto a switching of g2.

    Compares canonical_signed_code, but the sorted degrees first: the graphs
    are only keyed when their degrees agree. The key's labelling and sign-row
    search refuse more than _SWITCH_MAX_WORK branches, which no graph on 9
    vertices or fewer reaches.
    """
    # sorted degrees of different lengths differ as well
    if not np.array_equal(*(np.sort(np.count_nonzero(g.adj, axis=0)) for g in (g1, g2))):
        return False
    key1, key2 = _signed_keys(np.stack([g1.adj, g2.adj]), switched=True)
    return key1 == key2
