"""Exhaustive search over small signed graphs up to switching.

Enumerates one representative per isomorphism class of connected underlying
graphs, and per underlying graph one signed representative per switching class
(spanning-tree edges pinned positive). Searches maximize edges, spectral
radius, or negative edges at maximum edge count, and theorem verifiers match
the maximizers against the named constructions.

The classes are grown one vertex at a time by canonical augmentation (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998), a whole level
per pass in numpy blocks of _TABLE_BLOCK graphs. The automorphisms of the
classes on n - 1 vertices give one attachment mask per orbit. A child G is
kept if its new vertex may be canonically deleted: among the non-cut
vertices that maximize (-degree, sorted neighbour degrees), it must share an
orbit with the one that gets the smallest canonical label. Each class then
arises once, stored as its canonical bitmap.
The cut tests read the parent, not the child: G is a parent P plus one new
vertex, so for any other vertex v, G - v is connected iff the new vertex's
other neighbours meet every component of P - v, and those components are
found once per parent and vertex (_cut_components).
A degree bound drops most masks before the test. Take G = P + w with mask
S, |S| >= 2, and a vertex u that is non-cut in P:
  G - u is P - u plus w, which keeps a neighbour in S - {u}: u is non-cut in G;
  deg_G(u) = deg_P(u) + [u in S], and deg_G(w) = |S|;
  so if deg_G(u) < |S|, u's key beats w's, and w is not in M(G).
With delta the least degree of a non-cut vertex of P, then, a mask is kept
iff |S| <= delta, or |S| = delta + 1 and S holds every non-cut vertex of
degree delta (delta >= 1, so leaves are always kept).
The rule is invariant under Aut(P), so it drops whole orbits, and the masks
are found one block of parents at a time, as the least image of each mask
under the block's automorphisms (_orbit_masks). At n = 8 it sends 16,950
children to the test instead of 67,141; 11,933 pass, as before.
Each class is labelled once, as a child (core._label_stack), _TABLE_BLOCK
children at a time: colour refinement, the least twin of each vertex, and a
search that individualizes each position in turn, keeping the branches whose
next row of the code is least and trying one vertex per twin class of a cell
(McKay and Piperno, J. Symbolic Comput. 60, 2014). So each child keeps one
optimal order per coset of its twin swaps: a cubic child on 8 vertices opens
at most 48 branches at a position and 88 in all, not 8! = 40,320 orders, and a
child whose colour classes are all twin sets, K_n among them, keeps its one
order without a branch (at n = 8, all but 2,804 of the 11,933 children, and
those keep 6,686 orders).
Vertex labels are positions in these orders, and the least label of a twin
class is that of its least twin, so a child passes iff its new vertex's twin
class and M(G) get the same least label. Only the children that pass get a
code, a uint8 row of packed cells (core._packed_codes); a level is one
read-only array of them, sorted bytewise, which is code order.
Below _MAX_N each accepted child keeps its labelling for the next level in
canonical positions (core._canonical_labels): each position's least twin and
its orders composed with the inverse of the first, automorphisms of its
canonical form, one per coset of the twin swaps (1,272 rows for the 853
classes on 7 vertices, one for each of the 570 whose colour classes are twin
sets). So no parent is labelled again: the twin swaps are normal in Aut(P), so
a mask is the least of its orbit iff it fills each twin class from its least
position and no carried automorphism maps it lower (core._least_of_orbits).

The signatures of a class are the 2^k sign patterns on its k edges off the
canonical spanning tree. With the tree pinned +1, the sign of a triangle is
the parity of its non-tree bits, so the patterns that avoid the forbidden
triangle are the solutions of an affine system over GF(2). They are found by
one column elimination over uint64 words of equation bits (_gf2_columns),
never by scanning all 2^k patterns.

No table of every class is kept. Once per (n, forbidden triangle), on the
first search that needs it, a summary of four bytes per class (edge count,
the dimension of the solution space, whether the system is consistent and
whether pattern 0 solves it) is built from the class codes alone, a block at
a time. Switching classes are fixed by their cycle signs (Zaslavsky, "Signed
graphs", 1982), so no spanning tree is needed: the system is solved over the
m edge signs, and the cut space, of dimension n - 1, divides the count.
Feasible counts follow from the summary alone. A scan takes the classes with
feasible signatures densest first, one edge count at a time, and rebuilds
(with one core._bfs_tree per row) and fully solves the rows of only the
counts it reaches: MAX_EDGES the densest, MAX_RHO, in eigvalsh calls of
up to _EIG_BATCH matrices, every count up to the first whose bound
(sqrt(1 + 8m) - 1) / 2 on the spectral radius of every signature
(Perron-Frobenius and Stanley, 1987) is out of reach of the best value found,
decided in integers: the T1_3 scan at n = 8 rebuilds 43 of its 7,143
feasible classes and solves 51 of their 24,841 feasible signatures.

Every signed graph this module builds comes from a table row (_table_block)
and a non-tree pattern (_signature_stack): the search witnesses, the switching
classes of K_n that T1_1 and L2_2 check, and the output of
enumerate_signatures, whose one-row table is built for the graph it is given.
Switching maximizers stay int8 stacks (_neg_edge_maximizers); a SignedGraph is
built from one only to hand it out or to pass it to a core check.
The survivors of a scan stay (row, pattern) arrays until the witnesses are
chosen, one per switching-isomorphism class. They are deduplicated by the key
of canonical_signed_code, which core._signed_keys gives the whole stack in one
call: the class's canonical bitmap and the least canonical-switch sign row
over its automorphisms, found by a search that keeps only the least rows and
tries one of the signature's signed twins, vertices whose signed rows agree
off their pair, at a time. Each table row is labelled once, and the sign rows
of its signatures are found together.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from ._render import json_text
from .bounds import (
    SPECTRAL_SLACK,
    BoundReport,
    _check_n,
    edge_bound,
    make_bound_report,
    neg_edge_bound,
    rho_bound,
)
from .core import (
    SignedGraph,
    _bfs_tree,
    _canonical_labels,
    _check_work,
    _distinct_matrices,
    _label_stack,
    _least_of_orbits,
    _packed_codes,
    _signed_keys,
    _switched_matrices,
    _switching_peak,
    _tree_spins,
    _triu_cells,
    _twin_quotient,
    canonical_signed_code,
    find_signed_triangles,
    is_balanced,
    is_connected,
    switching_equivalent,
)
from .families import (
    _GST_SIGNS,
    build_complete,
    build_gst,
    build_gst_maxneg,
    gst_partition,
)
from .graphio import format_graph
from .spectral import FORMULA_TOL, SpectralError, eigenvalues

__all__ = [
    "OBJECTIVES",
    "FORBIDDEN",
    "THEOREMS",
    "SearchConfig",
    "SearchReport",
    "enumerate_underlying",
    "enumerate_signatures",
    "search",
    "verify_theorem",
    "switching_neg_edge_maximum",
]

OBJECTIVES = ("MAX_EDGES", "MAX_RHO", "MAX_NEG_EDGES_AT_MAX_EDGES")
FORBIDDEN = ("C3_MINUS", "C3_PLUS", "NONE")

_MIN_N, _MAX_N = 4, 8
_EIG_BATCH = 8192
# classes (or parents, or children) per block while a level is enumerated or
# a class summary is built, which bounds their transient arrays
_TABLE_BLOCK = 1024


@dataclass(frozen=True)
class SearchConfig:
    n: int
    objective: str = "MAX_EDGES"
    forbidden: str = "C3_MINUS"
    require_unbalanced: bool = True

    def validate(self):
        _check_n(self.n)
        if not isinstance(self.require_unbalanced, bool):
            raise ValueError(
                f"require_unbalanced must be a bool, got {self.require_unbalanced!r}")
        if not (_MIN_N <= self.n <= _MAX_N):
            raise ValueError(f"search supports {_MIN_N} <= n <= {_MAX_N}, got {self.n}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.forbidden not in FORBIDDEN:
            raise ValueError(f"unknown forbidden-triangle selector {self.forbidden!r}")

    def to_json(self) -> str:
        return json_text({"n": self.n, "objective": self.objective,
                          "forbidden": self.forbidden,
                          "require_unbalanced": self.require_unbalanced})


@dataclass
class SearchReport:
    config: SearchConfig
    optimum: float | int
    witnesses: list[SignedGraph]
    matched_family: list[str | None]
    counts: dict[str, int]
    wall_time: float

    def to_json(self) -> str:
        """Stable-order JSON; wall_time is excluded so identical flags give
        byte-identical reports."""
        counts = {k: self.counts[k] for k in
                  ("underlying_scanned", "signatures_scanned", "feasible")}
        return json_text({"config": self.config, "optimum": self.optimum,
                          "witnesses": [format_graph(w) for w in self.witnesses],
                          "matched_family": self.matched_family, "counts": counts})


# ---------------------------------------------------------------------------
# Underlying-graph enumeration (one representative per isomorphism class)
# ---------------------------------------------------------------------------

def _code_cells(codes: np.ndarray, n: int) -> np.ndarray:
    """The (len(codes), C(n, 2)) bool upper-triangle cells of class codes on
    n vertices, row by row (core._triu_cells)."""
    return np.unpackbits(codes, axis=1, count=n * (n - 1) // 2).view(bool)


def _codes_to_adj(codes, n: int) -> np.ndarray:
    """The (len(codes), n, n) bool adjacency stack of class codes on n vertices."""
    iu, ju = _triu_cells(n)
    adj = np.zeros((len(codes), n, n), dtype=bool)
    adj[:, iu, ju] = _code_cells(codes, n)
    return adj | adj.transpose(0, 2, 1)


def _cut_components(adj: np.ndarray) -> np.ndarray:
    """comps[p, v, u]: the component of P - v that holds u, as a bitmask in
    the smallest unsigned dtype, for each graph P of a (G, m, m) bool stack;
    all m bits where u = v."""
    m = adj.shape[1]
    off = ~np.eye(m, dtype=bool)
    # reach[p, v]: adjacency of P - v, loops added, closed under squaring;
    # paths in P - v have at most m - 2 edges
    reach = (adj[:, None] & off[None, :, :, None] & off[None, :, None, :]) | np.eye(m, dtype=bool)
    for _ in range(max(m - 3, 0).bit_length()):
        step = reach.astype(np.uint8)
        reach = (step @ step).astype(bool)
    # in the result's own dtype, which holds any sum of distinct bits
    comps = reach @ (1 << np.arange(m)).astype(np.min_scalar_type((1 << m) - 1))
    comps[:, np.arange(m), np.arange(m)] = (1 << m) - 1
    return comps


def _deletion_sets(adj: np.ndarray, comps: np.ndarray) -> np.ndarray:
    """M(G) of each graph of a bool stack, as a (G, n) mask that is all False
    where the last vertex is not in M(G): the non-cut vertices maximizing
    (-degree, sorted neighbour degrees). Each G is its parent P = G - (n - 1)
    plus the last vertex, and comps[g] is _cut_components of that P; the last
    vertex is never a cut vertex, since deleting it leaves P, connected."""
    n = adj.shape[1]
    degs = adj.sum(axis=2)
    # among vertices of one degree, ascending neighbour degrees compare as
    # the counts of neighbours of degree 0, 1, ... in reverse, and a count
    # is at most n - 1: the key is n - degree, then minus those counts as
    # base-n digits, one integer below n^(n + 1), exact for n <= 15
    n_pow = np.int64(n) ** np.arange(n, -1, -1)
    key = (n - degs) * n_pow[0] - (adj @ n_pow[1:][degs][:, :, None])[:, :, 0]
    rivals = key >= key[:, -1:]
    child, v = np.nonzero(rivals[:, :-1])
    # G - v is connected iff the last vertex's other neighbours meet every
    # component of P - v; its whole mask meets the all-bits entry at v
    last = (adj[:, -1, :-1] @ (np.int64(1) << np.arange(n - 1))).astype(comps.dtype)
    rivals[child, v] = (comps[child, v] & last[child, None]).all(axis=1)
    in_set = rivals & (key == key[:, -1:])
    in_set[(rivals & (key > key[:, -1:])).any(axis=1)] = False
    return in_set


def _degree_bound(adj: np.ndarray, comps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor[p] and low[p] for each parent P of a (G, m, m) bool stack with
    comps = _cut_components(adj): delta and the non-cut vertices of degree
    delta, as a bitmask, of the degree bound in the module docstring (m and 0
    when P, a single vertex, has no non-cut vertex)."""
    m = adj.shape[1]
    # v is non-cut iff one component of P - v is all of P but v
    rest = ((1 << m) - 1) ^ (1 << np.arange(m))
    non_cut = (comps == rest[:, None].astype(comps.dtype)).any(axis=2)
    degs = adj.sum(axis=2)
    floor = np.where(non_cut, degs, m).min(axis=1)
    low = (non_cut & (degs == floor[:, None])) @ (np.int64(1) << np.arange(m))
    return floor, low


def _orbit_masks(adj: np.ndarray, comps: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """The (parent, mask) pairs of a (G, m, m) bool stack of canonical
    parents with their labels (core._Labels) that the degree bound keeps
    (_degree_bound), one per orbit of Aut(P) on vertex subsets: the orbit's
    least mask (core._least_of_orbits), ascending per parent."""
    m = adj.shape[1]
    floor, low = _degree_bound(adj, comps)
    # the bound is Aut(P)-invariant, so orbits are kept or dropped whole, and
    # no mask of more than floor.max() + 1 vertices is kept
    masks = np.arange(1 << m)
    masks = masks[np.bitwise_count(masks) <= floor.max() + 1]
    sizes = np.bitwise_count(masks)
    least = _least_of_orbits(labels, masks)
    keep = (least & (sizes > 0)
            & ((sizes <= floor[:, None])
               | ((sizes == floor[:, None] + 1) & (masks & low[:, None] == low[:, None]))))
    owner, col = np.nonzero(keep)
    return owner, masks[col]


def _canonical_children(n: int):
    """(codes, labels): the children of every (n-1)-vertex class that pass
    McKay's canonical deletion test, in generation order, and their labels
    unless n is _MAX_N. Masks that the degree bound of the module docstring
    rules out (_degree_bound) never reach the test, which would reject them,
    so the kept (parent, mask) pairs are a subsequence of the unpruned ones,
    in the same order. Each child is labelled once, _TABLE_BLOCK children at
    a time (core._label_stack)."""
    m = n - 1
    codes, labels = _class_level(m)
    parents = _codes_to_adj(codes, m)
    owner, masks, comps = [], [], []
    for lo in range(0, len(parents), _TABLE_BLOCK):
        block = parents[lo:lo + _TABLE_BLOCK]
        comps.append(_cut_components(block))
        p, s = _orbit_masks(block, comps[-1], labels.take(slice(lo, lo + _TABLE_BLOCK)))
        owner.append(p + lo)
        masks.append(s)
    comps, owner, masks = map(np.concatenate, (comps, owner, masks))
    bits = ((masks[:, None] >> np.arange(m)) & 1).astype(bool)
    # the children whose new vertex is in M(G), with M(G)
    kids = []
    for lo in range(0, len(owner), _TABLE_BLOCK):
        part = owner[lo:lo + _TABLE_BLOCK]
        adj = np.pad(parents[part], ((0, 0), (0, 1), (0, 1)))
        adj[:, m, :m] = adj[:, :m, m] = bits[lo:lo + _TABLE_BLOCK]
        in_set = _deletion_sets(adj, comps[part])
        kids.append((adj[in_set[:, m]], in_set[in_set[:, m]]))
    kids, sets = map(np.concatenate, zip(*kids))
    # freed before the labelling, whose refinement of a block sets the peak
    del owner, masks, bits
    tags, first, branch, perm = labelled = _label_stack(kids, _TABLE_BLOCK)
    # a vertex's least label is the least position of its twin class over
    # the child's orders: accept iff the new vertex and M(G) get the same one
    starts = np.flatnonzero(np.diff(branch, prepend=-1))
    new, least = (np.minimum.reduceat(hits[branch[:, None], perm].argmax(axis=1), starts)
                  for hits in (tags == tags[:, m:], sets))
    kept = np.flatnonzero(new == least)
    codes = np.concatenate([_packed_codes(kids[part], first[part]) for part in
                            np.split(kept, range(_TABLE_BLOCK, len(kept), _TABLE_BLOCK))])
    return codes, _canonical_labels(kept, *labelled) if n < _MAX_N else None


@lru_cache(maxsize=None)
def _class_level(n: int):
    """(codes, labels): the classes on 1 <= n <= _MAX_N vertices in code
    order, as a read-only uint8 array of packed codes (core._packed_codes),
    and their labels (core._Labels) below _MAX_N, which the level above reads
    for its parents."""
    # Canonical augmentation (McKay 1998, see the module docstring). A
    # connected G on n >= 2 vertices has a non-cut vertex, so M(G) is nonempty
    # and the canonical deletion vertex d (the vertex of M(G) with the
    # smallest canonical label) is fixed by G up to automorphism. G - d is
    # connected, so G is reached from the class of G - d through the orbit of
    # the neighbourhood of d, and passes the test there. Another accepted path
    # to G would add a vertex of the orbit of d to the same parent class with
    # a mask of the same orbit, which orbit pruning has already merged; every
    # other path adds a vertex outside that orbit and fails the test. So no
    # class appears twice and no set of codes is needed.
    if n == 1:
        codes = np.zeros((1, 0), dtype=np.uint8)
        labels = _canonical_labels([0], *_label_stack(np.zeros((1, 1, 1), dtype=bool), 1))
    else:
        codes, labels = _canonical_children(n)
        # rows of one length compare bytewise as their big-endian values do
        order = np.argsort(codes.view(f"V{codes.shape[1]}")[:, 0])
        codes, labels = codes[order], None if labels is None else labels.take(order)
    codes.setflags(write=False)
    return codes, labels


def _connected_class_bitmaps(n: int) -> np.ndarray:
    """The canonical bitmaps of the connected classes on n vertices, ascending."""
    return _class_level(n)[0]


def enumerate_underlying(n: int):
    """Yield one all-positive representative per isomorphism class of connected
    graphs on n vertices, in canonical-bitmap order."""
    _check_n(n)
    if not (_MIN_N <= n <= _MAX_N):
        raise ValueError(f"enumeration supports {_MIN_N} <= n <= {_MAX_N}, got {n}")
    for adj in _codes_to_adj(_connected_class_bitmaps(n), n):
        yield SignedGraph._trusted(adj.astype(np.int8))


def enumerate_signatures(g: SignedGraph):
    """Yield one signed graph per switching class of g's underlying graph.

    Spanning-tree edges are pinned +1; the 2^(m-n+1) sign patterns on the
    non-tree edges enumerate the switching classes exactly once each.
    """
    table = _graph_table(np.abs(g.adj).astype(bool))
    row = np.zeros(1, dtype=np.intp)
    for pattern in range(1 << int(table.widths[0])):
        yield SignedGraph._trusted(_signature_stack(
            table, row, np.array([pattern], dtype=np.uint64), np.int8)[0])


# ---------------------------------------------------------------------------
# Class rows, their triangle systems and the summary of every class of n
# ---------------------------------------------------------------------------

class _ClassTable(NamedTuple):
    """Connected graphs on n vertices, one row each: the classes a scan
    reaches, or a single graph."""

    adj: np.ndarray          # (rows, n, n) bool adjacency
    widths: np.ndarray       # (rows,) k, the number of non-tree edges
    nontree: np.ndarray      # (rows, max k) upper-triangle cell of non-tree bit b


def _class_rows(codes, n: int) -> _ClassTable:
    """The table rows of class codes on n vertices, at the width of K_n, which
    has the most non-tree edges, so the rows of any classes of n share shapes.

    Each row's spanning tree is _bfs_tree's, the one canonical_switch pins.
    """
    return _ClassTable(*_table_block(_codes_to_adj(codes, n), (n - 1) * (n - 2) // 2))


def _graph_table(adj: np.ndarray) -> _ClassTable:
    """The one-row table of the connected graph adj (bool)."""
    return _ClassTable(*_table_block(adj[None], int(adj.sum()) // 2 - len(adj) + 1))


def _table_block(adj: np.ndarray, width: int):
    """The _ClassTable fields for an adjacency stack, with
    `width` non-tree columns (at least the largest k of the stack)."""
    # a pattern, like the unit bits that ride along its elimination, is one
    # uint64 word
    if width > 64:
        raise ValueError(f"{width} non-tree edges; at most 64 are supported")
    n = adj.shape[1]
    iu, ju = _triu_cells(n)
    ncells = len(iu)
    bits = adj[:, iu, ju]
    cell = np.zeros((n, n), dtype=np.intp)
    cell[iu, ju] = cell[ju, iu] = np.arange(ncells)
    trees = [_bfs_tree(a) for a in adj]
    if any(len(t) < n - 1 for t in trees):
        raise ValueError("graph must be connected")
    v, u = np.array(trees, dtype=np.intp).reshape(len(adj), n - 1, 2).transpose(2, 0, 1)
    tree = np.zeros_like(bits)
    tree[np.arange(len(adj))[:, None], cell[v, u]] = True
    off = bits & ~tree
    # non-tree bit b is the b-th non-tree cell in row-major order
    pos = np.cumsum(off, axis=1) - 1
    rows, cols = np.nonzero(off)
    nontree = np.zeros((len(adj), width), dtype=np.min_scalar_type(ncells))
    nontree[rows, pos[rows, cols]] = cols
    return adj, off.sum(axis=1), nontree


@lru_cache(maxsize=None)
def _cell_triangles(n: int) -> np.ndarray:
    """The triangles of K_n through each upper-triangle cell, as (words,
    C(n, 2)) uint64: bit t % 64 of word t // 64 for the t-th triangle in
    lexicographic order (read-only)."""
    iu, ju = _triu_cells(n)
    cell = np.zeros((n, n), dtype=np.intp)
    cell[iu, ju] = np.arange(len(iu))
    i, j, k = np.array(list(itertools.combinations(range(n), 3)),
                       dtype=np.intp).reshape(-1, 3).T
    incidence = np.zeros((len(iu), -(-len(i) // 64) * 64), dtype=bool)
    incidence[cell[[i, i, j], [j, k, k]], np.arange(len(i))] = True
    through = np.packbits(incidence, axis=1, bitorder="little").view("<u8").T.astype(np.uint64)
    through.setflags(write=False)
    return through


def _triangle_system(bits: np.ndarray, n: int, forbidden: str):
    """The triangle-avoiding signatures of graphs on n vertices, given by
    their (graphs, C(n, 2)) bool cells, as GF(2) systems over the edge signs
    in the form of _gf2_columns: each cell's column, the present triangles
    through it, (words, C(n, 2), graphs) uint64, and the rhs (words, graphs).
    A triangle's sign is the parity of its negative edges: forbidding
    C3_MINUS asks for even parity, C3_PLUS for odd; NONE has no equations."""
    through = _cell_triangles(n)[:0 if forbidden == "NONE" else None]
    # a triangle is present unless one of its cells is not an edge
    present = (np.bitwise_or.reduce(through, axis=1)[:, None]
               & ~np.bitwise_or.reduce(np.where(bits, 0, through[:, None, :]), axis=2))
    rhs = present if forbidden == "C3_PLUS" else np.zeros_like(present)
    # C order keeps each column, and the later columns, contiguous
    return np.bitwise_and(present[:, None, :], through[:, :, None], order="C"), rhs


def _gf2_columns(cols: np.ndarray, rhs: np.ndarray, words: int) -> None:
    """Eliminate a stack of affine GF(2) systems by columns, in place.

    Bit e of the first `words` words of cols[:, j, s] (rhs[:, s]) says that
    equation e of system s holds variable j (is odd); later words ride along
    and choose no pivot. Column j in turn clears its lowest equation bit from
    every later column and from rhs. No pivot bit is left in another column
    or in rhs, so the rank is the number of columns left nonzero, a system
    is consistent iff its rhs is left 0, and a column left 0 rides along
    with a combination of variables that solves 0.
    """
    for j in range(cols.shape[1]):
        col, later = cols[:, j], cols[:, j + 1:]
        pivot = col[:words] & -col[:words]
        if words > 1:  # keep the lowest nonzero word's lowest bit only
            pivot[1:] *= ~np.logical_or.accumulate(pivot[:-1] != 0)
        later ^= col[:, None] * (later[:words] & pivot[:, None]).any(axis=0)
        rhs ^= col * (rhs[:words] & pivot).any(axis=0)


class _Span(NamedTuple):
    """Solution sets of a stack of affine GF(2) systems, one row per system."""

    particular: np.ndarray  # (systems,) uint64, a solution if consistent; 0 iff 0 is one
    basis: np.ndarray       # (systems, width) uint64, top bits ascending, 0-padded
    free: np.ndarray        # (systems,) the dimension of the solution space
    consistent: np.ndarray  # (systems,) bool


def _gf2_solve(cols: np.ndarray, rhs: np.ndarray, widths: np.ndarray) -> _Span:
    """The solution sets of systems in column form (_gf2_columns), system s
    over its first widths[s] variables, later columns 0. One ride-along word
    holds each variable's unit bit, so the same XORs leave a solution in rhs
    and a basis vector in each column left 0, with that column as top bit."""
    words, width, systems = cols.shape
    unit = np.uint64(1) << np.arange(width, dtype=np.uint64)
    cols = np.concatenate((cols, np.broadcast_to(unit[:, None], (1, width, systems))))
    rhs = np.concatenate((rhs, np.zeros((1, systems), dtype=np.uint64)))
    _gf2_columns(cols, rhs, words)
    is_free = (np.arange(width) < widths[:, None]) & ~cols[:words].any(axis=0).T
    basis = np.zeros((systems, width), dtype=np.uint64)
    s, f = np.nonzero(is_free)
    basis[s, (np.cumsum(is_free, axis=1) - 1)[s, f]] = cols[words, f, s]
    return _Span(rhs[words], basis, is_free.sum(axis=1), ~rhs[:words].any(axis=0))


def _table_span(table: _ClassTable, forbidden: str) -> _Span:
    """The triangle-avoiding signatures of every row of a table, as GF(2)
    spans in tree coordinates: with the tree pinned +1, variable b is the
    sign bit of the row's non-tree cell b."""
    n = table.adj.shape[1]
    iu, ju = _triu_cells(n)
    cells, rhs = _triangle_system(table.adj[:, iu, ju], n, forbidden)
    cols = cells[:, table.nontree.T, np.arange(len(table.adj))]
    cols *= np.arange(table.nontree.shape[1])[:, None] < table.widths
    return _gf2_solve(cols, rhs, table.widths)


class _Summary(NamedTuple):
    """What the counters and the scan read of every class of n under one
    forbidden triangle, in code order: four bytes per class."""

    edges: np.ndarray       # (classes,) uint8 edge count
    free: np.ndarray        # (classes,) uint8 dimension of the solution space
    consistent: np.ndarray  # (classes,) bool
    zero: np.ndarray        # (classes,) bool, pattern 0 (the balanced class) solves it


def _summary_block(codes, n: int, forbidden: str) -> tuple[np.ndarray, ...]:
    """The _Summary fields of class codes on n vertices, from their cells:
    2^(m - n + 1 - rank) switching classes solve a consistent system, and
    pattern 0 solves it iff its rhs is 0."""
    bits = _code_cells(codes, n)
    cols, rhs = _triangle_system(bits, n, forbidden)
    zero = ~rhs.any(axis=0)
    _gf2_columns(cols, rhs, len(rhs))
    edges = bits.sum(axis=1)
    free = edges - (n - 1) - cols.any(axis=0).sum(axis=0)
    return edges.astype(np.uint8), free.astype(np.uint8), ~rhs.any(axis=0), zero


@lru_cache(maxsize=None)
def _class_summary(n: int, forbidden: str) -> _Summary:
    """The summary of every class of n, from the cached class codes, built
    _TABLE_BLOCK classes at a time (_summary_block)."""
    codes = _connected_class_bitmaps(n)
    summary = _Summary(*map(np.concatenate, zip(*(
        _summary_block(codes[lo:lo + _TABLE_BLOCK], n, forbidden)
        for lo in range(0, len(codes), _TABLE_BLOCK)))))
    # cached results are shared
    for field in summary:
        field.setflags(write=False)
    return summary


def _feasible_counts(summary: _Summary, idx, require_unbalanced: bool) -> np.ndarray:
    """Number of feasible signatures of each class idx, by arithmetic."""
    counts = np.where(summary.consistent[idx], np.int64(1) << summary.free[idx], 0)
    if require_unbalanced:
        # with the tree pinned +1, pattern 0 is the balanced class
        counts -= summary.zero[idx]
    return counts


def _span_patterns(span: _Span, idx: np.ndarray, require_unbalanced: bool):
    """Every solution of the systems idx: (system, pattern) arrays, patterns
    ascending within each system, pattern 0 dropped under require_unbalanced."""
    idx = idx[span.consistent[idx]]
    # the largest supported call is K_8 with no constraint: 21 free bits
    if (span.free[idx] > 21).any():
        raise ValueError("solution space too large to enumerate")
    counts = np.int64(1) << span.free[idx]
    system = np.repeat(idx, counts)
    offset = np.arange(len(system)) - np.repeat(np.cumsum(counts) - counts, counts)
    patterns = span.particular[system]
    for t in range(int(span.free[idx].max(initial=0))):
        on = ((offset >> t) & 1).astype(bool)
        patterns[on] ^= span.basis[system[on], t]
    order = np.lexsort((patterns, system))
    system, patterns = system[order], patterns[order]
    if require_unbalanced:
        keep = patterns != 0
        system, patterns = system[keep], patterns[keep]
    return system, patterns


def _signature_stack(table: _ClassTable, system: np.ndarray, patterns: np.ndarray,
                     dtype) -> np.ndarray:
    """Sign matrices, as dtype, of the signatures (table row system[i], uint64
    non-tree pattern patterns[i]): the row's edges +1, pattern bit b negating
    non-tree edge b."""
    iu, ju = _triu_cells(table.adj.shape[1])
    stack = table.adj[system].astype(dtype)
    slots = np.arange(table.nontree.shape[1], dtype=np.uint64)
    mat, slot = np.nonzero((patterns[:, None] >> slots) & np.uint64(1))
    cells = table.nontree[system[mat], slot]
    stack[mat, iu[cells], ju[cells]] = -1
    stack[mat, ju[cells], iu[cells]] = -1
    return stack


def _rho_values(table: _ClassTable, system: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """Spectral radius of each signature (class system[i], non-tree pattern
    patterns[i]), from one eigvalsh call over the whole stack."""
    try:
        w = np.linalg.eigvalsh(_signature_stack(table, system, patterns, np.float64))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SpectralError(f"batch eigensolver failed: {exc}") from exc
    return np.maximum(w[:, -1], -w[:, 0])


# ---------------------------------------------------------------------------
# The scan
# ---------------------------------------------------------------------------

def _least_edges_in_reach(best: float) -> int:
    """The least edge count m whose Stanley bound (sqrt(1 + 8m) - 1) / 2 on
    the spectral radius is not below b = best - 2 x SPECTRAL_SLACK, decided in
    integers: with b = p / q exactly (q > 0), every m reaches b if
    2p + q <= 0, and otherwise m does iff (1 + 8m) q^2 >= (2p + q)^2."""
    best_p, best_q = best.as_integer_ratio()
    slack_p, slack_q = SPECTRAL_SLACK.as_integer_ratio()
    p, q = best_p * slack_q - 2 * slack_p * best_q, best_q * slack_q
    if 2 * p + q <= 0:
        return 0
    return max(-((q * q - (2 * p + q) ** 2) // (8 * q * q)), 0)


def _scan_classes(config: SearchConfig, codes, summary: _Summary):
    """Scan the class codes on config.n vertices whose triangle systems under
    config.forbidden `summary` holds (for a search, every class of n): the
    best value, the table the scan rebuilt and the index in `codes` of each of
    its rows, the signatures (table row, pattern) within reach of the best,
    classes ascending and patterns ascending within a class, and the report's
    counters, which come from the summary alone.

    The classes with feasible signatures are taken densest first, a stable
    sort keeping them in code order within an edge count, one edge count m at
    a time, and one _span_patterns call expands the signatures of a count.
    Rows are rebuilt (_class_rows) and fully solved only for the counts the
    scan reaches: the densest count alone, which is all MAX_EDGES takes, then
    for MAX_RHO in one more call every count within reach of its best.
    MAX_RHO eigensolves each count's signatures _EIG_BATCH at a time. Under
    NONE the first count is K_n alone, whose 2^21 signatures at n = 8 are the
    largest expansion. Every signature S of a graph with m edges
    has rho(A_S) <= rho(|A_S|) <= (sqrt(1 + 8m) - 1) / 2: |lambda||x| <=
    |A_S||x| entrywise for every eigenpair (Perron-Frobenius), which bounds
    both lambda_1 and -lambda_n, and the second step is Stanley's bound
    (Linear Algebra Appl. 87, 1987). The bound grows with m, so the scan stops
    before the first count whose bound is below best - 2 x SPECTRAL_SLACK
    (_least_edges_in_reach); the extra slack covers eigvalsh rounding. Nothing
    it skips is within SPECTRAL_SLACK of the best value, so the result is that
    of a full scan.
    """
    n, unbal = config.n, config.require_unbalanced
    counts = _feasible_counts(summary, slice(None), unbal)
    counters = {"underlying_scanned": len(codes),
                "signatures_scanned": int((np.int64(1) << (summary.edges - (n - 1))).sum()),
                "feasible": int(counts.sum())}
    idx = np.flatnonzero(counts)
    if not len(idx):
        raise ValueError("no feasible signed graph under this configuration")
    # densest first: ~ reverses the order of the uint8 edge counts, and the
    # stable sort keeps classes in code order within a count
    idx = idx[np.argsort(~summary.edges[idx], kind="stable")]
    edges = summary.edges[idx].astype(np.intp)
    best, tables, kept, built, least = -math.inf, [], [], 0, 0
    # the first class of each edge count, then the end
    cuts = np.flatnonzero(np.diff(edges, prepend=-1, append=-1)).tolist()
    for lo, hi in zip(cuts, cuts[1:]):
        if edges[lo] < least:
            break
        if lo == built:
            # the densest count alone, then in one go every count within
            # reach of its best, which only grows: the scan reaches no other
            first = lo
            built = int(np.searchsorted(-edges, -least, "right")) if tables else hi
            tables.append(_class_rows(codes[idx[first:built]], n))
            span = _table_span(tables[-1], config.forbidden)
        system, patterns = _span_patterns(span, np.arange(lo - first, hi - first), unbal)
        if config.objective == "MAX_EDGES":
            return int(edges[lo]), tables[0], idx[lo:hi], system, patterns, counters
        # each eigvalsh call keeps what is within reach of the best so far
        for a in range(0, len(system), _EIG_BATCH):
            part = slice(a, a + _EIG_BATCH)
            vals = _rho_values(tables[-1], system[part], patterns[part])
            best = max(best, float(vals.max()))
            sel = vals >= best - SPECTRAL_SLACK
            kept.append((system[part][sel] + first, patterns[part][sel], vals[sel]))
        least = _least_edges_in_reach(best)
    system, patterns, vals = map(np.concatenate, zip(*kept))
    sel = vals >= best - SPECTRAL_SLACK
    system, patterns = system[sel], patterns[sel]
    table = _ClassTable(*map(np.concatenate, zip(*tables)))
    classes = idx[:len(table.adj)]
    # _scan keeps the first survivor of each key
    order = np.lexsort((patterns, classes[system]))
    return best, table, classes, system[order], patterns[order], counters


@lru_cache(maxsize=None)
def _family_keys(n: int) -> MappingProxyType:
    """The name of each named graph on n vertices by its switching key
    (canonical_signed_code): (K_n, +), (K_n, -) and each split gst(s, n - 2 - s)."""
    named = {"complete-pos": build_complete(n, 1), "complete-neg": build_complete(n, -1)}
    named.update((f"gst({s},{n - 2 - s})", build_gst(s, n - 2 - s))
                 for s in range(1, (n - 2) // 2 + 1))
    return MappingProxyType({canonical_signed_code(g): name for name, g in named.items()})


def _recheck_witness(w: SignedGraph, config: SearchConfig, value):
    if not is_connected(w):
        raise RuntimeError("internal error: disconnected witness emitted")
    if config.require_unbalanced and is_balanced(w):
        raise RuntimeError("internal error: balanced witness emitted")
    if config.forbidden == "C3_MINUS" and find_signed_triangles(w, -1):
        raise RuntimeError("internal error: witness contains a negative triangle")
    if config.forbidden == "C3_PLUS" and find_signed_triangles(w, 1):
        raise RuntimeError("internal error: witness contains a positive triangle")
    if config.objective == "MAX_EDGES":
        ok = w.edge_count == value
        observed = w.edge_count
    else:
        observed = eigenvalues(w).rho
        ok = abs(observed - value) <= SPECTRAL_SLACK
    if not ok:
        raise RuntimeError(
            f"internal error: witness re-evaluates to {observed}, expected {value}"
        )


def _scan(config: SearchConfig, progress):
    """The optimum of a MAX_EDGES or MAX_RHO search, its witnesses (one per
    switching-isomorphism class, in key order), their keys
    (canonical_signed_code) and the report's counters. More than
    core._SWITCH_MAX_WORK signatures at the optimum are refused before any
    is built (core._check_work), as the witness keys are one stacked call."""
    if progress:
        # one call per enumerated level, as each level's classes are ready
        for k in range(1, config.n + 1):
            progress({"vertices": k, "classes": len(_connected_class_bitmaps(k))})
    best, table, _, system, patterns, counters = _scan_classes(
        config, _connected_class_bitmaps(config.n), _class_summary(config.n, config.forbidden))
    _check_work(len(system), "witness keys", "signatures")
    stack = _signature_stack(table, system, patterns, np.int8)
    seen = {}
    for key, a in zip(_signed_keys(stack, switched=True), stack):
        seen.setdefault(key, a)
    keys = sorted(seen)
    witnesses = [SignedGraph._trusted(seen[k]) for k in keys]
    optimum = int(best) if config.objective == "MAX_EDGES" else best
    for w in witnesses:
        _recheck_witness(w, config, optimum)
    return optimum, witnesses, keys, counters


def _quotient_maximizers(quotients, dense) -> tuple[int, np.ndarray]:
    """The largest negative edge count over the switchings of some graphs, each
    given by the sizes and class sign matrix of its signed-twin quotient, and
    an int8 stack of the distinct switched matrices attaining it, sorted by
    bytes. Each graph is counted once (core._switching_peak); only the graphs
    at the running peak keep their peak count vectors, which become matrices
    at the end from dense(i), the sign matrix and classes of graph i. Rejects
    more than core._SWITCH_MAX_WORK switchings at the peak (core._check_work)
    before building any."""
    best, peak = -1, []
    for i, (sizes, signs) in enumerate(quotients):
        top, vectors = _switching_peak(sizes, signs)
        if top > best:
            best, peak = top, []
        if top == best:
            peak.append((i, vectors))
    switchings = sum(math.prod(map(math.comb, quotients[i][0].tolist(), c))
                     for i, vectors in peak for c in vectors.tolist())
    _check_work(switchings, "switching maximum", "switchings at the peak")
    return best, _distinct_matrices(np.concatenate(
        [_switched_matrices(*dense(i), vectors) for i, vectors in peak]))


def _neg_edge_maximizers(adj: np.ndarray) -> tuple[int, np.ndarray]:
    """_quotient_maximizers of a (G, n, n) int8 stack, on each graph's
    core._twin_quotient."""
    quotients = [_twin_quotient(a) for a in adj]
    return _quotient_maximizers([q[1:] for q in quotients], lambda i: (adj[i], quotients[i][0]))


def switching_neg_edge_maximum(g: SignedGraph):
    """Maximum negative edge count over all 2^n switchings of g, and the
    distinct switched graphs attaining it, sorted by sign matrix bytes: the
    rows of _neg_edge_maximizers(g.adj[None]) as SignedGraphs. Switchings are
    counted by how many vertices they take from each class of signed twins,
    so the cap is on work, not on n: g is rejected when these count vectors,
    prod (k_i + 1) over classes of k_i twins, number more than 2^20 (a
    twin-free graph above 20 vertices), or when more than 2^20 switchings
    attain the maximum."""
    best, maximizers = _neg_edge_maximizers(g.adj[None])
    return best, [SignedGraph._trusted(a) for a in maximizers]


def search(config: SearchConfig, *, progress=None) -> SearchReport:
    """Run an exhaustive search; returns optimum, deduplicated witnesses, and counters.

    Results are deterministic. `progress`, if given, is called with
    {"vertices": k, "classes": count} once per k = 1..n, in ascending order,
    as the connected classes on k vertices become available.
    """
    config.validate()
    t0 = time.perf_counter()
    if config.objective == "MAX_NEG_EDGES_AT_MAX_EDGES":
        # two-phase: find the edge maximizers, then maximize negative edges
        # over all switchings of every maximizer class
        _, edge_witnesses, _, counts = _scan(replace(config, objective="MAX_EDGES"), progress)
        optimum, maximizers = _neg_edge_maximizers(np.stack([w.adj for w in edge_witnesses]))
        witnesses = [SignedGraph._trusted(a) for a in maximizers]
        # signed_isomorphic against the one target: the target and the
        # maximizers keyed in one call
        target, *keys = _signed_keys(np.concatenate(
            [build_gst_maxneg(config.n).adj[None], maximizers]), switched=False)
        matched = ["gst-maxneg" if key == target else None for key in keys]
        counts["signatures_scanned"] += len(edge_witnesses) << config.n
    else:
        optimum, witnesses, keys, counts = _scan(config, progress)
        matched = list(map(_family_keys(config.n).get, keys))
    return SearchReport(config, optimum, witnesses, matched, counts,
                        wall_time=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Theorem verification
# ---------------------------------------------------------------------------

def _complete_signature_classes(n: int, forbidden: str) -> np.ndarray:
    """An int8 stack of one sign matrix per switching class of signatures of
    K_n avoiding the forbidden triangle."""
    table = _graph_table(~np.eye(n, dtype=bool))
    row = np.zeros(1, dtype=np.intp)
    system, patterns = _span_patterns(_table_span(table, forbidden), row, False)
    return _signature_stack(table, system, patterns, np.int8)


def _verify_t1_1(n: int, progress) -> BoundReport:
    outcomes = {}
    for forbidden, target in (
        ("C3_MINUS", build_complete(n, 1)),
        ("C3_PLUS", build_complete(n, -1)),
    ):
        classes = _complete_signature_classes(n, forbidden)
        outcomes[forbidden] = (len(classes) == 1
                               and switching_equivalent(SignedGraph._trusted(classes[0]), target))
    edges = n * (n - 1) // 2
    return make_bound_report(
        "t1_1", n, edges, edges, build_complete(n, 1), passed=all(outcomes.values()),
        notes="unique homogeneous switching class per forbidden triangle sign", details=outcomes)


def _verify_t1_2_edges(n: int, progress) -> BoundReport:
    found = search(SearchConfig(n=n, objective="MAX_EDGES"), progress=progress)
    return make_bound_report(
        "t1_2_edges", n, edge_bound(n), found.optimum, found.witnesses[0],
        passed=found.optimum == edge_bound(n) and all(
            m is not None and m.startswith("gst(") for m in found.matched_family),
        notes=(f"{len(found.witnesses)} maximizer classes: "
               + ", ".join(map(str, found.matched_family))),
        details={"counts": found.counts, "matched_family": found.matched_family})


def _verify_t1_2_neg(n: int, progress) -> BoundReport:
    if n <= _MAX_N:
        found = search(SearchConfig(n=n, objective="MAX_NEG_EDGES_AT_MAX_EDGES"),
                       progress=progress)
        observed, witness = found.optimum, found.witnesses[0]
        hits = found.matched_family.count("gst-maxneg")
        # the maximum must be attained by the canonical layout; from n = 6 on
        # it is also the unique maximizer (n = 5 admits one extra tie class)
        structure_ok = hits > 0 and (n <= 5 or hits == len(found.witnesses))
        notes = (f"switchings of every enumerated edge-maximizer class; "
                 f"{len(found.witnesses)} maximizers, {hits} in canonical layout")
        details = {"counts": found.counts, "matched_family": found.matched_family}
    else:
        # beyond enumeration range: the switchings of every split of the
        # extremal construction, counted on its quotient. A second split at
        # the peak would add the switchings of another underlying graph. The
        # most even split, with the largest table, comes first, so the
        # smaller tables reuse the memory it freed: growing tables would each
        # fault in fresh pages (n = 1000 takes 0.5 s cold, not 0.8 s)
        splits = [(s, n - 2 - s) for s in range((n - 2) // 2, 0, -1)]
        observed, maximizers = _quotient_maximizers(
            [(np.array([1, 1, s, t]), _GST_SIGNS) for s, t in splits],
            lambda i: (build_gst(*splits[i]).adj, gst_partition(*splits[i])))
        structure_ok = np.array_equal(maximizers, build_gst_maxneg(n).adj[None])
        witness = SignedGraph._trusted(maximizers[0])
        notes = "switchings of the construction family (n beyond enumeration)"
        details = {"splits": len(splits), "switchings": len(splits) << n,
                   "maximizers": len(maximizers)}
    return make_bound_report("t1_2_neg", n, neg_edge_bound(n), observed, witness,
                             passed=observed == neg_edge_bound(n) and structure_ok,
                             notes=notes, details=details)


def _verify_t1_3(n: int, progress) -> BoundReport:
    found = search(SearchConfig(n=n, objective="MAX_RHO"), progress=progress)
    # one family entry per witness, so a single match means a single witness
    return make_bound_report(
        "t1_3", n, rho_bound(n), found.optimum, found.witnesses[0], spectral=True,
        passed=(abs(found.optimum - rho_bound(n)) <= FORMULA_TOL
                and found.matched_family == [f"gst(1,{n - 3})"]),
        notes=f"maximizers: {', '.join(map(str, found.matched_family))}",
        details={"counts": found.counts})


def _verify_l2_2(n: int, progress) -> BoundReport:
    reps = _complete_signature_classes(n, "C3_MINUS")
    best, winners = _neg_edge_maximizers(reps)
    # every winner is a signed K_n; balanced iff the spins that make its BFS
    # tree positive leave no negative edge. A balanced K_n switched at S has
    # |S|(n - |S|) negative edges, so best == bound below makes |S| the halving
    spins = _tree_spins(winners, _bfs_tree(winners[0]))
    structure_ok = not (spins[:, :, None] * winners * spins[:, None, :] < 0).any()
    bound = (n // 2) * ((n + 1) // 2)
    return make_bound_report(
        "l2_2", n, bound, best, SignedGraph._trusted(winners[0]),
        passed=best == bound and structure_ok,
        notes=f"{len(reps)} negative-triangle-free switching classes, {len(winners)} maximizers",
        details={"classes": len(reps), "maximizers": len(winners)})


def _verify_l3_6_order(n: int, progress) -> BoundReport:
    lams = [
        eigenvalues(build_gst(s, n - 2 - s)).eigenvalues[0]
        for s in range(1, (n - 2) // 2 + 1)
    ]
    return make_bound_report(
        "l3_6_order", n, rho_bound(n), lams[0], build_gst(1, n - 3), spectral=True,
        passed=(all(a - b > 1e-6 for a, b in zip(lams, lams[1:]))
                and abs(lams[0] - rho_bound(n)) <= FORMULA_TOL),
        notes="descending top eigenvalues: " + ", ".join(f"{v:.12g}" for v in lams),
        details={"top_eigenvalues": [float(v) for v in lams]})


# theorem: (least n, greatest n, verifier(n, progress)), in the order of THEOREMS
_VERIFIERS = {
    "T1_1": (3, _MAX_N, _verify_t1_1),
    "T1_2_EDGES": (_MIN_N, _MAX_N, _verify_t1_2_edges),
    "T1_2_NEG": (4, 1000, _verify_t1_2_neg),
    "T1_3": (_MIN_N, _MAX_N, _verify_t1_3),
    "L2_2": (3, 12, _verify_l2_2),
    "L3_6_ORDER": (5, 40, _verify_l3_6_order),
}
THEOREMS = tuple(_VERIFIERS)


def verify_theorem(name: str, n: int, *, progress=None) -> BoundReport:
    """Verify one of the named statements at order n; `passed` is the verdict.
    `progress` gets search's per-level dicts when T1_2_EDGES, T1_3 or
    T1_2_NEG (n <= 8) enumerate."""
    key = name.upper().replace("-", "_")
    if key not in THEOREMS:
        raise ValueError(f"unknown theorem {name!r}; known: {', '.join(THEOREMS)}")
    _check_n(n)
    lo, hi, verifier = _VERIFIERS[key]
    if not lo <= n <= hi:
        raise ValueError(f"{key} verification supports {lo} <= n <= {hi}")
    return verifier(n, progress)
