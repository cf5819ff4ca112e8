"""Independent brute-force oracles used by the tests.

Everything here deliberately avoids the library's own algorithms: sign
recomputation by definition, cycle enumeration by DFS, isomorphism by scanning
every permutation, balance by trying every spin assignment, the trace and
Frobenius identities of a spectrum. The exceptions are kept as references
that must agree exactly with the faster code that replaced them:

- the per-order and per-mask loops that the batched canonical_signed_code
  and switching_neg_edge_maximum replaced, and the one-matmul count over all
  masks that the count vectors of signed-twin classes (core._switching_peak)
  replaced;
- the row loop that the stacked GF(2) elimination replaced;
- the per-graph colour refinement and canonical deletion test that the
  level-wide numpy passes replaced;
- the per-parent orbit masks and the augmentation loop that tests every
  orbit mask, which the block kernel and the degree bound on masks replaced;
- the np.isin entry check that SignedGraph replaced for bool and integer
  input;
- the MAX_RHO scan that eigensolves every feasible signature, which the scan
  stopped by the edge-count bound replaced;
- the generator and the six suite draws that call the numpy Generator once
  per draw, which the replay from one raw-word stream replaced;
- the one-graph interlacing check, clique spectral bound and balanced
  spanning subgraph, which the stacked kernels replaced, and the recursion
  over Python lists that the bitset balanced clique search replaced;
- the graph text written one edge at a time, which format_graph's row joins
  replaced.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from signed_extremal.bounds import (
    _CLIQUE_MAX_ORDER,
    SPECTRAL_SLACK,
    BoundReport,
    make_bound_report,
)
from signed_extremal.core import (
    SignedGraph,
    _check_vertex_set,
    _triu_cells,
    canonical_switch,
    is_connected,
    negate,
    permute,
    switch,
)
from signed_extremal.search import (
    _TABLE_BLOCK,
    _codes_to_adj,
    _connected_class_bitmaps,
    _cut_components,
    _deletion_sets,
    _rho_values,
    _span_patterns,
)
from signed_extremal.spectral import (
    IDENTITY_TOL,
    Spectrum,
    SpectralError,
    _symmetric_eigh,
    eigenvalues,
)


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


def check_spectrum_identities(g: SignedGraph, sp: Spectrum) -> None:
    """Assert the trace and Frobenius identities of a computed spectrum."""
    e = g.edge_count
    if abs(math.fsum(sp.eigenvalues)) > sp.tol:
        raise SpectralError("trace identity violated")
    if abs(math.fsum(v * v for v in sp.eigenvalues) - 2 * e) > g.n * sp.tol:
        raise SpectralError("Frobenius identity violated")


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


def _relabelings(g: SignedGraph) -> np.ndarray:
    """The sign matrices of g under all n! relabelings, one per permutation."""
    perms = permutation_rows(g.n)
    return g.adj[perms[:, :, None], perms[:, None, :]]


def brute_signed_isomorphic(g1: SignedGraph, g2: SignedGraph) -> bool:
    """Some relabeling maps g1 onto g2 sign for sign, by scanning all n! of them."""
    if g1.n != g2.n:
        return False
    return bool((_relabelings(g1) == g2.adj).all(axis=(1, 2)).any())


def brute_switching_isomorphic(g1: SignedGraph, g2: SignedGraph) -> bool:
    """Some relabeling followed by some switching maps g1 onto g2, by scanning
    all n! relabelings and all 2^n switchings."""
    if g1.n != g2.n:
        return False
    spins = np.array(list(itertools.product((1, -1), repeat=g1.n))).reshape(-1, g1.n)
    signs = spins[:, :, None] * spins[:, None, :]
    moved = _relabelings(g1)[:, None] * signs[None]
    return bool((moved == g2.adj).all(axis=(2, 3)).any())


def brute_switching_key(adj: np.ndarray) -> list[bytes]:
    """For each sign matrix of a (G, n, n) stack, the least upper-triangle
    sign row, -1/0/+1 as the bytes 2/0/1, over all n! relabelings
    (permutation_rows) and all 2^n switchings, of which the 2^(n-1) that keep
    vertex 0 give every switched matrix: a complete invariant of its
    switching-isomorphism class. Rows are compared as base-3 numbers, which
    order as the rows do."""
    n = adj.shape[-1]
    perms = permutation_rows(n)
    iu, ju = np.triu_indices(n, 1)
    spins = np.array([(1, *s) for s in itertools.product((1, -1), repeat=n - 1)], dtype=np.int8)
    flips = spins[:, iu] * spins[:, ju]
    weights = 3 ** np.arange(len(iu) - 1, -1, -1, dtype=np.int64)
    keys = []
    for a in adj:
        rows = (a[perms[:, iu], perms[:, ju]][:, None, :] * flips).reshape(-1, len(iu))
        rows = np.where(rows == -1, 2, rows).astype(np.uint8)
        keys.append(rows[np.argmin(rows @ weights)].tobytes())
    return keys


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


def labeled_graph_stack(n: int) -> np.ndarray:
    """Every labeled graph on n vertices, as a (2^C(n,2), n, n) bool stack;
    bit b of the row index sets the b-th upper-triangle cell, row by row."""
    cells = list(itertools.combinations(range(n), 2))
    index = np.arange(1 << len(cells))
    adj = np.zeros((len(index), n, n), dtype=bool)
    for b, (i, j) in enumerate(cells):
        adj[:, i, j] = adj[:, j, i] = (index >> b) & 1
    return adj


def permutation_rows(n: int) -> np.ndarray:
    """The n! permutations of range(n), one per row, in itertools order."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)


def brute_automorphism_table(adj: np.ndarray) -> np.ndarray:
    """(G, n!) bool: whether permutation_rows(n)[r] is a p with
    adj[g][p][:, p] == adj[g], for each graph g of a (G, n, n) bool stack, by
    scanning all n! of them. A symmetric matrix with a zero diagonal is
    decided by its upper triangle, so only those cells are compared."""
    n = adj.shape[1]
    perms = permutation_rows(n)
    iu, ju = np.triu_indices(n, 1)
    # 256 graphs at a time keep the moved cells of n = 6 under 3 MB
    return np.concatenate([
        (a[:, perms[:, iu], perms[:, ju]] == a[:, None, iu, ju]).all(axis=2)
        for a in np.split(adj, range(256, len(adj), 256))])


def brute_automorphisms(adj: np.ndarray) -> set[tuple[int, ...]]:
    """Every permutation p with adj[p][:, p] == adj, by scanning all n! of them."""
    perms = permutation_rows(adj.shape[0])
    return {tuple(p) for p in perms[brute_automorphism_table(adj[None])[0]].tolist()}


def connected_graphs_up_to_isomorphism(n: int):
    """One labeled connected graph per isomorphism class on n vertices: the
    one whose bitmap is the least over all n! relabelings."""
    cells = list(itertools.combinations(range(n), 2))
    index = {cell: b for b, cell in enumerate(cells)}
    graphs = list(connected_labeled_graphs(n))
    iu, ju = np.array(cells, dtype=np.intp).reshape(-1, 2).T
    bits = np.array([a[iu, ju] for a in graphs], dtype=np.int64).reshape(len(graphs), -1)
    own = bits @ (np.int64(1) << np.arange(len(cells), dtype=np.int64))
    least = own
    for perm in itertools.permutations(range(n)):
        # cell (i, j) of a graph is cell (perm[i], perm[j]) of its relabeling
        moved = [index[tuple(sorted((perm[i], perm[j])))] for i, j in cells]
        least = np.minimum(least, bits @ (np.int64(1) << np.array(moved, dtype=np.int64)))
    for adj, keep in zip(graphs, own == least):
        if keep:
            yield adj


def all_labeled_signed_graphs(n: int):
    """Every signed graph on vertices 0..n-1: each cell -1, 0 or +1 (3^C(n,2))."""
    cells = list(itertools.combinations(range(n), 2))
    for signs in itertools.product((-1, 0, 1), repeat=len(cells)):
        adj = np.zeros((n, n), dtype=np.int8)
        for (i, j), x in zip(cells, signs):
            adj[i, j] = adj[j, i] = x
        yield SignedGraph(adj)


def seeded_signed_graphs(seed: int, n: int, count: int):
    """count random signed graphs on n vertices, edge densities 0.2 to 0.9."""
    rng = np.random.default_rng(seed)
    for density in np.linspace(0.2, 0.9, count):
        upper = np.triu(rng.random((n, n)) < density, 1)
        signs = np.where(rng.random((n, n)) < 0.5, -1, 1)
        adj = (upper * signs).astype(np.int8)
        yield SignedGraph(adj + adj.T)


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


def brute_labelling(adj_bool: np.ndarray) -> tuple[bytes, list[tuple[int, ...]]]:
    """The least upper-triangle bitmap of one graph (n <= 11) over every order
    that keeps its tuple_sorting_color_classes in place, and the orders that
    attain it, sorted. Order p puts vertex p[i] at position i, each class
    filling the next positions in colour order; the bitmap is read row by row
    as a number, MSB first, and given as its bytes, padded with zero bits."""
    n = adj_bool.shape[0]
    classes = tuple_sorting_color_classes(adj_bool)
    orders = np.array([sum(parts, ()) for parts in itertools.product(
        *(itertools.permutations(c) for c in classes))], dtype=np.intp)
    iu, ju = np.triu_indices(n, k=1)
    cells = adj_bool[orders[:, iu], orders[:, ju]]
    codes = cells.astype(np.int64) @ (np.int64(1) << np.arange(len(iu) - 1, -1, -1))
    best = codes == codes.min()
    return np.packbits(cells[best.argmax()]).tobytes(), sorted(map(tuple, orders[best].tolist()))


def per_order_signed_code(g: SignedGraph, switched: bool = True) -> tuple[bytes, bytes]:
    """canonical_signed_code, one relabeling and canonical switch per optimal
    order of brute_labelling, all n! of them for K_n; without switched, the
    key signed_isomorphic compares, the relabelings alone."""
    code, orders = brute_labelling(np.abs(g.adj).astype(bool))
    iu, ju = _triu_cells(g.n)
    best = None
    for order in orders:
        c = permute(g, order)
        if switched:
            c = canonical_switch(c)
        # entries -1/0/+1 -> bytes 2/0/1 so the comparison is deterministic
        row = np.where(c.adj[iu, ju] == -1, 2, c.adj[iu, ju]).astype(np.uint8).tobytes()
        if best is None or row < best:
            best = row
    return code, best


def brute_signed_twin_classes(adj: np.ndarray, up_to_sign: bool = False) -> list[list[int]]:
    """The vertex sets {v} plus every u with adj[u, x] == adj[v, x] for all x
    outside {u, v}, or with up_to_sign adj[u, x] == e adj[v, x] for one sign
    e, each sorted, without repeats, by least vertex. They partition the
    vertices only if the relation is an equivalence."""
    n = len(adj)
    classes = {tuple(u for u in range(n) if any(
        all(adj[u, x] == e * adj[v, x] for x in range(n) if x not in (u, v))
        for e in ((1, -1) if up_to_sign else (1,))))
               for v in range(n)}
    return sorted(map(list, classes))


def colour_classes_are_twin_sets(adj_bool: np.ndarray) -> bool:
    """Whether each class of tuple_sorting_color_classes lies in one class of
    brute_signed_twin_classes: a twin graph, whose colour-respecting orders
    are all automorphisms."""
    twins = brute_signed_twin_classes(adj_bool)
    return all(any(set(c) <= set(x) for x in twins) for c in tuple_sorting_color_classes(adj_bool))


def planted_twin_graphs(seed: int, n: int, count: int):
    """Seeded signed graphs (seeded_signed_graphs) with signed twins planted,
    three per graph: for each sign s, up to n - 1 times a random vertex b
    copies the signed row of another vertex a and the edge ab gets the sign s
    (0 for no edge), so chains of copies plant classes of three or more."""
    rng = np.random.default_rng(seed)
    for g in seeded_signed_graphs(seed, n, count):
        for s in (-1, 0, 1):
            adj = np.array(g.adj)
            for _ in range(rng.integers(1, n)):
                a, b = rng.choice(n, 2, replace=False)
                row = adj[a].copy()
                adj[b], adj[:, b] = row, row
                adj[a, b] = adj[b, a] = s
                adj[b, b] = 0
            yield SignedGraph(adj)


def per_mask_neg_edge_maximum(g: SignedGraph):
    """switching_neg_edge_maximum, one switched matrix per mask of the 2^n."""
    best = -1
    maximizers: dict[bytes, SignedGraph] = {}
    n = g.n
    for mask in range(1 << n):
        spin = np.array([-1 if (mask >> v) & 1 else 1 for v in range(n)],
                        dtype=np.int8)
        adj = np.outer(spin, spin) * g.adj
        neg = int(np.count_nonzero(adj == -1)) // 2
        if neg > best:
            best = neg
            maximizers = {}
        if neg == best:
            key = adj.tobytes()
            if key not in maximizers:
                maximizers[key] = SignedGraph(adj)
    return best, [maximizers[k] for k in sorted(maximizers)]


def all_mask_neg_counts(adj: np.ndarray) -> np.ndarray:
    """Negative edge count after every switching of adj, indexed by mask, as
    (2m - rowsum((S A) * S)) / 4 in int64 with one spin row per mask."""
    n = len(adj)
    spins = 1 - 2 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    a = adj.astype(np.int64)
    return (np.count_nonzero(adj) - ((spins @ a) * spins).sum(1)) // 4


def row_loop_gf2_solutions(masks: list[int], width: int, want_odd: bool) -> np.ndarray:
    """Ascending solutions of parity(x & mask) = want_odd for every mask, by
    Gauss-Jordan elimination of one Python int per row."""
    # rows augmented with a constant column at bit `width`; pivots are chosen
    # among the variable bits only
    rhs = 1 << width
    var_mask = rhs - 1
    rows = [m | (rhs if want_odd else 0) for m in masks]
    pivots: dict[int, int] = {}
    for row in rows:
        r = row
        # pivot rows are kept reduced, so one pass in any order suffices
        for col, prow in pivots.items():
            if (r >> col) & 1:
                r ^= prow
        if r & var_mask == 0:
            if r & rhs:
                return np.zeros(0, dtype=np.uint64)  # inconsistent system
            continue
        lead = (r & var_mask).bit_length() - 1
        for col in list(pivots):
            if (pivots[col] >> lead) & 1:
                pivots[col] ^= r
        pivots[lead] = r
    free = [c for c in range(width) if c not in pivots]
    if len(free) > 21:
        raise ValueError("solution space too large to enumerate")
    particular = 0
    for col, row in pivots.items():
        if (row >> width) & 1:
            particular |= 1 << col
    basis = []
    for f in free:
        v = 1 << f
        for col, row in pivots.items():
            if (row >> f) & 1:
                v |= 1 << col
        basis.append(v)
    out = np.array([particular], dtype=np.uint64)
    for b in basis:
        out = np.concatenate((out, out ^ np.uint64(b)))
    return np.sort(out)


def tuple_sorting_color_classes(adj_bool: np.ndarray) -> list[list[int]]:
    """Colour refinement of one graph by sorting (colour, sorted neighbour
    colours) tuples: colours start as degree ranks and each round ranks the
    distinct tuples, until no class splits. Classes in colour order."""
    nbrs = [[u for u, x in enumerate(row) if x] for row in adj_bool.tolist()]
    degs = [len(nb) for nb in nbrs]
    ranks = {d: r for r, d in enumerate(sorted(set(degs)))}
    colors = [ranks[d] for d in degs]
    count = len(ranks)
    while True:
        keys = [(colors[v], tuple(sorted(colors[u] for u in nb)))
                for v, nb in enumerate(nbrs)]
        ranks = {k: r for r, k in enumerate(sorted(set(keys)))}
        colors = [ranks[k] for k in keys]
        if len(ranks) == count:
            break
        count = len(ranks)
    return [[v for v in range(len(nbrs)) if colors[v] == c] for c in range(count)]


def per_child_deletion_set(adj_bool: np.ndarray) -> list[int] | None:
    """M(G) by definition: the non-cut vertices that maximize (-degree, sorted
    neighbour degrees), ascending, or None when the last vertex is not in it.
    A cut vertex is found by deleting it and searching the rest."""
    n = adj_bool.shape[0]
    nbrs = [[u for u, x in enumerate(row) if x] for row in adj_bool.tolist()]

    def key(v):
        return -len(nbrs[v]), sorted(len(nbrs[u]) for u in nbrs[v])

    def is_cut(v):
        rest = [u for u in range(n) if u != v]
        seen, stack = {rest[0]}, [rest[0]]
        while stack:
            for u in nbrs[stack.pop()]:
                if u != v and u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) != len(rest)

    candidates = [v for v in range(n) if not is_cut(v)]
    best = max(key(v) for v in candidates)
    chosen = [v for v in candidates if key(v) == best]
    return chosen if n - 1 in chosen else None


def per_parent_orbit_masks(auts: np.ndarray, m: int) -> list[int]:
    """The smallest nonempty vertex subset of each orbit of the automorphism
    group auts (one permutation per row) on subsets of range(m), as bitmasks."""
    masks = np.arange(1, 1 << m, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(m)) & 1
    images = bits @ (np.int64(1) << auts.astype(np.int64)).T
    return masks[images.min(axis=1) == masks].tolist()


def unpruned_canonical_children(n: int) -> list[bytes]:
    """Codes (brute_labelling) of the children of every (n-1)-vertex class
    that pass McKay's canonical deletion test, in generation order, with
    every orbit mask of every parent sent to the test."""
    m = n - 1
    parents = _codes_to_adj(_connected_class_bitmaps(m), m)
    # every automorphism of each parent, by brute force
    perms = permutation_rows(m)
    owner, masks, comps = [], [], []
    for lo in range(0, len(parents), _TABLE_BLOCK):
        block = parents[lo:lo + _TABLE_BLOCK]
        for p, autos in enumerate(brute_automorphism_table(block), lo):
            orbit = per_parent_orbit_masks(perms[autos], m)
            owner += [p] * len(orbit)
            masks += orbit
        comps.append(_cut_components(block))
    comps = np.concatenate(comps)
    bits = ((np.array(masks, dtype=np.int64)[:, None] >> np.arange(m)) & 1).astype(bool)
    # the children whose new vertex is in M(G), with M(G)
    kids = []
    for lo in range(0, len(owner), _TABLE_BLOCK):
        part = owner[lo:lo + _TABLE_BLOCK]
        adj = np.pad(parents[part], ((0, 0), (0, 1), (0, 1)))
        adj[:, m, :m] = adj[:, :m, m] = bits[lo:lo + _TABLE_BLOCK]
        in_set = _deletion_sets(adj, comps[part])
        kids.append((adj[in_set[:, m]], in_set[in_set[:, m]]))
    children = []
    for adj, in_set in zip(*map(np.concatenate, zip(*kids))):
        code, orders = brute_labelling(adj)
        orders = np.array(orders)
        # a vertex's canonical label is its position in an optimal order;
        # accept iff the new vertex shares an orbit with the vertex of M(G)
        # that gets the smallest label
        if (orders == m).argmax(axis=1).min() == in_set[orders].argmax(axis=1).min():
            children.append(code)
    return children


def isin_signed_graph_adj(adj) -> np.ndarray:
    """The int8 matrix SignedGraph stores for adj, validated with every entry
    tested by np.isin; raises what SignedGraph raises."""
    raw = np.asarray(adj)
    if not np.all(np.isin(raw, (-1, 0, 1))):
        raise ValueError("adjacency entries must be in {-1, 0, +1}")
    a = raw.astype(np.int8)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if a.shape[0] < 1:
        raise ValueError("signed graph needs at least one vertex")
    if np.any(np.diag(a) != 0):
        raise ValueError("loops are not allowed (diagonal must be zero)")
    if not np.array_equal(a, a.T):
        raise ValueError("adjacency must be symmetric")
    return a


def unpruned_rho_scan(table, span, require_unbalanced: bool):
    """The MAX_RHO scan of search._scan_classes with no edge-count bound: every
    feasible signature of every class eigensolved, classes in row order, in
    eigvalsh calls of up to 8192 signatures. Returns the best value and the
    signatures (row, pattern) within SPECTRAL_SLACK of it, rows ascending and
    patterns ascending within a row."""
    batch = 8192
    idx = np.arange(len(table.adj))
    counts = np.where(span.consistent, np.int64(1) << span.free, 0)
    # with the tree pinned +1, pattern 0 is the balanced class
    counts -= require_unbalanced & span.consistent & (span.particular == 0)
    idx, counts = idx[counts > 0], counts[counts > 0]
    best = -np.inf
    kept = []
    ends = np.cumsum(counts)
    start = 0
    while start < len(idx):
        # expand whole classes, about one batch of signatures at a time
        stop = max(start + 1, int(np.searchsorted(
            ends, ends[start] - counts[start] + batch, side="right")))
        system, patterns = _span_patterns(span, idx[start:stop], require_unbalanced)
        for a in range(0, len(system), batch):
            part = slice(a, a + batch)
            vals = _rho_values(table, system[part], patterns[part])
            best = max(best, float(vals.max()))
            sel = vals >= best - SPECTRAL_SLACK
            kept.append((system[part][sel], patterns[part][sel], vals[sel]))
        start = stop
    system, patterns, vals = map(np.concatenate, zip(*kept))
    sel = vals >= best - SPECTRAL_SLACK
    return best, system[sel], patterns[sel]


def per_draw_random_connected_signed_graph(rng: np.random.Generator, n_min: int = 3,
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


def per_draw_switching_invariance(rng):
    g = per_draw_random_connected_signed_graph(rng)
    u = [int(v) for v in np.nonzero(rng.random(g.n) < 0.5)[0]]
    return g, switch(g, u), u


def per_draw_negation_symmetry(rng):
    g = per_draw_random_connected_signed_graph(rng)
    return g, negate(g)


def per_draw_interlacing(rng):
    g = per_draw_random_connected_signed_graph(rng)
    size = int(rng.integers(1, g.n + 1))
    return g, [int(v) for v in rng.choice(g.n, size=size, replace=False)]


def per_draw_edge_addition(rng):
    # connected unsigned graph with a spare non-edge
    for _ in range(50):
        g = per_draw_random_connected_signed_graph(rng).underlying()
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
    return g, SignedGraph._trusted(adj), (u, v)


# the draw of one instance of each property suite, one rng call per draw
PER_DRAW_SUITE_DRAWS = {
    "switching-invariance": per_draw_switching_invariance,
    "negation-symmetry": per_draw_negation_symmetry,
    "interlacing": per_draw_interlacing,
    "balanced-spanning": per_draw_random_connected_signed_graph,
    "clique-bound": per_draw_random_connected_signed_graph,
    "edge-addition": per_draw_edge_addition,
}


def per_graph_interlacing_check(g: SignedGraph, kept) -> bool:
    """Cauchy interlacing, within IDENTITY_TOL, of the principal submatrix on
    the kept vertices."""
    idx = sorted(set(_check_vertex_set(g.n, kept)))
    if not idx:
        raise ValueError("kept vertex set must be nonempty")
    lam = eigenvalues(g).eigenvalues
    b = g.adj[np.ix_(idx, idx)].astype(np.float64)
    mu = _symmetric_eigh(b)[0][::-1]
    n, m = g.n, len(idx)
    for i in range(m):
        if not (lam[i] >= mu[i] - IDENTITY_TOL and mu[i] >= lam[n - m + i] - IDENTITY_TOL):
            return False
    return True


def per_graph_balanced_clique_number(g: SignedGraph) -> int:
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


def per_graph_clique_spectral_bound(g: SignedGraph) -> BoundReport:
    """Compare l1(g) against sqrt(2e (wb-1)/wb) for the balanced clique number wb."""
    e = g.edge_count
    if e < 1:
        raise ValueError("clique spectral bound needs at least one edge")
    wb = per_graph_balanced_clique_number(g)
    bound = math.sqrt(2.0 * e * (wb - 1) / wb)
    lam1 = eigenvalues(g).eigenvalues[0]
    return make_bound_report("clique_spectral", g.n, bound, lam1, spectral=True,
                             details={"balanced_clique_number": wb, "edges": e})


def per_graph_balanced_spanning_subgraph(g: SignedGraph) -> SignedGraph:
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


def per_edge_format_graph(g: SignedGraph) -> str:
    """The graph text, one scan of the pairs u < v and one line per edge."""
    rows, lines = g.adj.tolist(), []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if rows[u][v]:
                lines.append(f"{u} {v} {'+1' if rows[u][v] == 1 else '-1'}")
    return "\n".join([f"{g.n} {len(lines)}"] + lines) + "\n"
