"""Dense spectra of signed graphs, equitable partitions, and closed-form polynomials.

Eigenvalues come from LAPACK's symmetric solver; convergence failures are
surfaced as SpectralError, never returned silently. Comparisons elsewhere use
1e-8 for eigenvalue-identity checks and 1e-9 for closed-form formula checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._render import json_text
from .core import SignedGraph, _check_vertex_set, _groups, _is_int

__all__ = [
    "SpectralError",
    "NotEquitableError",
    "BracketError",
    "Spectrum",
    "QuotientMatrix",
    "CharPolyId",
    "eigenvalues",
    "spectral_radius",
    "quotient_matrix",
    "quotient_spectrum_check",
    "char_poly_eval",
    "largest_root",
    "interlacing_check",
    "spectrum_to_json",
    "multiset_contains",
    "IDENTITY_TOL",
    "FORMULA_TOL",
]

IDENTITY_TOL = 1e-8   # eigenvalue multiset identity checks
FORMULA_TOL = 1e-9    # closed-form formula checks
_EPS = np.finfo(np.float64).eps


class SpectralError(RuntimeError):
    """The eigensolver failed to converge."""


class NotEquitableError(ValueError):
    """A partition is not equitable; names the violating block pair and rows."""

    def __init__(self, block_i, block_j, rows):
        self.block_i = block_i
        self.block_j = block_j
        self.rows = tuple(rows)
        super().__init__(
            f"partition not equitable: rows {self.rows} of block {block_i} have "
            f"differing sums into block {block_j}"
        )


class BracketError(RuntimeError):
    """A closed-form polynomial has no root in (0, n], n its graph's order."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order with the spectral radius max(l1, -ln)."""

    eigenvalues: tuple[float, ...]
    rho: float
    principal_vector: tuple[float, ...] | None
    tol: float


def _symmetric_eigh(a: np.ndarray):
    """Ascending eigenvalues and eigenvectors of a (..., n, n) stack, as
    float64; each matrix gets the same bits as when solved alone."""
    try:
        return np.linalg.eigh(a.astype(np.float64, copy=False))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SpectralError(f"symmetric eigensolver failed: {exc}") from exc


def _eigh_values(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (..., n, n) stack from eigh: the bits
    eigenvalues() gives, where eigvalsh can differ in the last ones."""
    return _symmetric_eigh(a)[0]


def _stacked_spectra(a: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of each matrix of a (..., n, n) stack of sign
    matrices, from one eigvalsh call (no eigenvectors)."""
    try:
        w = np.linalg.eigvalsh(a.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"symmetric eigensolver failed: {exc}") from exc
    return w[..., ::-1]


def eigenvalues(g: SignedGraph) -> Spectrum:
    """Full spectrum of the sign-adjacency matrix, deterministic for fixed input.

    The principal eigenvector is sign-normalized so its largest-magnitude entry
    is positive, ties broken by lowest index.
    """
    w, vecs = _symmetric_eigh(g.adj)
    vals = w[::-1].tolist()
    x = vecs[:, -1]
    if x[int(np.argmax(np.abs(x)))] < 0:
        x = -x
    rho = max(vals[0], -vals[-1])
    tol = max(1e-12, 16.0 * g.n * _EPS * max(1.0, rho))
    return Spectrum(tuple(vals), rho, tuple(x.tolist()), tol)


def spectral_radius(g: SignedGraph) -> float:
    return eigenvalues(g).rho


@dataclass(frozen=True)
class QuotientMatrix:
    """Block row-sum matrix of an equitable partition, with the partition itself."""

    q: tuple[tuple[int, ...], ...]
    partition: tuple[tuple[int, ...], ...]

    def as_array(self) -> np.ndarray:
        return np.array(self.q, dtype=np.float64)

    def eigenvalues(self) -> tuple[float, ...]:
        """Descending eigenvalues, via the symmetrizing block-size similarity."""
        q = self.as_array()
        sizes = np.array([len(b) for b in self.partition], dtype=np.float64)
        d = np.sqrt(sizes)
        s = (d[:, None] / d[None, :]) * q
        s = 0.5 * (s + s.T)
        w, _ = _symmetric_eigh(s)
        return tuple(float(v) for v in w[::-1])


def quotient_matrix(g: SignedGraph, partition) -> QuotientMatrix:
    """Quotient of the sign matrix over an equitable partition.

    Equitability is verified in exact integer arithmetic on block row sums;
    violations raise NotEquitableError identifying the block pair and rows.
    """
    blocks = [tuple(sorted(_check_vertex_set(g.n, b))) for b in partition]
    flat = [v for b in blocks for v in b]
    if sorted(flat) != list(range(g.n)):
        raise ValueError("partition blocks must be disjoint and cover all vertices")
    if any(len(b) == 0 for b in blocks):
        raise ValueError("partition blocks must be nonempty")
    a = g.adj.astype(np.int64)
    m = len(blocks)
    q = np.zeros((m, m), dtype=np.int64)
    for i, bi in enumerate(blocks):
        for j, bj in enumerate(blocks):
            sums = a[np.ix_(bi, bj)].sum(axis=1)
            if not np.all(sums == sums[0]):
                bad = [bi[r] for r in range(len(bi)) if sums[r] != sums[0]]
                raise NotEquitableError(i, j, [bi[0]] + bad)
            q[i, j] = sums[0]
    return QuotientMatrix(tuple(tuple(int(x) for x in row) for row in q), tuple(blocks))


def multiset_contains(haystack, needles, tol: float) -> bool:
    """True iff every needle matches a distinct haystack value within tol.

    Both inputs are treated as multisets of reals; matching is done by a
    monotone sweep over the sorted sequences.
    """
    hs = sorted(haystack)
    i = 0
    for q in sorted(needles):
        while i < len(hs) and hs[i] < q - tol:
            i += 1
        if i >= len(hs) or abs(hs[i] - q) > tol:
            return False
        i += 1
    return True


def quotient_spectrum_check(g: SignedGraph, partition) -> bool:
    """True iff every quotient eigenvalue (with multiplicity) appears in the
    full spectrum, within IDENTITY_TOL."""
    qm = quotient_matrix(g, partition)
    return multiset_contains(eigenvalues(g).eigenvalues, qm.eigenvalues(), IDENTITY_TOL)


# ---------------------------------------------------------------------------
# Closed-form characteristic polynomials of the quotient matrices used by the
# named constructions. Coefficients are exact integers, descending powers.
# ---------------------------------------------------------------------------

# family: (the least value of each parameter it takes, the order of its
# graph, its coefficients), both functions of those parameters
_FAMILIES = {
    "F_GST": ({"s": 1, "t": 1}, lambda s, t: s + t + 2,
              lambda s, t: (1, 2 - s - t, -2 * s - 2 * t, 2 * s * t - 2, 3 * s * t + s + t - 1)),
    "F1_S1": ({"n": 5}, lambda n: n,
              lambda n: (1, 5 - n, 9 - 3 * n, n - 7, 3 * n - 11, 5 - n)),
    "F1_GEN": ({"s": 2, "t": 2}, lambda s, t: s + t + 2,
               lambda s, t: (1, 4 - s - t, 6 - 4 * s - 4 * t, 2 * s * t - 4 * s - 4 * t,
                             3 * s * t + s + t - 7, 4 * s + 4 * t - 2 * s * t - 4, 3 - s - t)),
    "F2_GEN": ({"s": 3, "t": 1}, lambda s, t: s + t + 2,
               lambda s, t: (1, 4 - s - t, 6 - 4 * s - 4 * t, 2 - 4 * s - 4 * t + 2 * s * t,
                             -5 + s - 3 * t + 3 * s * t, -4 + 2 * s + 4 * t - 2 * s * t, 0)),
    "F2_S2": ({"n": 5}, lambda n: n, lambda n: (1, 5 - n, 9 - 3 * n, 3 * n - 15, 0, 0)),
    "F3": ({"s": 1, "t": 1}, lambda s, t: s + t + 3,
           lambda s, t: (1, 2 - s - t, -3 * s - 3 * t, 2 * s * t - s - t - 2,
                         s * t + 2 * s + 2 * t - 1, s + t - 2 * s * t)),
}


@dataclass(frozen=True)
class CharPolyId:
    """Selector for one of the closed-form polynomial families (_FAMILIES).

    F_GST(s,t): quotient of the clique-plus-two-apexes signed family.
    F1_S1(n):   quotient of that family's underlying graph minus one cross
                clique edge at split (1, n-3).
    F1_GEN(s,t): same with both split sides >= 2.
    F2_GEN(s,t): underlying graph minus an edge inside the s-side, s >= 3.
    F2_S2(n):    the s = 2 case of the above.
    F3(s,t):     one extra vertex joined to the whole clique.
    """

    family: str
    s: int | None = None
    t: int | None = None
    n: int | None = None

    def __post_init__(self):
        for name in ("s", "t", "n"):
            value = getattr(self, name)
            # a float would make the coefficients floats, and a fixed-width
            # numpy integer could wrap in the exact Horner rule: store an int
            if value is not None:
                if not _is_int(value):
                    raise ValueError(f"{name} must be an int, got {value!r}")
                object.__setattr__(self, name, int(value))
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown polynomial family {self.family!r}")
        least = _FAMILIES[self.family][0]
        if {k for k in ("s", "t", "n") if getattr(self, k) is not None} != set(least):
            raise ValueError(f"{self.family} takes exactly the parameters {', '.join(least)}")
        for name, lo in least.items():
            if getattr(self, name) < lo:
                raise ValueError(f"{self.family} needs {name} >= {lo}")

    def _params(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _FAMILIES[self.family][0]}

    def coefficients(self) -> tuple[int, ...]:
        return _FAMILIES[self.family][2](**self._params())

    @property
    def matrix_order(self) -> int:
        """Order of the graph the polynomial's quotient matrix comes from."""
        return _FAMILIES[self.family][1](**self._params())


def char_poly_eval(poly_id: CharPolyId, x: float) -> float:
    """The polynomial at the float x, evaluated exactly at x's rational value
    and rounded once; ValueError for an x that is not finite, OverflowError
    for a value past the float range."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    a, b = x.as_integer_ratio()
    coeffs = poly_id.coefficients()
    return _scaled_value(coeffs, a, b) / b ** (len(coeffs) - 1)


def _scaled_value(coeffs, a: int, b: int) -> int:
    """b^d p(a/b) for the integer polynomial p of degree d with coefficients
    coeffs (descending), by Horner's rule on integers: exact."""
    acc, bk = 0, 1
    for c in coeffs:
        acc = acc * a + c * bk
        bk *= b
    return acc


def _poly_derivative(coeffs):
    deg = len(coeffs) - 1
    return tuple((deg - i) * c for i, c in enumerate(coeffs[:-1]))


def _roots_above(fourier, a: int, b: int) -> int:
    """Roots above a/b (b > 0), with multiplicity, of a real-rooted polynomial
    whose derivatives p, p', ..., p^(d) are fourier: the sign changes of their
    values there, zeros dropped (Budan-Fourier, exact when every root is real)."""
    signs = [v > 0 for v in (_scaled_value(c, a, b) for c in fourier) if v]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def largest_root(poly_id: CharPolyId) -> float:
    """The float nearest the largest root in (0, n], n the graph's order.

    Every family is the characteristic polynomial of an equitable quotient
    matrix Q, and D^(1/2) Q D^(-1/2) (D the block sizes) is symmetric, so
    every root is real and Budan-Fourier counts the roots above any rational
    exactly. The root is bisected over dyadic rationals lo/2^k < r <= hi/2^k
    until both ends round to the same float; BracketError if the polynomial
    has no root in (0, n].
    """
    fourier = [poly_id.coefficients()]
    while len(fourier[-1]) > 1:
        fourier.append(_poly_derivative(fourier[-1]))
    lo, hi, scale = 0, poly_id.matrix_order, 1
    if not _roots_above(fourier, lo, scale):
        raise BracketError(f"{poly_id}: no real root in (0, {hi}]")
    while lo / scale != hi / scale:
        lo, hi, scale = 2 * lo, 2 * hi, 2 * scale
        mid = (lo + hi) // 2
        if _roots_above(fourier, mid, scale):
            lo = mid
        else:
            hi = mid
    return lo / scale


def interlacing_check(g: SignedGraph, kept) -> bool:
    """Cauchy interlacing, within IDENTITY_TOL, of the principal submatrix on
    the kept vertices, which must be distinct."""
    return _interlacing_checks(g.adj[None], [kept])[0]


def _interlacing_checks(a: np.ndarray, kept) -> list[bool]:
    """interlacing_check of each matrix of a (k, n, n) stack and its kept
    vertices kept[i], in order: one eigh for the stack and one per kept-set
    size, of its principal submatrices gathered from the stack at once. All
    k kept sets are checked before any is solved."""
    if len(kept) != len(a):
        raise ValueError(f"{len(kept)} kept vertex sets for {len(a)} matrices")
    sets = []
    for vertices in kept:
        idx = _check_vertex_set(a.shape[-1], vertices)
        if not idx:
            raise ValueError("kept vertex set must be nonempty")
        if len(set(idx)) < len(idx):
            raise ValueError(f"kept vertices must be distinct, got {idx}")
        sets.append(sorted(idx))
    mus = [None] * len(a)
    for part in _groups(map(len, sets)):
        rows, cols = np.array(part)[:, None, None], np.array([sets[i] for i in part])
        for i, mu in zip(part, _eigh_values(a[rows, cols[:, :, None], cols[:, None, :]]).tolist()):
            mus[i] = mu
    out = []
    for lam, mu in zip(_eigh_values(a).tolist(), mus):
        # ascending: mu_i lies between lam_i and lam_{n-m+i}
        shift = len(lam) - len(mu)
        out.append(all(mu[i] >= lam[i] - IDENTITY_TOL and lam[shift + i] >= mu[i] - IDENTITY_TOL
                       for i in range(len(mu))))
    return out


def spectrum_to_json(sp: Spectrum) -> str:
    """Fixed 15-significant-digit JSON rendering of a spectrum."""
    return json_text({"eigenvalues": sp.eigenvalues, "rho": sp.rho, "tol": sp.tol})
