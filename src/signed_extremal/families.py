"""Builders for the named signed-graph families.

Vertex layout is fixed so the equitable partitions are index ranges and every
output is reproducible byte for byte: the two apex vertices are 0 (u) and
1 (v), the s clique vertices attached to u come next, then the t clique
vertices attached to v.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .core import SignedGraph, _is_int, switch

__all__ = [
    "build_gst",
    "build_gst_maxneg",
    "build_h",
    "build_complete",
    "build_kn_switched_maxneg",
    "build_family",
    "gst_partition",
    "h_partition",
    "FAMILY_NAMES",
]


def _need(who: str, least: int, **values) -> None:
    """ValueError unless every value is an integer >= least: an int or numpy
    integer, never a bool, as new_signed_graph requires of n."""
    for name, v in values.items():
        if not _is_int(v) or v < least:
            raise ValueError(f"{who} needs integer {name} >= {least}, got {v!r}")


def build_gst(s: int, t: int) -> SignedGraph:
    """Positive clique on s+t vertices, apex u joined to s of them, apex v to the
    other t, plus the single negative edge uv. Order n = s+t+2."""
    _need("build_gst", 1, s=s, t=t)
    n = s + t + 2
    adj = np.zeros((n, n), dtype=np.int8)
    adj[2:, 2:] = 1
    np.fill_diagonal(adj, 0)
    adj[0, 1] = adj[1, 0] = -1
    adj[0, 2:s + 2] = adj[2:s + 2, 0] = 1
    adj[1, s + 2:] = adj[s + 2:, 1] = 1
    return SignedGraph(adj)


def gst_partition(s: int, t: int) -> list[list[int]]:
    """The 4-block equitable partition {u}, {v}, u-side, v-side."""
    _need("build_gst", 1, s=s, t=t)
    n = s + t + 2
    return [[0], [1], list(range(2, s + 2)), list(range(s + 2, n))]


# the class sign matrix of gst_partition, inner signs on the diagonal: uv
# negative, each apex positive to its own side, the clique positive
_GST_SIGNS = np.array([[0, -1, 1, 0], [-1, 0, 0, 1], [1, 0, 1, 1], [0, 1, 1, 1]])
_GST_SIGNS.setflags(write=False)


def build_gst_maxneg(n: int) -> SignedGraph:
    """The balanced-split family switched at v and the whole u-side, which
    maximizes the negative edge count within the family's switching class."""
    _need("build_gst_maxneg", 4, n=n)
    s = (n - 2) // 2
    t = (n - 1) // 2
    u_set = [1] + list(range(2, s + 2))
    return switch(build_gst(s, t), u_set)


def _check_h(family: str, s: int, t: int) -> None:
    """ValueError unless build_h builds `family` with these s and t."""
    if family not in ("H1", "H2", "H3"):
        raise ValueError(f"unknown family {family!r}, expected H1, H2 or H3")
    _need(family, 2 if family == "H2" else 1, s=s)
    _need(family, 1, t=t)


def build_h(family: str, s: int, t: int) -> SignedGraph:
    """All-positive comparison graphs derived from the clique-plus-apexes family.

    H1(s,t): delete the clique edge between the first u-side and first v-side
    vertex, then forget signs. H2(s,t), s >= 2: delete the edge between the
    first two u-side vertices instead. H3(s,t): forget signs and add a new
    vertex adjacent to every clique vertex (order s+t+3).
    """
    _check_h(family, s, t)
    adj = np.abs(build_gst(s, t).adj)
    if family == "H1":
        adj[2, s + 2] = adj[s + 2, 2] = 0
    elif family == "H2":
        adj[2, 3] = adj[3, 2] = 0
    else:
        m = s + t + 2
        adj = np.pad(adj, ((0, 1), (0, 1)))
        adj[m, 2:m] = adj[2:m, m] = 1
    return SignedGraph(adj)


def h_partition(family: str, s: int, t: int) -> list[list[int]]:
    """Equitable partitions matching the build_h layouts."""
    _check_h(family, s, t)
    n = s + t + 2
    if family == "H1":
        if t < 2:
            raise ValueError("H1 partition needs t >= 2")
        if s == 1:
            return [[0], [1], [2], [3], list(range(4, n))]
        return [[0], [1], [2], [s + 2], list(range(3, s + 2)), list(range(s + 3, n))]
    if family == "H2":
        if s == 2:
            return [[0], [1], [2], [3], list(range(4, n))]
        return [[0], [1], [2], [3], list(range(4, s + 2)), list(range(s + 2, n))]
    return [[0], [1], list(range(2, s + 2)), list(range(s + 2, n)), [n]]


def build_complete(n: int, sign: int) -> SignedGraph:
    """The homogeneous complete signed graph (K_n, +) or (K_n, -)."""
    _need("build_complete", 1, n=n)
    if not _is_int(sign) or sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    adj = np.full((n, n), sign, dtype=np.int8)
    np.fill_diagonal(adj, 0)
    return SignedGraph(adj)


def build_kn_switched_maxneg(n: int) -> SignedGraph:
    """(K_n, +) switched at the first floor(n/2) vertices: the balanced complete
    signed graph with the most negative edges."""
    _need("build_kn_switched_maxneg", 2, n=n)
    return switch(build_complete(n, 1), range(n // 2))


# command-line name -> (the parameters it takes, in call order; its builder)
_FAMILIES = {
    "gst": (("s", "t"), build_gst),
    "gst-maxneg": (("n",), build_gst_maxneg),
    "h1": (("s", "t"), partial(build_h, "H1")),
    "h2": (("s", "t"), partial(build_h, "H2")),
    "h3": (("s", "t"), partial(build_h, "H3")),
    "unbal-c4": ((), partial(build_gst, 1, 1)),
    "complete-pos": (("n",), partial(build_complete, sign=1)),
    "complete-neg": (("n",), partial(build_complete, sign=-1)),
    "kn-switched-maxneg": (("n",), build_kn_switched_maxneg),
}
FAMILY_NAMES = tuple(_FAMILIES)


def build_family(name: str, s: int | None = None, t: int | None = None,
                 n: int | None = None) -> SignedGraph:
    """Dispatch a family by its command-line name; every parameter the family
    takes is required, and any other one is rejected."""
    key = name.lower().replace("_", "-")
    if key not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")
    takes, build = _FAMILIES[key]
    given = {"s": s, "t": t, "n": n}
    if any(given[p] is None for p in takes):
        raise ValueError(f"{key} needs " + " and ".join(f"--{p}" for p in takes))
    extra = [p for p, v in given.items() if v is not None and p not in takes]
    if extra:
        raise ValueError(f"{key} does not take " + " or ".join(f"--{p}" for p in extra))
    return build(*(given[p] for p in takes))
