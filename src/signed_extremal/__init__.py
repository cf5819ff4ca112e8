"""Spectral and extremal toolkit for signed graphs.

Core objects: SignedGraph (dense sign matrix), switching algebra, balance and
cycle certificates, dense spectra with equitable-partition quotients, the named
extremal constructions, closed-form bounds, and exhaustive small-order searches
that re-derive the extremal results by brute force.
"""

from .core import (
    Cycle,
    SignedGraph,
    canonical_switch,
    counts,
    cycle_sign,
    find_signed_triangles,
    is_balanced,
    is_connected,
    negate,
    new_signed_graph,
    permute,
    shortest_unbalanced_cycle,
    switch,
    switching_equivalent,
    switching_isomorphic,
)
from .graphio import GraphFormatError, format_graph, parse_graph, read_graph, write_graph
from .spectral import (
    BracketError,
    CharPolyId,
    NotEquitableError,
    QuotientMatrix,
    SpectralError,
    Spectrum,
    char_poly_eval,
    eigenvalues,
    interlacing_check,
    largest_root,
    quotient_matrix,
    quotient_spectrum_check,
    spectral_radius,
    spectrum_to_json,
)
from .families import (
    build_complete,
    build_family,
    build_gst,
    build_gst_maxneg,
    build_h,
    build_kn_switched_maxneg,
    gst_partition,
    h_partition,
)
from .bounds import (
    BoundReport,
    balanced_clique_number,
    balanced_spanning_subgraph,
    clique_spectral_bound,
    edge_bound,
    neg_edge_bound,
    rho_bound,
)
from .search import (
    SearchConfig,
    SearchReport,
    enumerate_signatures,
    enumerate_underlying,
    search,
    switching_neg_edge_maximum,
    verify_theorem,
)
from .properties import run_all_suites, run_suite

__version__ = "0.1.0"
