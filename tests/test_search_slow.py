"""Opt-in n = 8 runs: pytest -m slow."""

import hashlib

import pytest

from signed_extremal.bounds import edge_bound, rho_bound
from signed_extremal.core import canonical_signed_code
from signed_extremal.families import build_complete, build_kn_switched_maxneg
from signed_extremal.search import (
    SearchConfig,
    _connected_class_bitmaps,
    enumerate_underlying,
    search,
)

from _oracles import per_order_signed_code

pytestmark = pytest.mark.slow


def test_underlying_class_count_n8():
    assert sum(1 for _ in enumerate_underlying(8)) == 11117


def test_class_codes_pinned_n8():
    # sha256 of the comma-joined sorted canonical codes, as in test_search.py
    codes = ",".join(map(str, _connected_class_bitmaps(8)))
    assert hashlib.sha256(codes.encode()).hexdigest() == (
        "23ba93b3b82fac17178a6601153e23e9c6d4473627de122f86a7ef5016620b2a")


def test_edge_maximum_n8():
    rep = search(SearchConfig(n=8, objective="MAX_EDGES"))
    assert rep.optimum == edge_bound(8) == 22
    assert sorted(rep.matched_family) == ["gst(1,5)", "gst(2,4)", "gst(3,3)"]


def test_spectral_maximum_n8():
    rep = search(SearchConfig(n=8, objective="MAX_RHO"))
    assert rep.optimum == pytest.approx(rho_bound(8), abs=1e-9)
    assert rep.matched_family == ["gst(1,5)"]


def test_signed_code_matches_per_order_reference_on_k8():
    # 40,320 optimal orders each; the tier-1 test stops at K_7
    for g in (build_complete(8, 1), build_complete(8, -1), build_kn_switched_maxneg(8)):
        assert canonical_signed_code(g) == per_order_signed_code(g)


@pytest.mark.parametrize("objective,digest", [
    ("MAX_EDGES", "6f80b0d3ccc754c6ed90bac40e5bbe799197f00ad8582e8e4f497da659ce3d82"),
    ("MAX_RHO", "bca92010863c3769449c790b1873ee605df58e19804a604e639e341b35d0fe98"),
])
def test_report_pinned_n8(objective, digest):
    # sha256 of the report, recorded when every class's adjacency, tree,
    # triangles and GF(2) solutions were rebuilt on each search
    rep = search(SearchConfig(n=8, objective=objective))
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == digest
