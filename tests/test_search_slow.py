"""Opt-in n = 8 runs: pytest -m slow."""

import hashlib

import pytest

from signed_extremal.bounds import edge_bound, rho_bound
from signed_extremal.search import (
    SearchConfig,
    _connected_class_bitmaps,
    enumerate_underlying,
    search,
)

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
