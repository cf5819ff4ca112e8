"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line (visible with pytest -s). Time budgets are
asserted with the stated limits; the implementation runs far below them.
"""

import math
import time

import numpy as np
import pytest

from signed_extremal.bounds import neg_edge_bound, rho_bound
from signed_extremal.core import switch
from signed_extremal.families import build_gst, build_gst_maxneg, build_h
from signed_extremal.properties import run_all_suites
from signed_extremal.search import (
    SearchConfig,
    search,
    switching_neg_edge_maximum,
    verify_theorem,
)
from signed_extremal.spectral import CharPolyId, char_poly_eval, eigenvalues


def _report(ok: bool, label: str):
    print(f"{'PASS' if ok else 'FAIL'} {label}", flush=True)
    assert ok, label


def test_criterion_1_formula_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(7, 41):
        lam = eigenvalues(build_gst(1, n - 3)).eigenvalues[0]
        worst = max(worst, abs(lam - 0.5 * (math.sqrt(n * n - 8) + n - 4)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(ok, f"criterion 1: top-eigenvalue formula, n=7..40 "
                f"(max dev {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_quotient_identity():
    t0 = time.perf_counter()
    worst = 0.0
    from signed_extremal.families import gst_partition
    from signed_extremal.spectral import quotient_matrix

    for n in range(4, 21):
        for s in range(1, n - 2):
            t = n - 2 - s
            g = build_gst(s, t)
            full = sorted(eigenvalues(g).eigenvalues)
            q = quotient_matrix(g, gst_partition(s, t)).eigenvalues()
            expect = sorted(list(q) + [-1.0] * (s + t - 2))
            worst = max(worst, max(abs(a - b) for a, b in zip(full, expect)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(ok, f"criterion 2: quotient eigenvalue identity, n<=20 "
                f"(max dev {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_3_strict_ordering():
    t0 = time.perf_counter()
    min_gap = math.inf
    for n in range(7, 17):
        lams = [
            eigenvalues(build_gst(s, n - 2 - s)).eigenvalues[0]
            for s in range(1, (n - 2) // 2 + 1)
        ]
        for a, b in zip(lams, lams[1:]):
            min_gap = min(min_gap, a - b)
    elapsed = time.perf_counter() - t0
    ok = min_gap > 1e-6 and elapsed < 5.0
    _report(ok, f"criterion 3: strict split ordering, n=7..16 "
                f"(min gap {min_gap:.2e}, {elapsed:.2f}s)")


def test_criterion_4_exhaustive_edge_maximum():
    expected = {4: 4, 5: 7, 6: 11, 7: 16}
    budgets = {4: 60.0, 5: 60.0, 6: 60.0, 7: 1800.0}
    ok = True
    details = []
    for n in (4, 5, 6, 7):
        t0 = time.perf_counter()
        rep = search(SearchConfig(n=n, objective="MAX_EDGES"))
        elapsed = time.perf_counter() - t0
        good = (
            rep.optimum == expected[n]
            and all(m is not None and m.startswith("gst(") for m in rep.matched_family)
            and len(rep.witnesses) == (n - 2) // 2
            and elapsed < budgets[n]
        )
        ok = ok and good
        details.append(f"n={n}: {rep.optimum} ({elapsed:.1f}s)")
    _report(ok, "criterion 4: exhaustive edge maximum, " + "; ".join(details))


def test_criterion_5_exhaustive_spectral_maximum():
    budgets = {4: 60.0, 5: 60.0, 6: 60.0, 7: 1800.0}
    ok = True
    details = []
    for n in (4, 5, 6, 7):
        t0 = time.perf_counter()
        rep = search(SearchConfig(n=n, objective="MAX_RHO"))
        elapsed = time.perf_counter() - t0
        good = (
            abs(rep.optimum - rho_bound(n)) <= 1e-9
            and len(rep.witnesses) == 1
            and rep.matched_family == [f"gst(1,{n - 3})"]
            and elapsed < budgets[n]
        )
        ok = ok and good
        details.append(f"n={n}: {rep.optimum:.9f} ({elapsed:.1f}s)")
    _report(ok, "criterion 5: exhaustive spectral maximum, " + "; ".join(details))


def test_criterion_6_negative_edge_extremum():
    from signed_extremal.core import signed_isomorphic

    t0 = time.perf_counter()
    ok = True
    for n in range(4, 13):
        s = (n - 2) // 2
        g = build_gst(s, n - 2 - s)
        best, maximizers = switching_neg_edge_maximum(g)
        theorem_u = [1] + list(range(2, s + 2))
        attained = switch(g, theorem_u)
        ok = ok and best == neg_edge_bound(n)
        ok = ok and attained.neg_edge_count == best
        ok = ok and attained in maximizers
        if n >= 6:
            # unique and already in the canonical layout
            ok = ok and maximizers == [build_gst_maxneg(n)]
        else:
            # n = 4 ties are relabelings of the canonical maximizer; n = 5
            # also admits one genuinely different tie class
            ok = ok and any(
                signed_isomorphic(m, build_gst_maxneg(n)) for m in maximizers
            )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(ok, f"criterion 6: negative-edge extremum over switchings, n=4..12 "
                f"({elapsed:.2f}s)")


def test_criterion_7_complete_graph_negative_edges():
    t0 = time.perf_counter()
    ok = True
    for n in range(4, 11):
        rep = verify_theorem("L2_2", n)
        ok = ok and rep.passed and rep.observed == (n // 2) * ((n + 1) // 2)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(ok, f"criterion 7: complete-graph negative-edge maximum, n=4..10 "
                f"({elapsed:.2f}s)")


def test_criterion_8_comparison_graphs():
    t0 = time.perf_counter()
    ok = True
    worst_rel = 0.0
    for n in range(7, 15):
        lam_star = eigenvalues(build_gst(1, n - 3)).eigenvalues[0]

        cases = []
        for s in range(1, (n - 2) // 2 + 1):
            pid = (CharPolyId("F1_S1", n=n) if s == 1
                   else CharPolyId("F1_GEN", s=s, t=n - 2 - s))
            cases.append(("H1", s, n - 2 - s, pid))
        for s in range(2, n - 2):
            pid = (CharPolyId("F2_S2", n=n) if s == 2
                   else CharPolyId("F2_GEN", s=s, t=n - 2 - s))
            cases.append(("H2", s, n - 2 - s, pid))
        for s in range(1, (n - 3) // 2 + 1):
            cases.append(("H3", s, n - 3 - s, CharPolyId("F3", s=s, t=n - 3 - s)))

        for fam, s, t, pid in cases:
            lam = eigenvalues(build_h(fam, s, t)).eigenvalues[0]
            ok = ok and lam < lam_star - 1e-9
            degree = len(pid.coefficients()) - 1
            rel = abs(char_poly_eval(pid, lam)) / max(1.0, abs(lam)) ** degree
            worst_rel = max(worst_rel, rel)
            ok = ok and rel <= 1e-6
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(ok, f"criterion 8: comparison graphs stay below the extremum, n=7..14 "
                f"(worst poly residual {worst_rel:.2e}, {elapsed:.2f}s)")


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    results = run_all_suites(seed=2024, instances=200)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in results) and elapsed < 120.0
    summary = ", ".join(f"{r.name}={r.violations}" for r in results)
    _report(ok, f"criterion 9: property suites 200 instances each "
                f"(violations: {summary}; {elapsed:.1f}s)")


def test_criterion_10_complete_graph_classification():
    t0 = time.perf_counter()
    ok = all(verify_theorem("T1_1", n).passed for n in range(3, 7))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(ok, f"criterion 10: homogeneous classification of complete graphs, "
                f"n<=6 ({elapsed:.2f}s)")
