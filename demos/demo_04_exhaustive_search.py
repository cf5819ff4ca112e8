"""Re-deriving the extremal results by exhaustive search at small orders.

Run with: python demos/demo_04_exhaustive_search.py   (under a second)
"""

import signed_extremal as se
from signed_extremal import SearchConfig, search, verify_theorem

# ---------------------------------------------------------------------------
# The search enumerates one representative per isomorphism class of connected
# graphs, then one signed representative per switching class (spanning tree
# pinned positive), filters by the forbidden triangle sign and balance, and
# maximizes the objective.
# ---------------------------------------------------------------------------

print("connected graph classes:",
      {n: sum(1 for _ in se.enumerate_underlying(n)) for n in (4, 5, 6)})

for n in (4, 5, 6, 7):
    rep = search(SearchConfig(n=n, objective="MAX_EDGES"))
    print(f"\nmax edges among unbalanced neg-triangle-free graphs, n={n}: "
          f"{rep.optimum} (bound {se.edge_bound(n)})")
    print("  maximizer classes:", rep.matched_family)
    print("  scanned:", rep.counts)

for n in (4, 5, 6, 7):
    rep = search(SearchConfig(n=n, objective="MAX_RHO"))
    print(f"\nmax spectral radius, n={n}: {rep.optimum:.9f} "
          f"(bound {se.rho_bound(n):.9f})")
    print("  unique maximizer:", rep.matched_family)

# ---------------------------------------------------------------------------
# Named verifications bundle the searches with the construction matching and
# report PASS/FAIL. These are the same checks the test suite pins down.
# ---------------------------------------------------------------------------

print()
for name, n in [("T1_1", 6), ("T1_2_EDGES", 6), ("T1_2_NEG", 6),
                ("T1_3", 6), ("L2_2", 8), ("L3_6_ORDER", 16)]:
    rep = verify_theorem(name, n)
    verdict = "PASS" if rep.passed else "FAIL"
    print(f"{verdict} {rep.bound_name} at n={n}: observed={rep.observed} "
          f"bound={rep.bound_value}")
