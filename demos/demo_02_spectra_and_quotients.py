"""Spectra, equitable partitions, and closed-form characteristic polynomials.

Run with: python demos/demo_02_spectra_and_quotients.py
"""

import math

import signed_extremal as se
from signed_extremal import CharPolyId, char_poly_eval, largest_root

# ---------------------------------------------------------------------------
# Eigenvalues of the sign-adjacency matrix. Switching is a similarity, so the
# spectrum is a class invariant; negation reverses and negates it.
# ---------------------------------------------------------------------------

g = se.build_gst(1, 4)
sp = se.eigenvalues(g)
print("spectrum of the order-7 extremal graph:")
print(" ", [round(v, 9) for v in sp.eigenvalues])
print("rho =", sp.rho)
print("closed form (sqrt(n^2-8)+n-4)/2 =", (math.sqrt(49 - 8) + 3) / 2)

sw = se.switch(g, [0, 2, 5])
print("\nswitched copy has the same spectrum:",
      max(abs(a - b) for a, b in zip(sp.eigenvalues,
                                     se.eigenvalues(sw).eigenvalues)) < 1e-12)

neg = se.negate(g)
print("negation reverses the spectrum:",
      [round(v, 6) for v in se.eigenvalues(neg).eigenvalues])

# ---------------------------------------------------------------------------
# The extremal family has a 4-block equitable partition: both apexes, the
# clique vertices attached to u, and those attached to v. Block row sums give
# a small quotient matrix whose eigenvalues all appear in the full spectrum;
# the remaining eigenvalues are -1 with multiplicity n-4.
# ---------------------------------------------------------------------------

partition = se.gst_partition(1, 4)
qm = se.quotient_matrix(g, partition)
print("\nquotient matrix:")
for row in qm.q:
    print(" ", row)
print("quotient eigenvalues:", [round(v, 9) for v in qm.eigenvalues()])
print("they embed in the full spectrum:", se.quotient_spectrum_check(g, partition))

# The quotient's characteristic polynomial is known in closed form; its
# largest root, isolated in exact integer arithmetic and rounded to the
# nearest float, matches the dense eigensolver.
pid = CharPolyId("F_GST", s=1, t=4)
root = largest_root(pid)
print("\nlargest polynomial root:", root)
print("matches eigensolver within 1e-9:", abs(root - sp.eigenvalues[0]) < 1e-9)
print("polynomial value there:", char_poly_eval(pid, root))

# ---------------------------------------------------------------------------
# Cauchy interlacing: principal submatrices interleave the spectrum.
# ---------------------------------------------------------------------------

print("\ninterlacing after deleting one apex:",
      se.interlacing_check(g, [v for v in range(g.n) if v != 1]))
print("JSON rendering:", se.spectrum_to_json(se.eigenvalues(se.build_gst(1, 2))))
