"""The traced benchmark (perfbench/spans.py) wraps library functions by name.

This runs its tracer over a short verification and a short property suite in
a fresh interpreter, so a change that deletes or renames a traced function, or
routes the one-graph path (SignedGraph, eigenvalues, run_suite) around it,
fails here, not first in a benchmark run. The tracer counts a signed code's
orders in a hook on core.canonical_form, so both that function and its
calls from canonical_signed_code must stay, and it times verify_theorem, the
one dispatch of every theorem verifier. It only reads perfbench/.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = ["src", "perfbench"]
import signed_extremal as se
from spans import Tracer

tracer = Tracer()
tracer.install()
se.verify_theorem("T1_3", 5)
se.switching_isomorphic(se.build_gst(1, 3), se.build_gst(2, 2))
se.run_suite("edge-addition", 0, 20)
metrics = tracer.layer_metrics(0.0)
for name in ("core.canonical_form.calls", "core.canonical_signed_code.calls",
             "core.canonical_signed_code.orders", "core.SignedGraph.inits",
             "search.verify_theorem.self_s", "spectral.eigenvalues.calls",
             "properties.instances"):
    if not metrics[name]:
        sys.exit(f"{name} is zero")
"""


def test_tracer_installs_and_traces_the_switching_key():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
