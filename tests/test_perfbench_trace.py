"""The traced benchmark (perfbench/spans.py) wraps library functions by name.

This runs its tracer over a short verification in a fresh interpreter, so a
change that deletes or renames a traced function fails here, not first in a
benchmark run. It only reads perfbench/.
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
calls = tracer.layer_metrics(0.0)["core.canonical_signed_code.calls"]
if not calls:
    sys.exit("core.canonical_signed_code was never traced")
"""


def test_tracer_installs_and_traces_the_switching_key():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
