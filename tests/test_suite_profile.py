"""tools/suite_profile.py runs against the source tree and prints one line of
timings and LAPACK solve calls per property suite."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from signed_extremal.properties import SUITE_NAMES

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "suite_profile.py"


def test_prints_one_line_per_suite():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(TOOL), "--seed", "3", "--instances", "20",
                           "--repeat", "2"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [row[0] for row in rows] == list(SUITE_NAMES)
    for row in rows:
        draw, step, judge, lapack = map(float, row[1:5])
        assert min(draw, step, judge, lapack) >= 0 and lapack <= step + judge
        assert row[5].endswith("%")
        assert row[6].isdigit() and int(row[6]) >= 0


def test_imports_nothing_from_the_benchmark():
    tree = ast.parse(TOOL.read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(m.split(".")[0] == "perfbench" for m in modules), modules
