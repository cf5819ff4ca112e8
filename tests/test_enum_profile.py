"""tools/enum_profile.py runs against the source tree and prints one line of
counts and timings per enumeration level."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "enum_profile.py"


def test_prints_one_line_per_level():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(TOOL), "--max-n", "6", "--repeat", "2"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [int(row[0]) for row in rows] == [2, 3, 4, 5, 6]
    counts = [list(map(int, row[1:6])) for row in rows]
    # connected graphs (OEIS A001349), and every level below the top one
    # carries one row per class at least
    assert [c[0] for c in counts] == [1, 2, 6, 21, 112]
    for classes, tested, branched, branch_rows, carried in counts:
        assert tested >= classes and branch_rows >= branched >= 0 and carried >= classes
    assert counts[-1][4] == 201
    assert all(float(t) >= 0 for row in rows for t in row[6:10])


def test_imports_nothing_from_the_benchmark():
    tree = ast.parse(TOOL.read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(m.split(".")[0] == "perfbench" for m in modules), modules
