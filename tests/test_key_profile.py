"""tools/key_profile.py runs against the source tree and prints one line of
work, time and memory per corpus of switching keys."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "key_profile.py"


def test_prints_one_line_per_corpus():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    corpora = ["halved-k9-copies", "paley-13", "k10,11"]
    proc = subprocess.run([sys.executable, str(TOOL), "--repeat", "1", "--corpus", *corpora],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [row[0] for row in rows] == corpora
    counts = {row[0]: list(map(int, row[1:5])) for row in rows}
    # the halved K_9's copies share K_9 and are all switching twins, so each
    # owns one start; the Paley two-graph on 13 vertices has no switching
    # twins and one start per root, and K_{10,11} one per choice of its two
    # internal vertices, 10 x 11
    assert counts["halved-k9-copies"] == [200, 1, 200, 0]
    assert counts["paley-13"][:3] == [1, 1, 13]
    assert counts["k10,11"][:3] == [1, 1, 110]
    assert all(counts[name][3] > 0 for name in ("paley-13", "k10,11"))
    assert all(float(t) >= 0 for row in rows for t in row[5:7])


def test_imports_nothing_from_the_benchmark():
    tree = ast.parse(TOOL.read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(m.split(".")[0] == "perfbench" for m in modules), modules
