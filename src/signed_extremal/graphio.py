"""Text format for signed graphs.

One graph per file or string: a header line ``n m`` followed by m edge lines
``u v s`` with 0-indexed vertices and s in {+1,-1}, whitespace separated,
LF line endings. Violations raise GraphFormatError with the line number.
"""

from __future__ import annotations

from .core import SignedGraph, new_signed_graph

__all__ = ["GraphFormatError", "parse_graph", "format_graph", "read_graph", "write_graph"]


class GraphFormatError(ValueError):
    """Malformed graph text; message carries the offending line number."""


def _fail(lineno: int, msg: str):
    raise GraphFormatError(f"line {lineno}: {msg}")


def parse_graph(text: str) -> SignedGraph:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        _fail(1, "missing header 'n m'")
    head = lines[0].split()
    if len(head) != 2:
        _fail(1, f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        _fail(1, f"header must be two integers, got {lines[0]!r}")
    if n < 1:
        _fail(1, f"vertex count must be positive, got {n}")
    if m < 0:
        _fail(1, f"edge count must be nonnegative, got {m}")
    edges = []
    seen = set()
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 3:
            _fail(lineno, f"edge line must be 'u v s', got {raw!r}")
        try:
            u, v, s = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            _fail(lineno, f"edge line must be three integers, got {raw!r}")
        if s not in (-1, 1):
            _fail(lineno, f"sign must be +1 or -1, got {parts[2]}")
        if not (0 <= u < n and 0 <= v < n):
            _fail(lineno, f"vertex out of range 0..{n - 1}")
        if u == v:
            _fail(lineno, "loops are not allowed")
        key = (min(u, v), max(u, v))
        if key in seen:
            _fail(lineno, f"duplicate edge ({u},{v})")
        seen.add(key)
        edges.append((u, v, s))
    if len(edges) != m:
        _fail(lineno, f"header announced {m} edges, found {len(edges)}")
    return new_signed_graph(n, edges)


def format_graph(g: SignedGraph) -> str:
    rows = [f"{g.n} {g.edge_count}"]
    for u, v, s in g.edges():
        rows.append(f"{u} {v} {'+1' if s == 1 else '-1'}")
    return "\n".join(rows) + "\n"


def read_graph(path) -> SignedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_graph(g: SignedGraph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_graph(g))
