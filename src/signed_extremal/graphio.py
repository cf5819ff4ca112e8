"""Text format for signed graphs.

One graph per file or string: a header line ``n m`` followed by m edge lines
``u v s`` with 0-indexed vertices and s in {+1,-1}. Lines end at LF alone and
tokens are separated by ASCII spaces and tabs alone, in strings and files
alike, so a CR, U+2028 or a no-break space is part of a token. Violations
raise GraphFormatError with the line number.
"""

from __future__ import annotations

import re

import numpy as np

from .core import SignedGraph, new_signed_graph

__all__ = ["GraphFormatError", "parse_graph", "format_graph", "read_graph", "write_graph"]


class GraphFormatError(ValueError):
    """Malformed graph text; message carries the offending line number."""


def _fail(lineno: int, msg: str):
    raise GraphFormatError(f"line {lineno}: {msg}")


def _ints(tokens) -> tuple[int, ...] | None:
    """The tokens as ints if each is an ASCII [+-]?[0-9]+, the one form a
    number takes, else None: int() also takes underscores and other digits."""
    ok = all(re.fullmatch(r"[+-]?[0-9]+", t) for t in tokens)
    return tuple(map(int, tokens)) if ok else None


def _tokens(line: str) -> list[str]:
    """The tokens of one line: the runs between ASCII spaces and tabs."""
    return [t for t in line.replace("\t", " ").split(" ") if t]


def parse_graph(text: str) -> SignedGraph:
    lines = text.removesuffix("\n").split("\n")
    head = _tokens(lines[0])
    if not head:
        _fail(1, "missing header 'n m'")
    if len(head) != 2:
        _fail(1, f"header must be 'n m', got {lines[0]!r}")
    counts = _ints(head)
    if counts is None:
        _fail(1, f"header must be two integers, got {lines[0]!r}")
    n, m = counts
    if m < 0:
        _fail(1, f"edge count must be nonnegative, got {m}")
    lineno = 1  # the last line read

    def edges():
        nonlocal lineno
        for lineno, raw in enumerate(lines[1:], 2):
            parts = _tokens(raw)
            if not parts:
                continue
            if len(parts) != 3:
                _fail(lineno, f"edge line must be 'u v s', got {raw!r}")
            edge = _ints(parts)
            if edge is None:
                _fail(lineno, f"edge line must be three integers, got {raw!r}")
            yield edge

    try:
        g = new_signed_graph(n, edges())
    except GraphFormatError:
        raise
    except ValueError as exc:  # the vertex count and the edge rules
        _fail(lineno, str(exc))
    if g.edge_count != m:
        _fail(lineno, f"header announced {m} edges, found {g.edge_count}")
    return g


def format_graph(g: SignedGraph) -> str:
    upper = np.triu(g.adj)
    iu, ju = np.nonzero(upper)
    # " v +1" and " v -1" of vertex v at 2v and 2v + 1; one join per row u
    tails = [f" {v} {s}" for v in range(g.n) for s in ("+1", "-1")]
    picks = list(map(tails.__getitem__, (2 * ju + (upper[iu, ju] < 0)).tolist()))
    ends = np.cumsum(np.bincount(iu, minlength=g.n)).tolist()
    lines = [f"{u}" + f"\n{u}".join(picks[start:end])
             for u, (start, end) in enumerate(zip([0] + ends, ends)) if end > start]
    return "\n".join([f"{g.n} {len(picks)}"] + lines) + "\n"


def read_graph(path) -> SignedGraph:
    # newline="" keeps the line endings as they are, as parse_graph sees a string
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_graph(fh.read())


def write_graph(g: SignedGraph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_graph(g))
