"""Deterministic numeric/JSON rendering shared by reports and the CLI."""

from __future__ import annotations

import json

__all__ = ["fmt_float", "json_scalar", "json_text"]


def fmt_float(x: float) -> str:
    """Fixed 15-significant-digit decimal rendering."""
    return f"{x:.15g}"


def json_scalar(x) -> str:
    """Render one JSON scalar; floats at 15 significant digits."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, float):
        return fmt_float(x)
    if isinstance(x, int):
        return str(x)
    return json.dumps(x)


def json_text(value) -> str:
    """The one JSON writer of reports and the CLI: compact JSON of nested dicts
    (string keys, in insertion order), lists and tuples. A value with a
    to_json method renders itself; every other value goes to json_scalar."""
    if isinstance(value, dict):
        return "{" + ",".join(f"{json_scalar(k)}:{json_text(v)}"
                              for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(json_text(v) for v in value) + "]"
    if hasattr(value, "to_json"):
        return value.to_json()
    return json_scalar(value)
