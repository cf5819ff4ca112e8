"""Every src module stays under the token count past which compiling it from
source raises a process's peak RSS, counted by tools/src_size.py."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# compiling search.py from source peaked about 0.48 MB higher once it passed
# about 8,150 tokens, and every benchmark worker compiles src from source
COMPILE_PEAK_TOKENS = 8150


def line_counts(data: bytes):
    spec = importlib.util.spec_from_file_location("src_size", ROOT / "tools" / "src_size.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.line_counts(data)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "signed_extremal").glob("*.py")),
                         ids=lambda path: path.name)
def test_module_under_the_compile_peak_line(path):
    tokens = line_counts(path.read_bytes())[2]
    assert 0 < tokens < COMPILE_PEAK_TOKENS, f"{path.name}: {tokens} tokens"
