"""Print wc -l, the code lines and the tokens of each src/signed_extremal/*.py
and in total. Code lines hold a token other than a comment or a docstring (a
string that is a statement of its own); tokens are the tokenize tokens other
than COMMENT and NL, docstrings included, the count that the size of a
module's compiled code follows. Run from the repository root:
python tools/src_size.py"""
import io
import pathlib
import tokenize as tk

LAYOUT = {tk.COMMENT, tk.NL, tk.NEWLINE, tk.INDENT, tk.DEDENT, tk.ENCODING, tk.ENDMARKER}


def line_counts(data: bytes) -> tuple[int, int, int]:
    toks = [t for t in tk.tokenize(io.BytesIO(data).readline) if t.type not in (tk.COMMENT, tk.NL)]
    code = set()
    for prev, tok, nxt in zip([None] + toks, toks, toks[1:] + [None]):
        starts = prev is None or prev.type in (tk.NEWLINE, tk.INDENT, tk.DEDENT, tk.ENCODING)
        if tok.type not in LAYOUT and not (tok.type == tk.STRING and starts and nxt.type == tk.NEWLINE):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return data.count(b"\n"), len(code), len(toks)


if __name__ == "__main__":
    rows = [(p, *line_counts(p.read_bytes())) for p in sorted(pathlib.Path("src/signed_extremal").glob("*.py"))]
    totals = (sum(r[i] for r in rows) for i in (1, 2, 3))
    rows.append(("total (wc -l, code lines, tokens)", *totals))
    for path, lines, code, tokens in rows:
        print(f"{lines:6d} {code:6d} {tokens:7d}  {path}")
