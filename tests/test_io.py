import numpy as np
import pytest

from signed_extremal.core import SignedGraph, new_signed_graph
from signed_extremal.families import build_gst, build_gst_maxneg, build_kn_switched_maxneg
from signed_extremal.graphio import (
    GraphFormatError,
    format_graph,
    parse_graph,
    read_graph,
    write_graph,
)

from _oracles import per_edge_format_graph, seeded_signed_graphs


class TestRoundTrip:
    def test_simple(self):
        g = new_signed_graph(3, [(0, 1, 1), (1, 2, -1)])
        assert parse_graph(format_graph(g)) == g

    def test_families(self):
        for g in (build_gst(1, 4), build_gst(3, 3), build_gst_maxneg(8)):
            assert parse_graph(format_graph(g)) == g

    def test_large_complete_graph(self):
        # 11,175 edge lines, each checked for a duplicate by one set lookup
        g = build_kn_switched_maxneg(150)
        assert g.edge_count == 11175
        assert parse_graph(format_graph(g)) == g

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "g.sg"
        g = build_gst(2, 3)
        write_graph(g, path)
        assert read_graph(path) == g
        assert path.read_text().endswith("\n")

    def test_format_shape(self):
        text = format_graph(new_signed_graph(3, [(0, 1, 1), (1, 2, -1)]))
        assert text == "3 2\n0 1 +1\n1 2 -1\n"


class TestFormatGraph:
    """format_graph and SignedGraph.edges against the per-edge oracle."""

    @pytest.mark.parametrize("n", range(1, 31))
    def test_matches_the_per_edge_text(self, n):
        complete = np.ones((n, n), dtype=np.int8) - np.eye(n, dtype=np.int8)
        graphs = [*seeded_signed_graphs(100 + n, n, 5),
                  SignedGraph(np.zeros((n, n), dtype=np.int8)), SignedGraph(-complete)]
        for g in graphs:
            text = format_graph(g)
            assert text == per_edge_format_graph(g)
            assert text.split("\n")[1:-1] == [
                f"{u} {v} {'+1' if s == 1 else '-1'}" for u, v, s in g.edges()]
            assert all(type(x) is int for edge in g.edges() for x in edge)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,line",
        [
            ("", 1),
            ("3\n", 1),
            ("a b\n", 1),
            ("0 0\n", 1),
            ("3 -1\n", 1),
            ("3 1\n0 1\n", 2),
            ("3 1\n0 1 x\n", 2),
            ("3 1\n0 1 2\n", 2),
            ("3 1\n0 3 +1\n", 2),
            ("3 1\n1 1 +1\n", 2),
            ("3 2\n0 1 +1\n1 0 -1\n", 3),
            ("3 2\n0 1 +1\n", 2),
        ],
    )
    def test_line_numbered_messages(self, text, line):
        with pytest.raises(GraphFormatError, match=f"line {line}"):
            parse_graph(text)

    @pytest.mark.parametrize("text,line", [
        ("1_0 0\n", 1),
        ("3 1\n0 2 +0_1\n", 2),
        ("3 1\n0 \uff12 +1\n", 2),
    ], ids=["underscore-in-header", "underscore-in-sign", "full-width-digit"])
    def test_only_ascii_integer_tokens(self, text, line):
        # int() reads these as 10, +1 and 2
        with pytest.raises(GraphFormatError, match=f"line {line}: .* must be .*integers"):
            parse_graph(text)

    @pytest.mark.parametrize("text,line", [
        ("2 1\r0 1 +1", 1),
        ("2 1\u20280 1 +1\n", 1),
        ("2 1\n0\xa01 +1\n", 2),
        ("2 1\r\n0 1 +1\r\n", 1),
        ("2 1\n0 1 +1\x0c\n", 2),
    ], ids=["cr", "line-separator", "no-break-space", "crlf", "form-feed"])
    def test_lf_lines_and_ascii_blanks_only(self, text, line):
        # str.splitlines and str.split would read each as a one-edge graph
        with pytest.raises(GraphFormatError, match=f"line {line}: "):
            parse_graph(text)

    def test_tabs_and_runs_of_spaces_separate(self):
        assert parse_graph("2  1\t\n\t0 1\t\t-1 \n").adj[0, 1] == -1

    def test_files_follow_the_string_rule(self, tmp_path):
        # read_graph does not translate line endings, so a CRLF file fails
        # where the same bytes as a string do
        path = tmp_path / "g.sg"
        path.write_bytes(b"2 1\r\n0 1 +1\r\n")
        with pytest.raises(GraphFormatError, match="line 1: "):
            read_graph(path)
        path.write_bytes(b"2 1\n0 1 +1\n")
        assert read_graph(path).edge_count == 1

    def test_blank_lines_tolerated(self):
        g = parse_graph("2 1\n\n0 1 +1\n\n")
        assert g.edge_count == 1

    def test_plain_one_accepted_as_positive(self):
        assert parse_graph("2 1\n0 1 1\n").adj[0, 1] == 1
