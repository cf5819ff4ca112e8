import io
import json
import re
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from signed_extremal.cli import run
from signed_extremal.core import canonical_switch
from signed_extremal.families import build_gst
from signed_extremal.graphio import format_graph, parse_graph
from signed_extremal.search import SearchConfig, search, verify_theorem
from signed_extremal.spectral import eigenvalues, spectrum_to_json

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def run_cli(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def load_schema(name):
    return json.loads((SCHEMAS / name).read_text())


class TestConstruct:
    def test_writes_family_file(self, tmp_path):
        path = tmp_path / "g.sg"
        code, _ = run_cli("construct", "--family", "gst", "--s", "1", "--t", "4",
                          "--out", str(path))
        assert code == 0
        assert parse_graph(path.read_text()) == build_gst(1, 4)

    def test_stdout_default(self):
        code, text = run_cli("construct", "--family", "unbal-c4")
        assert code == 0
        assert text == format_graph(build_gst(1, 1))

    def test_missing_parameters_exit_2(self):
        code, _ = run_cli("construct", "--family", "gst")
        assert code == 2

    def test_unknown_family_exit_2(self):
        code, _ = run_cli("construct", "--family", "petersen")
        assert code == 2


class TestSpectrum:
    def test_round_trip_matches_in_memory_exactly(self, tmp_path):
        path = tmp_path / "g.sg"
        run_cli("construct", "--family", "gst", "--s", "1", "--t", "4",
                "--out", str(path))
        code, text = run_cli("spectrum", "--in", str(path), "--format", "json")
        assert code == 0
        assert text.strip() == spectrum_to_json(eigenvalues(build_gst(1, 4)))

    def test_json_validates(self, tmp_path):
        path = tmp_path / "g.sg"
        run_cli("construct", "--family", "gst-maxneg", "--n", "6", "--out", str(path))
        _, text = run_cli("spectrum", "--in", str(path), "--format", "json")
        jsonschema.validate(json.loads(text), load_schema("spectrum.schema.json"))

    def test_csv_columns(self, tmp_path):
        path = tmp_path / "g.sg"
        run_cli("construct", "--family", "unbal-c4", "--out", str(path))
        _, text = run_cli("spectrum", "--in", str(path), "--format", "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 5

    def test_missing_file_exit_2(self):
        code, _ = run_cli("spectrum", "--in", "/nonexistent.sg")
        assert code == 2

    def test_malformed_file_exit_2(self, tmp_path):
        path = tmp_path / "bad.sg"
        path.write_text("3 1\n0 9 +1\n")
        code, _ = run_cli("spectrum", "--in", str(path))
        assert code == 2


class TestCanonical:
    def test_canonicalizes(self, tmp_path):
        src = tmp_path / "in.sg"
        src.write_text("3 2\n0 1 -1\n1 2 -1\n")
        code, text = run_cli("canonical", "--in", str(src))
        assert code == 0
        g = parse_graph(src.read_text())
        assert parse_graph(text) == canonical_switch(g)


class TestCheck:
    def test_passes_and_validates(self):
        code, text = run_cli("check", "--seed", "7", "--instances", "20",
                             "--format", "json")
        assert code == 0
        data = json.loads(text)
        jsonschema.validate(data, load_schema("check_report.schema.json"))
        assert all(s["passed"] for s in data["suites"])

    def test_seed_reproducibility(self):
        a = run_cli("check", "--seed", "3", "--instances", "15", "--format", "json")
        b = run_cli("check", "--seed", "3", "--instances", "15", "--format", "json")
        assert a == b

    def test_negative_instances_exit_2(self):
        code, text = run_cli("check", "--instances", "-5", "--format", "json")
        assert (code, text) == (2, "")

    def test_zero_instances_validate(self):
        code, text = run_cli("check", "--instances", "0", "--format", "json")
        assert code == 0
        jsonschema.validate(json.loads(text), load_schema("check_report.schema.json"))

    def test_csv_shape(self):
        code, text = run_cli("check", "--seed", "1", "--instances", "5",
                             "--format", "csv")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "suite,instances,violations,passed"
        assert len(lines) == 7


class TestBounds:
    def test_closed_form_table(self):
        code, text = run_cli("bounds", "--n", "7")
        assert code == 0
        assert "edge_bound(7) = 16" in text
        assert "neg_edge_bound(7) = 11" in text

    def test_graph_comparison_satisfied(self, tmp_path):
        path = tmp_path / "g.sg"
        run_cli("construct", "--family", "gst", "--s", "1", "--t", "3",
                "--out", str(path))
        code, text = run_cli("bounds", "--in", str(path), "--format", "json")
        assert code == 0
        data = json.loads(text)
        for rep in data:
            jsonschema.validate(rep, load_schema("bound_report.schema.json"))

    def test_violating_graph_exits_1(self, tmp_path):
        # the all-positive complete graph is balanced, so the unbalanced edge
        # bound does not apply to it and is exceeded
        path = tmp_path / "k7.sg"
        run_cli("construct", "--family", "complete-pos", "--n", "7",
                "--out", str(path))
        code, _ = run_cli("bounds", "--in", str(path))
        assert code == 1

    def test_needs_argument(self):
        code, _ = run_cli("bounds")
        assert code == 2


class TestSearch:
    def test_json_validates_and_reproduces(self):
        code, a = run_cli("search", "--n", "5", "--objective", "max-rho",
                          "--forbid", "c3-minus", "--format", "json")
        assert code == 0
        data = json.loads(a)
        jsonschema.validate(data, load_schema("search_report.schema.json"))
        assert data["matched_family"] == ["gst(1,2)"]
        _, b = run_cli("search", "--n", "5", "--objective", "max-rho",
                       "--forbid", "c3-minus", "--format", "json")
        assert a == b

    def test_csv(self):
        code, text = run_cli("search", "--n", "5", "--format", "csv")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "witness,optimum,edges,neg_edges,matched_family"
        # the canonical class representative pins tree edges +1, so its own
        # negative edge count is a class-dependent constant
        assert lines[1] == "1,7,7,2,gst(1,2)"

    def test_bad_objective_exit_2(self):
        code, _ = run_cli("search", "--n", "5", "--objective", "min-rho")
        assert code == 2

    def test_out_of_range_exit_2(self):
        code, _ = run_cli("search", "--n", "12")
        assert code == 2


class TestVerify:
    def test_pass_exit_0(self):
        code, text = run_cli("verify", "--theorem", "t1_3", "--n", "6",
                             "--format", "json")
        assert code == 0
        data = json.loads(text)
        jsonschema.validate(data, load_schema("bound_report.schema.json"))
        assert data["passed"] is True
        assert abs(data["observed"] - 3.645751311064591) < 1e-9

    def test_kebab_theorem_name(self):
        code, _ = run_cli("verify", "--theorem", "l3-6-order", "--n", "8")
        assert code == 0

    def test_unknown_theorem_exit_2(self):
        code, _ = run_cli("verify", "--theorem", "t7_7", "--n", "5")
        assert code == 2

    def test_table_verdict(self):
        code, text = run_cli("verify", "--theorem", "t1_2_edges", "--n", "5")
        assert code == 0
        assert text.startswith("PASS t1_2_edges n=5")


class TestUsage:
    def test_no_command(self):
        code, _ = run_cli()
        assert code == 2

    def test_unknown_flag(self):
        code, _ = run_cli("bounds", "--n", "7", "--frobnicate")
        assert code == 2
        # search and verify take no --workers or --checkpoint flag
        for extra in (["--workers", "2"], ["--checkpoint", "x"]):
            code, text = run_cli("search", "--n", "5", *extra)
            assert code == 2 and text == ""
        code, _ = run_cli("verify", "--theorem", "t1_3", "--n", "5", "--workers", "2")
        assert code == 2

    def test_help_exit_0(self):
        code, _ = run_cli("--help")
        assert code == 0

    def test_internal_numeric_failure_exit_3(self, monkeypatch):
        from signed_extremal import cli
        from signed_extremal.spectral import SpectralError

        def boom(*args, **kwargs):
            raise SpectralError("synthetic failure")

        monkeypatch.setattr(cli, "verify_theorem", boom)
        code, _ = run_cli("verify", "--theorem", "t1_3", "--n", "5")
        assert code == 3

    def test_progress_per_enumeration_level(self, capsys):
        # connected graphs on 1..6 vertices (OEIS A001349): from a cold cache
        # each level is reported once enumerated and before the class table is
        # built; from a warm cache the same levels come again
        module = sys.modules[search.__module__]
        bitmaps, table = module._connected_class_bitmaps, module._class_table
        for cache in (bitmaps, table, module._class_span):
            cache.cache_clear()
        config = SearchConfig(n=6, objective="MAX_RHO")

        def levels_seen():
            seen = []
            search(config, progress=lambda level: seen.append(
                (level, bitmaps.cache_info().currsize, table.cache_info().currsize)))
            return seen

        counts = list(enumerate([1, 1, 2, 6, 21, 112], start=1))
        assert levels_seen() == [({"vertices": k, "classes": c}, k, 0) for k, c in counts]
        assert levels_seen() == [({"vertices": k, "classes": c}, 6, 1) for k, c in counts]
        rep = search(config)
        capsys.readouterr()
        code, text = run_cli("search", "--n", "6", "--objective", "max-rho",
                             "--format", "json")
        assert code == 0 and text == rep.to_json() + "\n"
        lines = capsys.readouterr().err.splitlines()
        assert [re.fullmatch(r"progress: (\d+) classes on (\d+) vertices "
                             r"\(\d+\.\d{3}s\)", line).groups() for line in lines[:6]] == [
            ("1", "1"), ("1", "2"), ("2", "3"), ("6", "4"), ("21", "5"), ("112", "6")]
        assert lines[6].startswith("wall_time: ")

    def test_verify_progress_per_enumeration_level(self, capsys):
        # connected graphs on 1..6 vertices (OEIS A001349), once per level and
        # verifier, cold or warm; stdout is the report alone
        module = sys.modules[search.__module__]
        for cache in (module._connected_class_bitmaps, module._class_table,
                      module._class_span):
            cache.cache_clear()
        levels = [{"vertices": k, "classes": c}
                  for k, c in enumerate([1, 1, 2, 6, 21, 112], start=1)]
        for theorem in ("T1_2_EDGES", "T1_3", "T1_2_NEG"):
            seen = []
            rep = verify_theorem(theorem, 6, progress=seen.append)
            assert seen == levels
            assert rep.to_json() == verify_theorem(theorem, 6).to_json()
            capsys.readouterr()
            code, text = run_cli("verify", "--theorem", theorem.lower(), "--n", "6",
                                 "--format", "json")
            assert code == 0 and text == rep.to_json() + "\n"
            lines = capsys.readouterr().err.splitlines()
            assert [re.fullmatch(r"progress: (\d+) classes on (\d+) vertices "
                                 r"\(\d+\.\d{3}s\)", line).groups() for line in lines] == [
                ("1", "1"), ("1", "2"), ("2", "3"), ("6", "4"), ("21", "5"), ("112", "6")]
        # the other verifiers enumerate nothing and stay silent
        seen = []
        verify_theorem("T1_1", 6, progress=seen.append)
        assert seen == []
