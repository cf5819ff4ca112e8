import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from signed_extremal.cli import run
from signed_extremal.core import canonical_switch, new_signed_graph
from signed_extremal.families import build_complete, build_gst, build_h
from signed_extremal.graphio import format_graph, parse_graph, write_graph
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

    def test_negative_seed_exit_2_naming_seed(self, capsys):
        code, text = run_cli("check", "--seed", "-1", "--format", "json")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: seed must be a non-negative int, got -1\n"

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


# sha256 of the stdout of `<argv> --format json`, less its final newline,
# recorded while each command still framed its JSON by hand. An --in argument
# names a graph of PINNED_GRAPHS, written to a file first.
PINNED_JSON = {
    "spectrum --in gst(1,4)":
        "ec22c45447dd620d1c778cc6fd4e640264cdb6fa1b82c59fcd9245796474813b",
    "spectrum --in complete(5,-1)":
        "0bb7232c2448d47f9756e8b63ec43c8a426db4c90df3682496d520b9ad6b9349",
    "spectrum --in one-vertex":
        "599a238de58913dca46c3949ffc5eb6e1e0bcf562ed9856f9ebb3b6e080adab8",
    "bounds --n 4":
        "dd215b44ee30c98496aa5cc18f868c55834a0949e61f527d6b5d9783ce73f43b",
    "bounds --n 7":
        "7dc8bf3cca225c8030c562a7d01c9687af0352cfaa1c2315964e79e9a439d925",
    "bounds --n 40":
        "2b60e2712e61daa4fd6ce18a0b054097214815933196c4ea04f4bfdf80acea75",
    "bounds --in gst(1,4)":
        "6211b94121ad5c3df15483f6e16fefca00a075d9e6070b4ef888fe2cb9095b39",
    "bounds --in h3(2,3)":
        "18a21ef44098b9961a0b388a89ae7cd8292ed774caa0c8789ccf648703bef196",
    "check --seed 3 --instances 15":
        "5386534f3828d2f312b7521ffb94b2744ec82191bcdbe965f01429fd02bb7e74",
}
PINNED_GRAPHS = {
    "gst(1,4)": lambda: build_gst(1, 4),
    "complete(5,-1)": lambda: build_complete(5, -1),
    "one-vertex": lambda: new_signed_graph(1, []),
    "h3(2,3)": lambda: build_h("H3", 2, 3),
}


@pytest.mark.parametrize("argv", sorted(PINNED_JSON))
def test_json_pinned(argv, tmp_path):
    args = argv.split()
    if "--in" in args:
        i = args.index("--in") + 1
        path = tmp_path / "g.sg"
        write_graph(PINNED_GRAPHS[args[i]](), path)
        args[i] = str(path)
    code, text = run_cli(*args, "--format", "json")
    assert code == 0 and text.endswith("\n")
    assert hashlib.sha256(text[:-1].encode()).hexdigest() == PINNED_JSON[argv]


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
