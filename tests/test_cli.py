import argparse
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from signed_extremal.cli import _write_report, run
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

    def test_parameter_the_family_does_not_take_exit_2(self, capsys):
        for argv, flag in ((["gst", "--s", "1", "--t", "4", "--n", "9"], "--n"),
                           (["unbal-c4", "--n", "3"], "--n"),
                           (["complete-pos", "--n", "3", "--s", "1"], "--s")):
            code, text = run_cli("construct", "--family", *argv)
            assert (code, text) == (2, "")
            assert capsys.readouterr().err == f"error: {argv[0]} does not take {flag}\n"

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        code, text = run_cli("construct", "--family", "unbal-c4", "--out", str(tmp_path))
        assert (code, text) == (2, "")
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")


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

    def test_unreadable_in_exit_2(self, tmp_path, capsys):
        code, text = run_cli("spectrum", "--in", str(tmp_path))
        assert (code, text) == (2, "")
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")


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

    def test_n_and_in_together_exit_2(self, tmp_path):
        path = tmp_path / "g.sg"
        write_graph(build_gst(1, 4), path)
        code, text = run_cli("bounds", "--n", "7", "--in", str(path))
        assert (code, text) == (2, "")


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

    @pytest.mark.parametrize("theorem", ["t1_2_edges", "t1_3"])
    @pytest.mark.parametrize("n", ["3", "9"])
    def test_search_verifier_names_the_theorem_out_of_range(self, theorem, n, capsys):
        code, text = run_cli("verify", "--theorem", theorem, "--n", n)
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            f"error: {theorem.upper()} verification supports 4 <= n <= 8\n")

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


# sha256 of the whole stdout of each argv, recorded while each command chose
# between table and CSV in a branch of its own; every argv exits 0. An --in
# argument names a graph of PINNED_GRAPHS, written to a file first.
PINNED_TEXT = {
    "bounds --in gst(1,4) --format table":
        "157fbab3a80ce7b4d90ec7941f71a4374b863106a4146b3f861cdce635f89e56",
    "bounds --in gst(1,4) --format csv":
        "ad1751364f79726d047d2da1bba3270a462377f8e8aa3b61720fb2b446e03aad",
    "bounds --in h3(2,3) --format table":
        "a5ac3ec8a6d402133c15edd68d539177ca1d4fe44ec989f892673195983ce5f2",
    "bounds --in h3(2,3) --format csv":
        "38cb9b43a525ce6a346b2382e2b3ecdca3d110a5d1ce09c7466e7df29cc656a2",
    "bounds --n 4 --format table":
        "873d3c8a819f5569dab6e9491aba1b076a0474e6c79c6ff8b7090d927389f4f7",
    "bounds --n 4 --format csv":
        "a9f32614e339c9bfa085ae1ad5a51efef04794be06a7c3cd1f05793e931196c8",
    "bounds --n 40 --format table":
        "d0aac3ec3a7746085d75507cdcbdfe534221ef5c15ef0eb6ff4a5624718189fe",
    "bounds --n 40 --format csv":
        "70381894987a51591010332d97f11f4e0028f5c58a995e575546b00aa5e5d42d",
    "bounds --n 7 --format table":
        "3a6254d2121bf01d0483fbf40f8e72951178085395dca5fa94200e7171a32a94",
    "bounds --n 7 --format csv":
        "999e70f260520b5c8aa751d7894f93791ebe36134ca68338127841ac9ab9d521",
    "check --seed 3 --instances 15 --format table":
        "ce412c7d1422763867d1bddec8c30c705e533769d4b3d92a9baa836efec6bf31",
    "check --seed 3 --instances 15 --format csv":
        "027b2acc33ce08350ba1b58b7f6f63b03eeb2c0da867af1f118c1e1d4d1595ac",
    "spectrum --in complete(5,-1) --format table":
        "6f5ad014ac954fbfd2d4da30d6542072c5da6115dde693f29849cf4b27bb61c5",
    "spectrum --in complete(5,-1) --format csv":
        "0467f7bda633e54654f82cb177cb29aac38c81ee8a7b92efdd42ce95850afdb3",
    "spectrum --in gst(1,4) --format table":
        "8b9534370f1c2cf97a72d974575aa7d61c5a96eeb9e7a3769f07ae47d1ff055a",
    "spectrum --in gst(1,4) --format csv":
        "76ee81f92f6c87b882ae5c6df9863b7579cd0e2c0bfaac6955b7dc4709351142",
    "spectrum --in one-vertex --format table":
        "c70e29358d399de6733030a9da56d5098b894b92d06e1103f92076070673ff3b",
    "spectrum --in one-vertex --format csv":
        "6e9f45fa502b0e82e965173fa48a0ed05aaf0ffbeaae23fb523d4921e8db23f5",
    "search --n 5 --objective max-edges --forbid c3-minus --format table":
        "5526a7fdf08833d2cd53989c5e090d101a228ee0f339c5d67199d3a5b4608022",
    "search --n 5 --objective max-edges --forbid c3-minus --format csv":
        "bbf781702eaee4922652ed5f1976d516b941ab8c46a1d4dbac25d61af2a0f126",
    "search --n 5 --objective max-rho --forbid c3-minus --format table":
        "1c9952bace1137f6298defd8e15d54f8f7fccf84dfe3db6bae7f98bead21ae3f",
    "search --n 5 --objective max-rho --forbid c3-minus --format csv":
        "f6b9ece9fe9cf0b944fe7178d058171d5ee7002212fdee8e23020c78437fd95d",
    "search --n 5 --objective max-neg-edges-at-max-edges --forbid c3-minus --format table":
        "b175d745dda0201bb791c855ad2086ff9e34bcf1fa35e7db1a97f62553df2b9b",
    "search --n 5 --objective max-neg-edges-at-max-edges --forbid c3-minus --format csv":
        "dd6a2a4a232767e63901a77979706eb675c05ce653d6734861e6b1f44ea0fae6",
    "verify --theorem t1_1 --n 6 --format table":
        "ca7771545540b182df9c88e3f830efdf1b67bafc326470ed098228e93503ad9b",
    "verify --theorem t1_1 --n 6 --format csv":
        "1222af4648594abab134641e2bc31760afc2ec50021d52d4d78567d1530090e9",
    "verify --theorem t1_2_edges --n 6 --format table":
        "a8e4a503f04277507d43b1865b00245a4a272a72b6951dc2fce0f9315b0a2bc7",
    "verify --theorem t1_2_edges --n 6 --format csv":
        "d6cc19d63151a673483a8d5149a7eb53408fe1482924b579d0e40455499bf40d",
    "verify --theorem t1_2_neg --n 6 --format table":
        "daca8ba6a78a5d6f36259f2697fafed24caf6ce6b47340c685257e3fd3d64d20",
    "verify --theorem t1_2_neg --n 6 --format csv":
        "a8b1cc6b40602e22e632fd8071be1d1e227e3631ff60f87079b08d1f961a8963",
    "verify --theorem t1_3 --n 6 --format table":
        "b0c308f2f723f3fa73f34aa3edd5832f19ab53ae160c80eee896b72a4844d75f",
    "verify --theorem t1_3 --n 6 --format csv":
        "0b0f93ec7eba9347190bd442658b874ce0d4a44e41a2313faea595a4e3044c95",
    "verify --theorem l2_2 --n 6 --format table":
        "adf9455f7c99563df5064a9a6c798b15a3a566164db5a6485a56f46b98a7af8a",
    "verify --theorem l2_2 --n 6 --format csv":
        "47d4720da6dbfe230698baad536f871d8a028402e1c0cebcdc71bf1d15a2bebd",
    "verify --theorem l3_6_order --n 6 --format table":
        "4863ac661a1f4c39ac081db5c51cef2f3560c0c4bd1b139719f28f52776c3536",
    "verify --theorem l3_6_order --n 6 --format csv":
        "0cf4de454632149f42df42194f1ea7a92886e1ef5e4046090edfa3476857539b",
}


@pytest.mark.parametrize("argv", sorted(PINNED_TEXT))
def test_table_and_csv_pinned(argv, tmp_path):
    args = argv.split()
    if "--in" in args:
        i = args.index("--in") + 1
        path = tmp_path / "g.sg"
        write_graph(PINNED_GRAPHS[args[i]](), path)
        args[i] = str(path)
    code, text = run_cli(*args)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TEXT[argv]


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

    def test_help_exit_0(self, capsys):
        code, text = run_cli("--help")
        assert code == 0 and text.startswith("usage: signed-extremal [-h]")
        code, text = run_cli("search", "--help")
        assert code == 0 and text.startswith("usage: signed-extremal search [-h] --n N")
        assert "--allow-balanced" in text
        # the help goes where the reports go, not to the process's stdout
        assert capsys.readouterr().out == ""

    def test_csv_fields(self):
        out = io.StringIO()
        _write_report(argparse.Namespace(format="csv"), out, lambda: "{}", "a,b,c,d,e,f",
                      [(None, True, False, 1.5, 7, "gst(1,2)")], ["table"])
        assert out.getvalue() == "a,b,c,d,e,f\n,true,false,1.5,7,gst(1,2)\n"

    def test_json_text_is_built_only_for_json(self, monkeypatch):
        # a table or CSV verify report never formats its witness as JSON text
        from signed_extremal.bounds import BoundReport

        def no_json(self):
            raise AssertionError("json built")

        monkeypatch.setattr(BoundReport, "to_json", no_json)
        for fmt in ("table", "csv"):
            code, text = run_cli("verify", "--theorem", "t1_2_neg", "--n", "40", "--format", fmt)
            assert code == 0 and "t1_2_neg" in text
        with pytest.raises(AssertionError, match="json built"):
            run_cli("verify", "--theorem", "t1_2_neg", "--n", "40", "--format", "json")

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
        # each level is reported once enumerated and before the class summary
        # is built; from a warm cache the same levels come again
        module = sys.modules[search.__module__]
        bitmaps, summary = module._class_level, module._class_summary
        for cache in (bitmaps, summary):
            cache.cache_clear()
        config = SearchConfig(n=6, objective="MAX_RHO")

        def levels_seen():
            seen = []
            search(config, progress=lambda level: seen.append(
                (level, bitmaps.cache_info().currsize, summary.cache_info().currsize)))
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
        # verifier, cold or warm, each before the class summary is built;
        # stdout is the report alone
        module = sys.modules[search.__module__]
        summary = module._class_summary
        for cache in (module._class_level, summary):
            cache.cache_clear()
        levels = [{"vertices": k, "classes": c}
                  for k, c in enumerate([1, 1, 2, 6, 21, 112], start=1)]
        built = 0
        for theorem in ("T1_2_EDGES", "T1_3", "T1_2_NEG"):
            seen = []
            rep = verify_theorem(theorem, 6, progress=lambda level: seen.append(
                (level, summary.cache_info().currsize)))
            # every verifier searches under C3_MINUS: the first builds the
            # one summary, after its progress
            assert seen == [(level, built) for level in levels]
            built = 1
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
