"""Command-line front end.

Subcommands: construct, spectrum, check, canonical, bounds, search, verify.
Exit codes: 0 success/PASS, 1 verification FAIL, 2 usage error, 3 internal
numeric failure. Reports on stdout are byte-for-byte reproducible for
identical flags and seed; timing and progress go to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time

from ._render import fmt_float, json_scalar, json_text
from .bounds import (
    clique_spectral_bound,
    edge_bound,
    make_bound_report,
    neg_edge_bound,
    rho_bound,
)
from .core import canonical_switch
from .families import FAMILY_NAMES, build_family
from .graphio import GraphFormatError, format_graph, read_graph, write_graph
from .properties import run_all_suites
from .search import (
    FORBIDDEN,
    OBJECTIVES,
    THEOREMS,
    SearchConfig,
    search,
    verify_theorem,
)
from .spectral import (
    BracketError,
    SpectralError,
    eigenvalues,
    spectrum_to_json,
)

__all__ = ["run", "main"]

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signed-extremal",
        description="Signed-graph spectral/extremal toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named family and emit graph text")
    p.add_argument("--family", required=True,
                   help="one of: " + ", ".join(FAMILY_NAMES))
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("spectrum", help="eigenvalues of a graph file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")

    p = sub.add_parser("canonical", help="canonical switching representative")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("check", help="seeded randomized property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")

    p = sub.add_parser("bounds", help="closed-form bounds, optionally against a graph")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")

    p = sub.add_parser("search", help="exhaustive extremal search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--objective", default="max-edges",
                   help="max-edges | max-rho | max-neg-edges-at-max-edges")
    p.add_argument("--forbid", default="c3-minus", help="c3-minus | c3-plus | none")
    p.add_argument("--allow-balanced", action="store_true",
                   help="include balanced signed graphs")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")

    p = sub.add_parser("verify", help="verify a named theorem or lemma at order n")
    p.add_argument("--theorem", required=True,
                   help="one of: " + ", ".join(t.lower() for t in THEOREMS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")

    return parser


def _enum_value(raw: str, allowed, what: str) -> str:
    key = raw.upper().replace("-", "_")
    if key not in allowed:
        raise ValueError(f"unknown {what} {raw!r}")
    return key


def _emit(text: str, out):
    print(text, file=out)


def _write_graph_out(g, args, out) -> int:
    """Write g to --out if given, else to out."""
    if args.out:
        write_graph(g, args.out)
    else:
        out.write(format_graph(g))
    return 0


def _cmd_construct(args, out) -> int:
    return _write_graph_out(build_family(args.family, s=args.s, t=args.t, n=args.n), args, out)


def _cmd_spectrum(args, out) -> int:
    g = read_graph(args.infile)
    sp = eigenvalues(g)
    if args.format == "json":
        _emit(spectrum_to_json(sp), out)
    elif args.format == "csv":
        _emit("index,eigenvalue", out)
        for i, v in enumerate(sp.eigenvalues, start=1):
            _emit(f"{i},{fmt_float(v)}", out)
    else:
        _emit(f"n {g.n}  e {g.edge_count}  e_neg {g.neg_edge_count}", out)
        for i, v in enumerate(sp.eigenvalues, start=1):
            _emit(f"lambda_{i} {fmt_float(v)}", out)
        _emit(f"rho {fmt_float(sp.rho)}", out)
        _emit(f"tol {fmt_float(sp.tol)}", out)
    return 0


def _cmd_canonical(args, out) -> int:
    return _write_graph_out(canonical_switch(read_graph(args.infile)), args, out)


def _cmd_check(args, out) -> int:
    results = run_all_suites(args.seed, args.instances)
    if args.format == "json":
        suites = [{"suite": r.name, "instances": r.instances,
                   "violations": r.violations, "passed": r.passed} for r in results]
        _emit(json_text({"seed": args.seed, "suites": suites}), out)
    elif args.format == "csv":
        _emit("suite,instances,violations,passed", out)
        for r in results:
            _emit(f"{r.name},{r.instances},{r.violations},{str(r.passed).lower()}", out)
    else:
        for r in results:
            verdict = "PASS" if r.passed else "FAIL"
            _emit(f"{verdict} {r.name}: {r.instances} instances, "
                  f"{r.violations} violations", out)
        for r in results:
            for line in r.log[:-1]:
                print(line, file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


def _bound_rows(args):
    if args.infile is None and args.n is None:
        raise ValueError("bounds needs --n or --in")
    if args.infile is None:
        n = args.n
        return n, None, {"edge_bound": edge_bound(n), "neg_edge_bound": neg_edge_bound(n),
                         "rho_bound": rho_bound(n)}
    g = read_graph(args.infile)
    n = g.n
    reports = [
        make_bound_report("edge_bound", n, edge_bound(n), g.edge_count),
        make_bound_report("rho_bound", n, rho_bound(n), eigenvalues(g).rho,
                          spectral=True),
        clique_spectral_bound(g),
    ]
    return n, reports, None


def _cmd_bounds(args, out) -> int:
    n, reports, plain = _bound_rows(args)
    if reports is None:
        if args.format == "json":
            _emit(json_text({"n": n, **plain}), out)
        elif args.format == "csv":
            _emit("bound_name,n,bound_value", out)
            for k, v in plain.items():
                _emit(f"{k},{n},{json_scalar(v)}", out)
        else:
            for k, v in plain.items():
                _emit(f"{k}({n}) = {json_scalar(v)}", out)
        return 0
    if args.format == "json":
        _emit(json_text(reports), out)
    elif args.format == "csv":
        _emit("bound_name,n,bound_value,observed,satisfied", out)
        for r in reports:
            _emit(f"{r.bound_name},{r.n},{json_scalar(r.bound_value)},"
                  f"{json_scalar(r.observed)},{str(r.satisfied).lower()}", out)
    else:
        for r in reports:
            verdict = "ok" if r.satisfied else "VIOLATED"
            _emit(f"{r.bound_name}: observed {json_scalar(r.observed)} vs "
                  f"bound {json_scalar(r.bound_value)} [{verdict}]", out)
    return 0 if all(r.satisfied for r in reports) else 1


def _make_progress():
    t0 = time.perf_counter()

    def progress(level):
        print(f"progress: {level['classes']} classes on {level['vertices']} vertices "
              f"({time.perf_counter() - t0:.3f}s)", file=sys.stderr)

    return progress


def _cmd_search(args, out) -> int:
    config = SearchConfig(
        n=args.n,
        objective=_enum_value(args.objective, OBJECTIVES, "objective"),
        forbidden=_enum_value(args.forbid, FORBIDDEN, "forbidden triangle"),
        require_unbalanced=not args.allow_balanced,
    )
    rep = search(config, progress=_make_progress())
    print(f"wall_time: {rep.wall_time:.3f}s", file=sys.stderr)
    if args.format == "json":
        _emit(rep.to_json(), out)
    elif args.format == "csv":
        _emit("witness,optimum,edges,neg_edges,matched_family", out)
        for i, (w, fam) in enumerate(zip(rep.witnesses, rep.matched_family), start=1):
            _emit(f"{i},{json_scalar(rep.optimum)},{w.edge_count},"
                  f"{w.neg_edge_count},{fam if fam else ''}", out)
    else:
        _emit(f"optimum {json_scalar(rep.optimum)}", out)
        _emit(f"witness classes {len(rep.witnesses)}", out)
        for w, fam in zip(rep.witnesses, rep.matched_family):
            label = fam if fam else "unmatched"
            _emit(f"- {label}: e={w.edge_count} e_neg={w.neg_edge_count}", out)
        c = rep.counts
        _emit(f"scanned {c['underlying_scanned']} underlying classes, "
              f"{c['signatures_scanned']} signatures, {c['feasible']} feasible", out)
    return 0


def _cmd_verify(args, out) -> int:
    rep = verify_theorem(args.theorem, args.n, progress=_make_progress())
    if args.format == "json":
        _emit(rep.to_json(), out)
    elif args.format == "csv":
        _emit("bound_name,n,bound_value,observed,satisfied,passed", out)
        _emit(f"{rep.bound_name},{rep.n},{json_scalar(rep.bound_value)},"
              f"{json_scalar(rep.observed)},{str(rep.satisfied).lower()},"
              f"{str(bool(rep.passed)).lower()}", out)
    else:
        verdict = "PASS" if rep.passed else "FAIL"
        _emit(f"{verdict} {rep.bound_name} n={rep.n}: observed "
              f"{json_scalar(rep.observed)} vs bound {json_scalar(rep.bound_value)}",
              out)
        if rep.notes:
            _emit(rep.notes, out)
    return 0 if rep.passed else 1


def run(argv, out=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    dispatch = {
        "construct": _cmd_construct,
        "spectrum": _cmd_spectrum,
        "canonical": _cmd_canonical,
        "check": _cmd_check,
        "bounds": _cmd_bounds,
        "search": _cmd_search,
        "verify": _cmd_verify,
    }
    try:
        return dispatch[args.command](args, out)
    except (GraphFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SpectralError, BracketError, RuntimeError) as exc:
        print(f"internal numeric failure: {exc}", file=sys.stderr)
        return 3


def main():  # console entry point
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
