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
from .graphio import format_graph, read_graph, write_graph
from .properties import run_all_suites
from .search import (
    FORBIDDEN,
    OBJECTIVES,
    THEOREMS,
    SearchConfig,
    search,
    verify_theorem,
)
from .spectral import eigenvalues, spectrum_to_json

__all__ = ["run", "main"]


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that prints its help and usage to `out`, where run
    prints the reports; usage errors stay on stderr."""

    out = None

    def _print_message(self, message, file=None):
        super()._print_message(message, self.out if file is sys.stdout else file)


def _build_parser(out) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="signed-extremal",
        description="Signed-graph spectral/extremal toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named family and emit graph text")
    p.set_defaults(func=_cmd_construct)
    p.add_argument("--family", required=True,
                   help="one of: " + ", ".join(FAMILY_NAMES))
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("spectrum", help="eigenvalues of a graph file")
    p.set_defaults(func=_cmd_spectrum)
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("canonical", help="canonical switching representative")
    p.set_defaults(func=_cmd_canonical)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("check", help="seeded randomized property suites")
    p.set_defaults(func=_cmd_check)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=200)

    p = sub.add_parser("bounds", help="closed-form bounds, optionally against a graph")
    p.set_defaults(func=_cmd_bounds)
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--n", type=int)
    given.add_argument("--in", dest="infile")

    p = sub.add_parser("search", help="exhaustive extremal search")
    p.set_defaults(func=_cmd_search)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--objective", default="max-edges",
                   help="max-edges | max-rho | max-neg-edges-at-max-edges")
    p.add_argument("--forbid", default="c3-minus", help="c3-minus | c3-plus | none")
    p.add_argument("--allow-balanced", action="store_true",
                   help="include balanced signed graphs")

    p = sub.add_parser("verify", help="verify a named theorem or lemma at order n")
    p.set_defaults(func=_cmd_verify)
    p.add_argument("--theorem", required=True,
                   help="one of: " + ", ".join(t.lower() for t in THEOREMS))
    p.add_argument("--n", type=int, required=True)

    # added last, so each command's usage and help keep their order
    for name in ("spectrum", "check", "bounds", "search", "verify"):
        sub.choices[name].add_argument("--format", choices=("table", "json", "csv"),
                                       default="table")
    for p in (parser, *sub.choices.values()):
        p.out = out
    return parser


def _enum_value(raw: str, allowed, what: str) -> str:
    key = raw.upper().replace("-", "_")
    if key not in allowed:
        raise ValueError(f"unknown {what} {raw!r}")
    return key


def _write_report(args, out, to_json, header: str, rows, lines, log=()) -> None:
    """Print a report in args.format: the JSON text that to_json() returns, the
    CSV header and rows, or the table lines (and then the log lines on stderr).
    The JSON is only built when printed: a verify report at n = 1000 holds a
    witness of 499,500 edges. The one renderer of CSV fields: None is empty, a
    str is itself, anything else goes to json_scalar."""
    if args.format == "json":
        print(to_json(), file=out)
    elif args.format == "csv":
        print(header, file=out)
        for row in rows:
            print(",".join("" if v is None else v if isinstance(v, str) else json_scalar(v)
                           for v in row), file=out)
    else:
        for line in lines:
            print(line, file=out)
        for line in log:
            print(line, file=sys.stderr)


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
    _write_report(args, out, lambda: spectrum_to_json(sp), "index,eigenvalue",
                  enumerate(sp.eigenvalues, start=1),
                  [f"n {g.n}  e {g.edge_count}  e_neg {g.neg_edge_count}",
                   *(f"lambda_{i} {fmt_float(v)}" for i, v in enumerate(sp.eigenvalues, start=1)),
                   f"rho {fmt_float(sp.rho)}", f"tol {fmt_float(sp.tol)}"])
    return 0


def _cmd_canonical(args, out) -> int:
    return _write_graph_out(canonical_switch(read_graph(args.infile)), args, out)


def _cmd_check(args, out) -> int:
    results = run_all_suites(args.seed, args.instances)
    suites = [{"suite": r.name, "instances": r.instances,
               "violations": r.violations, "passed": r.passed} for r in results]
    _write_report(args, out, lambda: json_text({"seed": args.seed, "suites": suites}),
                  "suite,instances,violations,passed",
                  [(r.name, r.instances, r.violations, r.passed) for r in results],
                  [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.instances} instances, "
                   f"{r.violations} violations" for r in results],
                  [line for r in results for line in r.log[:-1]])
    return 0 if all(r.passed for r in results) else 1


def _cmd_bounds(args, out) -> int:
    if args.infile is None:
        n = args.n
        plain = {"edge_bound": edge_bound(n), "neg_edge_bound": neg_edge_bound(n),
                 "rho_bound": rho_bound(n)}
        _write_report(args, out, lambda: json_text({"n": n, **plain}), "bound_name,n,bound_value",
                      [(k, n, v) for k, v in plain.items()],
                      [f"{k}({n}) = {json_scalar(v)}" for k, v in plain.items()])
        return 0
    g = read_graph(args.infile)
    reports = [
        make_bound_report("edge_bound", g.n, edge_bound(g.n), g.edge_count),
        make_bound_report("rho_bound", g.n, rho_bound(g.n), eigenvalues(g).rho,
                          spectral=True),
        clique_spectral_bound(g),
    ]
    _write_report(args, out, lambda: json_text(reports),
                  "bound_name,n,bound_value,observed,satisfied",
                  [(r.bound_name, r.n, r.bound_value, r.observed, r.satisfied)
                   for r in reports],
                  [f"{r.bound_name}: observed {json_scalar(r.observed)} vs "
                   f"bound {json_scalar(r.bound_value)} [{'ok' if r.satisfied else 'VIOLATED'}]"
                   for r in reports])
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
    found = list(zip(rep.witnesses, rep.matched_family))
    c = rep.counts
    _write_report(args, out, rep.to_json, "witness,optimum,edges,neg_edges,matched_family",
                  [(i, rep.optimum, w.edge_count, w.neg_edge_count, fam)
                   for i, (w, fam) in enumerate(found, start=1)],
                  [f"optimum {json_scalar(rep.optimum)}",
                   f"witness classes {len(rep.witnesses)}",
                   *(f"- {fam or 'unmatched'}: e={w.edge_count} e_neg={w.neg_edge_count}"
                     for w, fam in found),
                   f"scanned {c['underlying_scanned']} underlying classes, "
                   f"{c['signatures_scanned']} signatures, {c['feasible']} feasible"])
    return 0


def _cmd_verify(args, out) -> int:
    rep = verify_theorem(args.theorem, args.n, progress=_make_progress())
    _write_report(args, out, rep.to_json,
                  "bound_name,n,bound_value,observed,satisfied,passed",
                  [(rep.bound_name, rep.n, rep.bound_value, rep.observed, rep.satisfied,
                    rep.passed)],
                  [f"{'PASS' if rep.passed else 'FAIL'} {rep.bound_name} n={rep.n}: observed "
                   f"{json_scalar(rep.observed)} vs bound {json_scalar(rep.bound_value)}",
                   *([rep.notes] if rep.notes else [])])
    return 0 if rep.passed else 1


def run(argv, out=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser(out)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        return args.func(args, out)
    except (OSError, ValueError) as exc:  # GraphFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # SpectralError and BracketError among them
        print(f"internal numeric failure: {exc}", file=sys.stderr)
        return 3


def main():  # console entry point
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
