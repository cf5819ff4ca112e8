"""Print the work and the time of each level of the class enumeration, from a
cleared cache: for each n, the classes on n vertices, the children sent to the
canonical deletion test (tested), the children whose labelling took a branch
(branched: some colour cell holds two twin classes), the order rows those
children keep (branch_rows) and the rows the level carries to the next
(carried, 0 at the top level, which keeps no labels); then the milliseconds
of the level's _orbit_masks, _deletion_sets, _label_stack and _packed_codes
calls, each the minimum over the repeats. The four are timed by wrapping the
names that signed_extremal.search holds, and the labelling's search by
wrapping core._search_cells. Run from the repository root:
PYTHONPATH=src python tools/enum_profile.py [--max-n 8] [--repeat 7]"""
import argparse
import collections
import importlib
import time

import numpy as np

search = importlib.import_module("signed_extremal.search")
core = importlib.import_module("signed_extremal.core")

LAYERS = ("_orbit_masks", "_deletion_sets", "_label_stack", "_packed_codes")


def vertices(name, args):
    """The level a layer's call works for: its graphs' vertex count, one more
    for _orbit_masks, whose graphs are the parents."""
    return args[0].shape[1] + (name == "_orbit_masks")


def one_run(max_n):
    """Seconds of each (level, layer) and the counts of each level, for one
    enumeration up to max_n vertices from a cleared cache."""
    seconds = collections.defaultdict(float)
    counts = collections.defaultdict(collections.Counter)
    saved = {name: getattr(search, name) for name in LAYERS}
    labelled = core._search_cells

    def timed(name, layer):
        def call(*args):
            start = time.perf_counter()
            try:
                return layer(*args)
            finally:
                seconds[vertices(name, args), name] += time.perf_counter() - start
        return call

    def deletion_sets(adj, comps):
        counts[adj.shape[1]]["tested"] += len(adj)
        return saved["_deletion_sets"](adj, comps)

    def search_cells(values, owner, cell, tag, layout, what):
        out = labelled(values, owner, cell, tag, layout, what)
        # a start branches iff some cell holds two tags
        n = len(layout)
        pairs, cells = (np.sort(x, axis=1) for x in (cell * n + tag, cell))
        distinct = [(np.diff(x, axis=1) != 0).sum(1) for x in (pairs, cells)]
        branched = np.flatnonzero(distinct[0] > distinct[1])
        counts[n]["branched"] += len(branched)
        counts[n]["branch_rows"] += int(np.isin(out[0], owner[branched]).sum())
        return out

    for name in LAYERS:
        setattr(search, name, timed(name, deletion_sets if name == "_deletion_sets"
                                    else saved[name]))
    core._search_cells = search_cells
    search._class_level.cache_clear()
    try:
        for n in range(1, max_n + 1):
            codes, labels = search._class_level(n)
            counts[n]["classes"] = len(codes)
            counts[n]["carried"] = 0 if labels is None else len(labels.orders)
    finally:
        for name, layer in saved.items():
            setattr(search, name, layer)
        core._search_cells = labelled
        search._class_level.cache_clear()
    return seconds, counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-n", type=int, default=search._MAX_N)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    if not 2 <= args.max_n <= search._MAX_N:
        parser.error(f"--max-n must be 2..{search._MAX_N}")
    runs = [one_run(args.max_n) for _ in range(args.repeat)]
    counts = runs[0][1]
    print(f"levels 2..{args.max_n}, minimum of {args.repeat} runs (ms)")
    columns = ("classes", "tested", "branched", "branch_rows", "carried")
    print(f"{'n':>2s} " + " ".join(f"{c:>11s}" for c in columns)
          + " " + " ".join(f"{name[1:]:>14s}" for name in LAYERS))
    for n in range(2, args.max_n + 1):
        ms = [min(seconds[n, name] for seconds, _ in runs) * 1e3 for name in LAYERS]
        print(f"{n:2d} " + " ".join(f"{counts[n][c]:11d}" for c in columns)
              + " " + " ".join(f"{t:14.2f}" for t in ms))


if __name__ == "__main__":
    main()
