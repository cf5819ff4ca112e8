"""Print the work, the time and the memory of the switching key
(core._signed_keys of a stack, switched) on fixed corpora: for each, the
matrices keyed, their distinct underlying graphs, the sign-row starts searched
(each matrix searches its own), the most branches alive at one position of any
search of the key (labelling or sign rows), the milliseconds of one keying
call, the minimum over the repeats, and the tracemalloc peak of one more call.
The work is read by wrapping core._search_cells and core._check_work, outside
the timed and traced calls. Run from the repository root:
PYTHONPATH=src python tools/key_profile.py [--repeat 3] [--seed 0] [--corpus NAME ...]"""
import argparse
import importlib
import time
import tracemalloc

import numpy as np

core = importlib.import_module("signed_extremal.core")
families = importlib.import_module("signed_extremal.families")

SIGNS = np.array([-1, 1], dtype=np.int8)


def k7_signings(rng):
    """The 2^15 signings of K_7 whose edges at vertex 0 are positive, which
    meet every switching class of K_7 (54 of them, OEIS A002854)."""
    iu, ju = np.triu_indices(6, 1)
    bits = (np.arange(1 << 15)[:, None] >> np.arange(15)) & 1
    stack = np.ones((1 << 15, 7, 7), dtype=np.int8)
    stack[:, 1 + iu, 1 + ju] = stack[:, 1 + ju, 1 + iu] = 1 - 2 * bits
    stack[:, np.arange(7), np.arange(7)] = 0
    return stack


def halved_k9_copies(rng):
    """200 relabelled and switched copies of the halved K_9."""
    a = families.build_kn_switched_maxneg(9).adj
    copies = []
    for _ in range(200):
        p, s = rng.permutation(9), rng.choice(SIGNS, 9)
        copies.append(s[:, None] * a[np.ix_(p, p)] * s)
    return np.array(copies)


def paley(q):
    """The Paley two-graph on the integers mod a prime q = 1 mod 4: K_q whose
    edge ij is positive iff i - j is a nonzero square."""
    def corpus(rng):
        squares = np.zeros(q, dtype=bool)
        squares[np.arange(1, q) ** 2 % q] = True
        a = np.where(squares[(np.arange(q)[:, None] - np.arange(q)) % q], 1, -1).astype(np.int8)
        np.fill_diagonal(a, 0)
        return a[None]
    return corpus


def random_bipartite(a, b):
    """K_{a,b} with uniformly random edge signs."""
    def corpus(rng):
        adj = np.zeros((a + b, a + b), dtype=np.int8)
        adj[:a, a:] = rng.choice(SIGNS, (a, b))
        adj[a:, :a] = adj[:a, a:].T
        return adj[None]
    return corpus


CORPORA = {
    "k7-signings": k7_signings,
    "halved-k9-copies": halved_k9_copies,
    "paley-13": paley(13),
    "paley-17": paley(17),
    "k10,11": random_bipartite(10, 11),
    "k20,21": random_bipartite(20, 21),
}


def work(stack):
    """(starts, branches) of one keying of stack: the starts handed to the
    sign-row search, and the most branches that any search of the key checked
    against the work cap at one position."""
    stats = {"starts": 0, "branches": 0}
    search, check = core._search_cells, core._check_work
    depth = []

    def search_cells(values, owner, *args):
        if args[-1] == "sign rows":
            stats["starts"] += len(owner)
        depth.append(None)
        try:
            return search(values, owner, *args)
        finally:
            depth.pop()

    def check_work(count, *args):
        # inside a search, each check is the branches at one position
        if depth:
            stats["branches"] = max(stats["branches"], count)
        return check(count, *args)

    core._search_cells, core._check_work = search_cells, check_work
    try:
        core._signed_keys(stack, switched=True)
    finally:
        core._search_cells, core._check_work = search, check
    return stats["starts"], stats["branches"]


def profile(stack, repeat):
    """The counts, the least milliseconds over repeat calls and the traced
    peak in MiB of keying stack."""
    starts, branches = work(stack)
    seconds = []
    for _ in range(repeat):
        start = time.perf_counter()
        core._signed_keys(stack, switched=True)
        seconds.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        core._signed_keys(stack, switched=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    underlying = len({(a != 0).tobytes() for a in stack})
    return len(stack), underlying, starts, branches, min(seconds) * 1e3, peak / (1 << 20)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--corpus", nargs="+", choices=CORPORA, default=list(CORPORA))
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    print(f"switching keys, minimum of {args.repeat} runs (ms), seed {args.seed}")
    columns = ("matrices", "underlying", "starts", "branches", "ms", "peak_mib")
    print(f"{'corpus':<16s} " + " ".join(f"{c:>10s}" for c in columns))
    for name in args.corpus:
        stack = CORPORA[name](np.random.default_rng(args.seed))
        *counts, ms, peak = profile(stack, args.repeat)
        print(f"{name:<16s} " + " ".join(f"{c:10d}" for c in counts) + f" {ms:10.2f} {peak:10.2f}")


if __name__ == "__main__":
    main()
