"""Print where each property suite spends its time: the milliseconds of its
draws, its block step and its judge over the given instances at the given
seed, each the minimum over the repeats, the milliseconds and share of the
whole (draw + step + judge) spent in LAPACK, that is in numpy.linalg's
eigvalsh and eigh, and the number of those solve calls in one run (solves).
The phases are those of properties._case_blocks and run_suite, timed block
by block: the draws, the block step that stacks them per vertex
count, and the judge of each count's stacks. Run from the repository root:
PYTHONPATH=src python tools/suite_profile.py [--seed 1] [--instances 2000] [--repeat 7]"""
import argparse
import time

import numpy as np

from signed_extremal import properties


class LapackTimer:
    """Times and counts numpy.linalg's eigvalsh and eigh calls while it is
    entered."""

    NAMES = ("eigvalsh", "eigh")

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0

    def __enter__(self):
        self.saved = {name: getattr(np.linalg, name) for name in self.NAMES}
        for name, solve in self.saved.items():
            setattr(np.linalg, name, self.timed(solve))
        return self

    def timed(self, solve):
        def call(*args, **kwargs):
            self.calls += 1
            start = time.perf_counter()
            try:
                return solve(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
        return call

    def __exit__(self, *exc):
        for name, solve in self.saved.items():
            setattr(np.linalg, name, solve)


def phases(name, seed, instances):
    """Seconds of the draws, the block steps, the judges and LAPACK of one
    run of the suite, and its LAPACK calls."""
    draw, pairs, judge = properties._CHECKS[name]
    rng = np.random.default_rng([seed, properties.SUITE_NAMES.index(name)])
    words = properties._Words(rng.bit_generator)
    spent = [0.0, 0.0, 0.0]
    with LapackTimer() as lapack:
        for start in range(0, instances, properties._SUITE_BLOCK):
            t0 = time.perf_counter()
            drawn = [draw(words) for _ in range(min(properties._SUITE_BLOCK, instances - start))]
            t1 = time.perf_counter()
            block = properties._block_step(drawn, pairs)
            t2 = time.perf_counter()
            for _, *stacks in block:
                judge(*stacks)
            t3 = time.perf_counter()
            for k, dt in enumerate((t1 - t0, t2 - t1, t3 - t2)):
                spent[k] += dt
    return (*spent, lapack.seconds, lapack.calls)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--instances", type=int, default=2000)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    print(f"seed {args.seed}, {args.instances} instances, minimum of {args.repeat} runs (ms)")
    print(f"{'suite':22s} {'draw':>8s} {'step':>8s} {'judge':>8s} {'lapack':>8s} {'share':>6s}"
          f" {'solves':>7s}")
    for name in properties.SUITE_NAMES:
        runs = [phases(name, args.seed, args.instances) for _ in range(args.repeat)]
        *columns, solves = zip(*runs)
        draw, step, judge, lapack = (min(column) * 1e3 for column in columns)
        share = lapack / (draw + step + judge) if draw + step + judge else 0.0
        print(f"{name:22s} {draw:8.2f} {step:8.2f} {judge:8.2f} {lapack:8.2f} {share:6.1%}"
              f" {solves[0]:7d}")


if __name__ == "__main__":
    main()
