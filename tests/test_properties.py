import pytest

from signed_extremal.core import is_connected
from signed_extremal.properties import (
    SUITE_NAMES,
    random_connected_signed_graph,
    run_all_suites,
    run_suite,
)

import numpy as np


class TestGenerator:
    def test_always_connected_and_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            g = random_connected_signed_graph(rng, 3, 10)
            assert 3 <= g.n <= 10
            assert is_connected(g)


class TestSuites:
    def test_all_pass_quickly(self):
        for r in run_all_suites(seed=1, instances=50):
            assert r.passed, r.log

    def test_same_seed_reproduces_logs(self):
        a = run_all_suites(seed=42, instances=25)
        b = run_all_suites(seed=42, instances=25)
        assert [(r.name, r.violations, r.log) for r in a] == [
            (r.name, r.violations, r.log) for r in b
        ]

    def test_suite_names_complete(self):
        assert set(SUITE_NAMES) == {
            "switching-invariance",
            "negation-symmetry",
            "interlacing",
            "balanced-spanning",
            "clique-bound",
            "edge-addition",
        }

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("spin-glass", seed=0)

    @pytest.mark.parametrize("instances", [-5, 2.5, True, "3"])
    def test_instances_must_be_a_non_negative_int(self, instances):
        with pytest.raises(ValueError, match="instances must be a non-negative int"):
            run_suite("interlacing", seed=0, instances=instances)

    def test_zero_instances_allowed(self):
        r = run_suite("interlacing", seed=0, instances=0)
        assert r.instances == 0 and r.violations == 0 and r.passed
