"""Tests for the recursive-bisection grouping strategy."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.comm import patterns
from repro.treematch.bisection import group_bisection
from repro.treematch.grouping import group_processes, intra_group_volume
from repro.util.validate import ValidationError


def _is_partition(groups, n, size):
    flat = sorted(i for g in groups for i in g)
    return flat == list(range(n)) and all(len(g) == size for g in groups)


class TestBisection:
    def test_trivial_sizes(self):
        m = np.zeros((4, 4))
        assert group_bisection(m, 4) == [[0, 1, 2, 3]]
        assert group_bisection(m, 1) == [[0], [1], [2], [3]]

    def test_partition_power_of_two(self):
        cm = patterns.random_sparse(32, seed=1)
        groups = group_bisection(np.array(cm.values), 4)
        assert _is_partition(groups, 32, 4)

    def test_partition_odd_group_count(self):
        cm = patterns.random_sparse(24, seed=2)  # 3 groups of 8
        groups = group_bisection(np.array(cm.values), 8)
        assert _is_partition(groups, 24, 8)

    def test_clusters_recovered(self):
        cm = patterns.clustered(4, 4, intra_volume=100, inter_volume=1, seed=5)
        m = np.array(cm.values)
        groups = group_bisection(m, 4)
        per_group = 6 * 100.0
        assert intra_group_volume(m, groups) == pytest.approx(4 * per_group)

    def test_deterministic(self):
        cm = patterns.random_sparse(16, seed=3)
        m = np.array(cm.values)
        assert group_bisection(m, 4) == group_bisection(m, 4)

    def test_dispatch_through_group_processes(self):
        cm = patterns.clustered(2, 4, intra_volume=50, inter_volume=1, seed=4)
        m = np.array(cm.values)
        groups = group_processes(m, 4, strategy="bisection")
        assert _is_partition(groups, 8, 4)

    def test_non_divisible_rejected(self):
        with pytest.raises(ValidationError):
            group_bisection(np.zeros((6, 6)), 4)

    def test_competitive_with_greedy_on_stencil(self):
        cm = patterns.stencil_2d(4, 8, edge_volume=100.0)
        m = np.array(cm.values)
        bis = intra_group_volume(m, group_bisection(m, 4))
        greedy = intra_group_volume(m, group_processes(m, 4, strategy="greedy"))
        # Both heuristics must land in the same quality neighbourhood.
        assert bis > 0.5 * greedy


def test_networkx_imported_only_for_bisection():
    """The package and the experiment drivers load without networkx.

    Only ``group_bisection`` needs it, and it is the heaviest import in
    the package; sweep workers and CLI start-up should not pay for it.
    """
    script = (
        "import sys\n"
        "import repro, repro.experiments.fig1, repro.experiments.scaling, "
        "repro.experiments.dag\n"
        "from repro.treematch import group_bisection\n"
        "assert 'networkx' not in sys.modules, 'networkx imported eagerly'\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    subprocess.run([sys.executable, "-c", script], check=True, env=env)
