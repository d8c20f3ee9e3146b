"""Tests for GroupProcesses: exact, greedy, and refinement strategies."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import patterns
from repro.treematch.grouping import (
    cut_volume,
    group_exact,
    group_greedy,
    group_processes,
    intra_group_volume,
    refine_swap,
)
from repro.util.validate import ValidationError


def _sym(n, rng):
    m = rng.random((n, n)) * 10
    m = m + m.T
    np.fill_diagonal(m, 0)
    return m


def _is_partition(groups, n, size):
    flat = sorted(i for g in groups for i in g)
    return flat == list(range(n)) and all(len(g) == size for g in groups)


class TestValidation:
    def test_non_divisible_rejected(self):
        with pytest.raises(ValidationError):
            group_processes(np.zeros((5, 5)), 2)

    def test_bad_group_size_rejected(self):
        with pytest.raises(ValidationError):
            group_processes(np.zeros((4, 4)), 0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValidationError):
            group_processes(np.zeros((4, 4)), 2, strategy="magic")


class TestTrivialCases:
    def test_group_size_one_is_identity(self, rng):
        m = _sym(6, rng)
        groups = group_processes(m, 1)
        assert groups == [[i] for i in range(6)]

    def test_group_size_n_is_single_group(self, rng):
        m = _sym(6, rng)
        assert group_processes(m, 6) == [[0, 1, 2, 3, 4, 5]]


class TestExact:
    def test_clustered_recovered(self):
        # 2 clusters of 3 with heavy intra-traffic: exact must find them.
        cm = patterns.clustered(2, 3, intra_volume=100, inter_volume=1, shuffle=False)
        groups = group_exact(np.array(cm.values), 3)
        assert sorted(map(tuple, groups)) == [(0, 1, 2), (3, 4, 5)]

    def test_exact_beats_or_ties_greedy(self, rng):
        for _ in range(5):
            m = _sym(8, rng)
            exact = group_exact(m, 2)
            greedy = group_greedy(m, 2)
            assert intra_group_volume(m, exact) >= intra_group_volume(m, greedy) - 1e-9

    def test_exact_partition_valid(self, rng):
        m = _sym(9, rng)
        groups = group_exact(m, 3)
        assert _is_partition(groups, 9, 3)


class TestGreedy:
    def test_partition_valid_large(self, rng):
        m = _sym(60, rng)
        groups = group_greedy(m, 5)
        assert _is_partition(groups, 60, 5)

    def test_clustered_recovered(self):
        cm = patterns.clustered(4, 4, intra_volume=100, inter_volume=1, seed=11)
        m = np.array(cm.values)
        groups = group_greedy(m, 4)
        # each greedy group should be one cluster: intra-volume == optimum
        per_group = 6 * 100.0  # C(4,2) pairs at 100
        assert intra_group_volume(m, groups) == pytest.approx(4 * per_group)

    def test_deterministic(self, rng):
        m = _sym(20, rng)
        assert group_greedy(m, 4) == group_greedy(m, 4)

    def test_zero_matrix_ok(self):
        groups = group_greedy(np.zeros((8, 8)), 2)
        assert _is_partition(groups, 8, 2)


class TestRefine:
    def test_never_decreases_intra_volume(self, rng):
        for _ in range(5):
            m = _sym(12, rng)
            base = group_greedy(m, 3)
            refined = refine_swap(m, base)
            assert intra_group_volume(m, refined) >= intra_group_volume(m, base) - 1e-9
            assert _is_partition(refined, 12, 3)

    def test_fixes_planted_swap(self):
        cm = patterns.clustered(2, 4, intra_volume=100, inter_volume=0.1, shuffle=False)
        m = np.array(cm.values)
        # Start from a deliberately wrong partition (one pair swapped).
        bad = [[0, 1, 2, 7], [3, 4, 5, 6]]
        refined = refine_swap(m, bad)
        assert sorted(map(tuple, refined)) == [(0, 1, 2, 3), (4, 5, 6, 7)]


class TestDispatch:
    def test_auto_uses_exact_for_small(self, rng):
        m = _sym(6, rng)
        auto = group_processes(m, 2, strategy="auto")
        exact = group_exact(m, 2)
        assert intra_group_volume(m, auto) == pytest.approx(intra_group_volume(m, exact))

    def test_auto_uses_greedy_for_large(self, rng):
        m = _sym(40, rng)
        groups = group_processes(m, 4, strategy="auto")
        assert _is_partition(groups, 40, 4)


class TestMetrics:
    def test_intra_plus_cut_equals_total(self, rng):
        m = _sym(12, rng)
        groups = group_greedy(m, 4)
        total = float(m.sum()) / 2
        assert intra_group_volume(m, groups) + cut_volume(m, groups) == pytest.approx(total)


@settings(max_examples=25, deadline=None)
@given(
    n_groups=st.integers(min_value=2, max_value=4),
    size=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_greedy_always_partitions(n_groups, size, seed):
    rng = np.random.default_rng(seed)
    n = n_groups * size
    m = _sym(n, rng)
    groups = group_processes(m, size, strategy="greedy")
    assert _is_partition(groups, n, size)


def _refine_swap_reference(m, groups, max_rounds=4):
    """``refine_swap`` without the dirty-pair skip: every group pair is
    rescored on every round.  The optimized version must reproduce this
    bit-for-bit — skipping is only legal because an unchanged pair would
    rebuild the identical gain matrix and reach the identical verdict.
    """
    groups = [list(g) for g in groups]
    for _ in range(max_rounds):
        improved = False
        for ga in range(len(groups)):
            for gb in range(ga + 1, len(groups)):
                A, B = groups[ga], groups[gb]
                mAA = m[np.ix_(A, A)]
                mBB = m[np.ix_(B, B)]
                mAB = m[np.ix_(A, B)]
                mBA = m[np.ix_(B, A)]
                a_in_A = mAA.sum(axis=0) - np.diag(mAA)
                b_in_B = mBB.sum(axis=0) - np.diag(mBB)
                a_in_B = mBA.sum(axis=0)
                b_in_A = mAB.sum(axis=0)
                gain = (
                    (a_in_B[:, None] + b_in_A[None, :])
                    - (a_in_A[:, None] + b_in_B[None, :])
                    - 2.0 * mAB
                )
                flat = int(np.argmax(gain))
                ia, ib = divmod(flat, len(B))
                if gain[ia, ib] > 1e-12:
                    A[ia], B[ib] = B[ib], A[ia]
                    improved = True
        if not improved:
            break
    return [sorted(g) for g in groups]


@settings(max_examples=30, deadline=None)
@given(
    n_groups=st.integers(min_value=2, max_value=5),
    size=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
    rounds=st.integers(min_value=1, max_value=6),
)
def test_refine_swap_matches_unskipped_reference(n_groups, size, seed, rounds):
    """The dirty-pair skip must be invisible in the output."""
    rng = np.random.default_rng(seed)
    n = n_groups * size
    m = _sym(n, rng)
    # A shuffled partition (not greedy output) so many swaps fire.
    perm = rng.permutation(n)
    base = [sorted(int(x) for x in perm[i * size:(i + 1) * size])
            for i in range(n_groups)]
    assert refine_swap(m, base, max_rounds=rounds) == _refine_swap_reference(
        m, base, max_rounds=rounds
    )


@pytest.mark.parametrize("seed", range(40))
def test_refine_swap_matches_reference_on_wide_ties(seed):
    """Groups of 8-12 members over a few decimal values.

    Many swap gains are then equal in exact arithmetic, so the chosen
    swap hangs on how each axis sum rounds.  From 8 members on, numpy
    sums a Fortran-ordered block in a different order than a C-ordered
    one, so a submatrix built with another layout than ``np.ix_``'s
    picks other swaps here.
    """
    rng = np.random.default_rng(seed)
    size = int(rng.integers(8, 13))
    n_groups = int(rng.integers(2, 5))
    n = n_groups * size
    m = rng.choice(np.array([0.1, 0.2, 0.3, 0.7]), size=(n, n))
    m = m + m.T
    np.fill_diagonal(m, 0)
    perm = rng.permutation(n)
    base = [sorted(int(x) for x in perm[i * size:(i + 1) * size])
            for i in range(n_groups)]
    assert refine_swap(m, base) == _refine_swap_reference(m, base)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_exact_is_optimal_brute_force(seed):
    """Exact search must match brute-force enumeration on tiny inputs."""
    import itertools

    rng = np.random.default_rng(seed)
    m = _sym(6, rng)
    best = -1.0
    ids = list(range(6))
    for combo in itertools.combinations(ids[1:], 2):
        g1 = (0, *combo)
        rest = tuple(i for i in ids if i not in g1)
        val = intra_group_volume(m, [g1, rest])
        best = max(best, val)
    exact = group_exact(m, 3)
    assert intra_group_volume(m, exact) == pytest.approx(best)
