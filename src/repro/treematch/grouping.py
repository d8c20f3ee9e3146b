"""``GroupProcesses``: partition entities into fixed-size affinity groups.

Algorithm 1 line 6 — at each tree level, the current entities must be
split into ``k`` groups of size ``a`` (the level's arity) so that the
communication volume *inside* groups is maximized (equivalently, the
inter-group cut is minimized).  Optimal fixed-size partitioning is
NP-hard, so like TreeMatch we use an exact search only for small orders
and a greedy-plus-refinement heuristic beyond that.

The public entry point is :func:`group_processes`; the strategies are
exposed individually for the ablation benchmarks.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.util.validate import ValidationError, check_square_matrix

#: Orders up to this run the exact branch-and-bound partitioner.
EXACT_THRESHOLD = 12

#: Orders above this skip the (quadratic-in-groups) swap refinement.
REFINE_THRESHOLD = 512


def intra_group_volume(m: np.ndarray, groups: Sequence[Sequence[int]]) -> float:
    """Total communication volume kept inside groups (each pair once)."""
    total = 0.0
    for g in groups:
        idx = np.asarray(list(g), dtype=np.intp)
        total += float(m[np.ix_(idx, idx)].sum()) / 2.0
    return total


def cut_volume(m: np.ndarray, groups: Sequence[Sequence[int]]) -> float:
    """Volume crossing group boundaries (complement of intra volume)."""
    return float(m.sum()) / 2.0 - intra_group_volume(m, groups)


def _validate(m: np.ndarray, group_size: int) -> np.ndarray:
    a = check_square_matrix(m, "affinity matrix")
    n = a.shape[0]
    if group_size <= 0:
        raise ValidationError(f"group_size must be > 0, got {group_size}")
    if n % group_size != 0:
        raise ValidationError(
            f"order {n} is not divisible by group size {group_size}; "
            "pad the matrix with virtual entities first"
        )
    return a


# ---------------------------------------------------------------------------
# Exact partitioner (small orders)
# ---------------------------------------------------------------------------


def group_exact(m: np.ndarray, group_size: int) -> list[list[int]]:
    """Optimal fixed-size grouping by canonical-order exhaustive search.

    Enumerates set partitions into blocks of exactly *group_size*,
    canonicalized by always placing the lowest unassigned entity first
    (eliminating group-order and in-group-order symmetry).  Exponential;
    guarded by :data:`EXACT_THRESHOLD` in :func:`group_processes`.

    The candidate-group scoring is vectorized: at each search node, the
    intra-group gain and the optimistic completion bound of *every*
    candidate group are computed in a handful of numpy operations over
    the whole candidate batch, instead of a Python loop over
    ``itertools.combinations`` pairs per candidate.  The per-candidate
    gains accumulate in the same pair order as the scalar code did, so
    leaf values — and therefore the selected optimum — are bit-identical
    to the historical implementation; the fast bound carries a slack
    margin well above float drift so pruning stays admissible.
    """
    m = _validate(m, group_size)
    n = m.shape[0]
    if group_size == n:
        return [list(range(n))]
    best_groups: list[list[int]] | None = None
    best_value = -1.0
    a = group_size
    # Pruning slack: the vectorized bound is algebraically identical to
    # the exhaustive complement sum but accumulates in a different
    # order, so it may drift by ~n²·eps·max|m|.  Pruning only when the
    # optimistic total trails the incumbent by more than this slack
    # keeps the bound admissible (never cuts a branch the exact bound
    # would have kept).
    slack = 1e-9 * max(1.0, float(np.abs(m).sum()))

    def search(remaining: frozenset[int], acc: list[list[int]], value: float) -> None:
        nonlocal best_groups, best_value
        if not remaining:
            if value > best_value:
                best_value = value
                best_groups = [list(g) for g in acc]
            return
        rest_sorted = sorted(remaining)
        first = rest_sorted[0]
        combos = np.array(
            list(itertools.combinations(rest_sorted[1:], a - 1)), dtype=np.intp
        ).reshape(-1, a - 1)
        k = combos.shape[0]
        groups = np.empty((k, a), dtype=np.intp)
        groups[:, 0] = first
        groups[:, 1:] = combos
        # Intra-group gain of every candidate, pair by pair (columns),
        # vectorized across the candidate batch.
        gain = np.zeros(k, dtype=np.float64)
        for i in range(a):
            col_i = groups[:, i]
            for j in range(i + 1, a):
                gain += m[col_i, groups[:, j]]
        # Optimistic bound: all remaining volume stays intra.  With
        # R = remaining and g a candidate,
        #   vol(R \ g) = vol(R) - sum_{x in g} rowsum_R(x) + vol(g).
        R = np.asarray(rest_sorted, dtype=np.intp)
        vol_R = float(m[np.ix_(R, R)].sum()) / 2.0
        rowsum_R = m[:, R].sum(axis=1)
        bound = vol_R - rowsum_R[groups].sum(axis=1) + gain
        optimistic = value + gain + bound + slack
        for idx in range(k):
            if optimistic[idx] <= best_value:
                continue
            group = [int(x) for x in groups[idx]]
            acc.append(group)
            search(remaining.difference(group), acc, value + float(gain[idx]))
            acc.pop()

    search(frozenset(range(n)), [], 0.0)
    assert best_groups is not None
    return best_groups


# ---------------------------------------------------------------------------
# Greedy partitioner (large orders)
# ---------------------------------------------------------------------------


def group_greedy(m: np.ndarray, group_size: int) -> list[list[int]]:
    """Greedy agglomerative grouping (vectorized).

    Repeatedly seed a group with the heaviest-communicating unassigned
    entity, then grow it by adding the unassigned entity with the largest
    total volume toward the group, until the group is full.  The
    group-attachment scores are maintained incrementally
    (``scores += m[new_member]``), making the whole pass O(n²) numpy
    work — fast enough for the 1000+-thread programs of the paper's
    oversubscribed configurations.
    """
    m = _validate(m, group_size)
    n = m.shape[0]
    available = np.ones(n, dtype=bool)
    groups: list[list[int]] = []
    row_volumes = m.sum(axis=1)
    neg_inf = -np.inf
    while available.any():
        seed_scores = np.where(available, row_volumes, neg_inf)
        seed = int(seed_scores.argmax())
        group = [seed]
        available[seed] = False
        scores = m[seed].copy()
        while len(group) < group_size:
            cand = np.where(available, scores, neg_inf)
            best = int(cand.argmax())
            group.append(best)
            available[best] = False
            scores += m[best]
        groups.append(sorted(group))
    return groups


def refine_swap(
    m: np.ndarray, groups: list[list[int]], max_rounds: int = 4
) -> list[list[int]]:
    """Kernighan–Lin-style pairwise-swap refinement.

    Repeatedly swaps one member between two groups when that increases
    the intra-group volume; stops at a local optimum or after
    *max_rounds* sweeps over all group pairs.

    A pair whose two groups are both unchanged since it was last scored
    is skipped: rescoring it would rebuild the identical gain matrix
    and reach the identical no-swap verdict (had a swap been
    profitable, it would already have been applied, changing a group
    version).  Skipping is therefore bit-identical to the exhaustive
    sweep — the property tests in ``tests/test_grouping.py`` pin the
    output against the unskipped reference — while later rounds over
    mostly-settled groups cost almost nothing.
    """
    m = check_square_matrix(m, "affinity matrix")
    groups = [list(g) for g in groups]
    version = [0] * len(groups)
    seen: dict[tuple[int, int], tuple[int, int]] = {}

    for _ in range(max_rounds):
        improved = False
        for ga in range(len(groups)):
            for gb in range(ga + 1, len(groups)):
                state = (version[ga], version[gb])
                if seen.get((ga, gb)) == state:
                    continue
                seen[ga, gb] = state
                A, B = groups[ga], groups[gb]
                # Vectorized swap scoring: attachment of every member to
                # its own and to the other group in four axis-sums, then
                # the full |A| × |B| swap-gain matrix at once (the
                # scalar version recomputed attachments inside a
                # quadruple loop).  ``- 2 m[a, b]`` corrects for the
                # a-b edge, which stays cut after the swap.  Both row
                # blocks are taken once and the four submatrices are
                # column takes from them: the same C-ordered arrays as
                # ``np.ix_`` builds, so the axis sums add in the same
                # order (``rows[:, idx]`` is Fortran-ordered and would
                # not, once a group has 8 or more members).
                idx_a = np.asarray(A, dtype=np.intp)
                idx_b = np.asarray(B, dtype=np.intp)
                rowsA = m.take(idx_a, axis=0)
                rowsB = m.take(idx_b, axis=0)
                mAA = rowsA.take(idx_a, axis=1)
                mBB = rowsB.take(idx_b, axis=1)
                mAB = rowsA.take(idx_b, axis=1)
                mBA = rowsB.take(idx_a, axis=1)
                a_in_A = mAA.sum(axis=0) - np.diag(mAA)
                b_in_B = mBB.sum(axis=0) - np.diag(mBB)
                a_in_B = mBA.sum(axis=0)
                b_in_A = mAB.sum(axis=0)
                gain = (
                    (a_in_B[:, None] + b_in_A[None, :])
                    - (a_in_A[:, None] + b_in_B[None, :])
                    - 2.0 * mAB
                )
                flat = int(np.argmax(gain))  # first maximum in (ia, ib) order
                ia, ib = divmod(flat, len(B))
                if gain[ia, ib] > 1e-12:
                    A[ia], B[ib] = B[ib], A[ia]
                    version[ga] += 1
                    version[gb] += 1
                    improved = True
        if not improved:
            break
    return [sorted(g) for g in groups]


def group_processes(
    m: np.ndarray,
    group_size: int,
    strategy: str = "auto",
    refine: bool = True,
) -> list[list[int]]:
    """The ``GroupProcesses`` function of Algorithm 1.

    Parameters
    ----------
    m:
        Symmetric affinity matrix over the current entities.
    group_size:
        The arity ``a`` of the tree level being processed; the order of
        *m* must be a multiple of it.
    strategy:
        ``"exact"``, ``"greedy"``, ``"bisection"`` (recursive
        Kernighan–Lin, see :mod:`repro.treematch.bisection`), or
        ``"auto"`` (exact below :data:`EXACT_THRESHOLD`, greedy above).
    refine:
        Run swap refinement after the greedy pass (ignored for exact).

    Returns
    -------
    list of groups, each a sorted list of entity indices; groups are in
    the order they will occupy sibling subtrees.
    """
    m = _validate(m, group_size)
    n = m.shape[0]
    if group_size == 1:
        return [[i] for i in range(n)]
    if group_size == n:
        return [list(range(n))]
    if strategy == "auto":
        strategy = "exact" if n <= EXACT_THRESHOLD else "greedy"
    if strategy == "bisection":
        from repro.treematch.bisection import group_bisection

        return group_bisection(m, group_size)
    if strategy == "exact":
        return group_exact(m, group_size)
    if strategy == "greedy":
        groups = group_greedy(m, group_size)
        # Swap refinement is O(k² · a² · n); worth it for the orders the
        # launch-time mapping sees, skipped for very large matrices where
        # the greedy pass alone is already the practical choice.
        if refine and n <= REFINE_THRESHOLD:
            groups = refine_swap(m, groups)
        return groups
    raise ValidationError(f"unknown grouping strategy {strategy!r}")
