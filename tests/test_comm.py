"""Tests for repro.comm: CommMatrix, synthetic patterns, and tracing."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.comm.matrix import CommMatrix
from repro.comm.trace import CommTracer
from repro.comm import patterns
from repro.util.validate import ValidationError


class TestCommMatrixConstruction:
    def test_basic(self):
        m = CommMatrix([[0, 1], [1, 0]])
        assert m.order == 2
        assert m.volume(0, 1) == 1.0

    def test_diagonal_zeroed(self):
        m = CommMatrix([[5, 1], [1, 7]])
        assert m.volume(0, 0) == 0.0
        assert m.volume(1, 1) == 0.0

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            CommMatrix([[0, 1], [2, 0]])

    def test_symmetrize_option(self):
        m = CommMatrix([[0, 1], [2, 0]], symmetrize=True)
        assert m.volume(0, 1) == 3.0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            CommMatrix([[0, -1], [-1, 0]])

    def test_nonsquare_rejected(self):
        with pytest.raises(ValidationError):
            CommMatrix([[0, 1, 2], [1, 0, 3]])

    def test_default_labels(self):
        m = CommMatrix.zeros(3)
        assert m.labels == ("t0", "t1", "t2")

    def test_custom_labels(self):
        m = CommMatrix.zeros(2, labels=["a", "b"])
        assert m.labels == ("a", "b")

    def test_label_count_mismatch(self):
        with pytest.raises(ValidationError):
            CommMatrix.zeros(2, labels=["only-one"])

    def test_from_edges(self):
        m = CommMatrix.from_edges(3, [(0, 1, 5), (1, 2, 3), (0, 1, 2)])
        assert m.volume(0, 1) == 7.0
        assert m.volume(1, 2) == 3.0

    def test_from_edges_self_loop_ignored(self):
        m = CommMatrix.from_edges(2, [(0, 0, 99)])
        assert m.total_volume() == 0.0

    def test_from_edges_out_of_range(self):
        with pytest.raises(ValidationError):
            CommMatrix.from_edges(2, [(0, 5, 1)])

    def test_values_readonly(self):
        m = CommMatrix.zeros(2)
        with pytest.raises(ValueError):
            m.values[0, 1] = 3


class TestCommMatrixOps:
    def test_total_volume_counts_pairs_once(self):
        m = CommMatrix([[0, 4], [4, 0]])
        assert m.total_volume() == 4.0

    def test_row_volume(self, stencil_matrix):
        # a corner block talks to 3 neighbours
        assert stencil_matrix.row_volume(0) > 0

    def test_density(self):
        m = CommMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert m.density() == pytest.approx(1 / 3)

    def test_neighbors_sorted_by_volume(self):
        m = CommMatrix.from_edges(3, [(0, 1, 1), (0, 2, 9)])
        assert m.neighbors(0) == [2, 1]

    def test_normalized(self):
        m = CommMatrix([[0, 4], [4, 0]]).normalized()
        assert m.volume(0, 1) == 1.0

    def test_normalized_zero_matrix(self):
        m = CommMatrix.zeros(3).normalized()
        assert m.total_volume() == 0.0

    def test_permuted_roundtrip(self, stencil_matrix):
        perm = list(reversed(range(stencil_matrix.order)))
        p = stencil_matrix.permuted(perm)
        pp = p.permuted(perm)
        assert pp == stencil_matrix

    def test_permuted_invalid(self):
        with pytest.raises(ValidationError):
            CommMatrix.zeros(3).permuted([0, 0, 1])

    def test_extended_adds_zero_rows(self):
        m = CommMatrix([[0, 2], [2, 0]]).extended(2)
        assert m.order == 4
        assert m.row_volume(2) == 0.0
        assert m.labels[2] == "ctl0"

    def test_extended_negative_rejected(self):
        with pytest.raises(ValidationError):
            CommMatrix.zeros(2).extended(-1)

    def test_aggregated_sums_cross_volumes(self):
        m = CommMatrix.from_edges(4, [(0, 1, 5), (0, 2, 1), (1, 3, 2), (2, 3, 7)])
        agg = m.aggregated([[0, 1], [2, 3]])
        assert agg.order == 2
        # cross-group volume: (0,2)=1 + (1,3)=2 = 3
        assert agg.volume(0, 1) == 3.0

    def test_aggregated_total_preserved_minus_intra(self):
        m = CommMatrix.from_edges(4, [(0, 1, 5), (2, 3, 7), (0, 3, 2)])
        agg = m.aggregated([[0, 1], [2, 3]])
        assert agg.total_volume() == 2.0

    def test_aggregated_requires_partition(self):
        m = CommMatrix.zeros(4)
        with pytest.raises(ValidationError):
            m.aggregated([[0, 1], [1, 2, 3]])  # 1 twice
        with pytest.raises(ValidationError):
            m.aggregated([[0, 1], [2]])  # 3 missing

    def test_save_load_roundtrip(self, tmp_path, stencil_matrix):
        path = tmp_path / "m.txt"
        stencil_matrix.save(path)
        loaded = CommMatrix.load(path)
        assert loaded == stencil_matrix
        assert loaded.labels == stencil_matrix.labels

    def test_load_bad_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 2\n")
        with pytest.raises(Exception):
            CommMatrix.load(path)


def _indicator_aggregate(m, groups):
    """The paper's ``AggregateComMatrix`` as a dense indicator product.

    ``I @ m @ I.T`` with ``I[g, i] = 1`` for each member *i* of group
    *g*: the oracle for :meth:`CommMatrix.aggregated`, which sums the
    same entries without a matrix-matrix product.
    """
    indicator = np.zeros((len(groups), m.order))
    for gi, g in enumerate(groups):
        indicator[gi, list(g)] = 1.0
    out = indicator @ m.values @ indicator.T
    np.fill_diagonal(out, 0.0)
    return out


@st.composite
def _partitions(draw):
    """An order n, a partition of 0..n-1 into groups, and a seeded RNG.

    Members come unsorted, groups in any order, and the draw covers a
    single group (k = 1) and all singletons (k = n) as well as random
    group ids.
    """
    n = draw(st.integers(min_value=1, max_value=24))
    shape = draw(st.sampled_from(["random", "one", "singletons"]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    if shape == "one":
        gid = np.zeros(n, dtype=int)
    elif shape == "singletons":
        gid = rng.permutation(n)
    else:
        gid = rng.integers(0, draw(st.integers(min_value=1, max_value=n)), size=n)
    groups = [[int(i) for i in rng.permutation(np.flatnonzero(gid == g))]
              for g in np.unique(gid)]
    order = rng.permutation(len(groups))
    return n, [groups[g] for g in order], rng


class TestAggregatedOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=_partitions())
    def test_integer_volumes_exact(self, case):
        n, groups, rng = case
        raw = rng.integers(0, 10**6, size=(n, n)).astype(float)
        m = CommMatrix(raw, symmetrize=True)
        agg = m.aggregated(groups)
        assert np.array_equal(agg.values, _indicator_aggregate(m, groups))
        assert agg.labels == tuple(
            "+".join(m.labels[i] for i in g) for g in groups
        )

    @settings(max_examples=60, deadline=None)
    @given(case=_partitions())
    def test_real_volumes_close(self, case):
        n, groups, rng = case
        m = CommMatrix(rng.random((n, n)) * 1e3, symmetrize=True)
        agg = m.aggregated(groups).values
        np.testing.assert_allclose(
            agg, _indicator_aggregate(m, groups), rtol=1e-12, atol=0
        )
        assert np.all(np.diag(agg) == 0.0)


def test_aggregated_stays_single_threaded():
    """No BLAS thread pool behind ``aggregated``.

    In a sweep pool every worker would start one, oversubscribing the
    host.  Process CPU time counts all threads, so a multi-threaded
    kernel shows up as CPU time above wall time.  Measured in a fresh
    interpreter, where no earlier BLAS call has left threads spinning.
    """
    script = textwrap.dedent("""
        import json, time
        import numpy as np
        from repro.comm.matrix import CommMatrix
        n, size = 1024, 8
        m = CommMatrix(np.random.default_rng(0).random((n, n)), symmetrize=True)
        groups = [list(range(g, g + size)) for g in range(0, n, size)]
        m.aggregated(groups)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for _ in range(5):
            m.aggregated(groups)
        print(json.dumps({"wall": time.perf_counter() - wall0,
                          "cpu": time.process_time() - cpu0}))
    """)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, env=env,
    )
    t = json.loads(out.stdout.strip().splitlines()[-1])
    assert t["cpu"] <= 1.25 * t["wall"] + 0.005, t


class TestPatterns:
    def test_stencil_neighbor_counts(self):
        m = patterns.stencil_2d(3, 3, edge_volume=10)
        # center block has 8 neighbours
        assert len(m.neighbors(4)) == 8
        # corner block has 3
        assert len(m.neighbors(0)) == 3

    def test_stencil_edge_heavier_than_corner(self):
        m = patterns.stencil_2d(3, 3, edge_volume=64.0)
        assert m.volume(0, 1) == 64.0  # horizontal edge
        assert m.volume(0, 4) == 1.0  # diagonal corner

    def test_stencil_no_diagonal(self):
        m = patterns.stencil_2d(3, 3, diagonal=False)
        assert m.volume(0, 4) == 0.0

    def test_stencil_periodic_wraps(self):
        m = patterns.stencil_2d(1, 4, periodic=True, diagonal=False)
        assert m.volume(0, 3) > 0

    def test_stencil_invalid(self):
        with pytest.raises(ValidationError):
            patterns.stencil_2d(0, 3)

    def test_ring(self):
        m = patterns.ring(5, volume=2.0)
        assert m.volume(0, 1) == 2.0
        assert m.volume(0, 4) == 2.0  # wrap
        assert m.volume(0, 2) == 0.0

    def test_ring_single(self):
        assert patterns.ring(1).total_volume() == 0.0

    def test_all_to_all(self):
        m = patterns.all_to_all(4, volume=3.0)
        assert m.total_volume() == 6 * 3.0

    def test_random_sparse_density(self):
        m = patterns.random_sparse(50, density=0.2, seed=42)
        assert 0.1 < m.density() < 0.3

    def test_random_sparse_reproducible(self):
        a = patterns.random_sparse(20, seed=7)
        b = patterns.random_sparse(20, seed=7)
        assert a == b

    def test_random_sparse_bad_density(self):
        with pytest.raises(ValidationError):
            patterns.random_sparse(10, density=1.5)

    def test_clustered_heavy_intra(self):
        m = patterns.clustered(2, 3, intra_volume=50, inter_volume=1, shuffle=False)
        assert m.volume(0, 1) == 50.0
        assert m.volume(0, 3) == 1.0

    def test_clustered_shuffle_reproducible(self):
        a = patterns.clustered(2, 4, seed=3)
        b = patterns.clustered(2, 4, seed=3)
        assert a == b

    def test_butterfly_degree(self):
        m = patterns.butterfly(3)
        # every entity talks to exactly `stages` partners
        assert all(len(m.neighbors(i)) == 3 for i in range(8))

    def test_square_grid_shape(self):
        assert patterns.square_grid_shape(12) == (3, 4)
        assert patterns.square_grid_shape(16) == (4, 4)
        assert patterns.square_grid_shape(7) == (1, 7)
        assert patterns.square_grid_shape(192) == (12, 16)

    def test_square_grid_shape_invalid(self):
        with pytest.raises(ValidationError):
            patterns.square_grid_shape(0)

    @given(st.integers(min_value=1, max_value=200))
    def test_square_grid_shape_property(self, n):
        r, c = patterns.square_grid_shape(n)
        assert r * c == n
        assert r <= c


class TestTracer:
    def test_register_idempotent(self):
        t = CommTracer()
        assert t.register("a") == t.register("a") == 0
        assert t.n_entities == 1

    def test_record_accumulates(self):
        t = CommTracer()
        t.record("a", "b", 10)
        t.record("b", "a", 5)
        assert t.volume_between("a", "b") == 15.0
        assert t.n_events == 2

    def test_record_self_ignored(self):
        t = CommTracer()
        t.record("a", "a", 10)
        assert t.n_events == 0

    def test_record_negative_rejected(self):
        t = CommTracer()
        with pytest.raises(ValidationError):
            t.record("a", "b", -1)

    def test_to_matrix(self):
        t = CommTracer()
        t.register_all(["a", "b", "c"])
        t.record("a", "c", 7)
        m = t.to_matrix()
        assert m.order == 3
        assert m.volume(0, 2) == 7.0
        assert m.labels == ("a", "b", "c")

    def test_to_matrix_forced_order(self):
        t = CommTracer()
        t.record("a", "b", 1)
        m = t.to_matrix(order=4)
        assert m.order == 4
        assert m.labels[3].startswith("silent")

    def test_to_matrix_order_too_small(self):
        t = CommTracer()
        t.register_all(["a", "b", "c"])
        with pytest.raises(ValidationError):
            t.to_matrix(order=2)

    def test_merge(self):
        t1 = CommTracer()
        t1.record("a", "b", 5)
        t2 = CommTracer()
        t2.record("b", "c", 3)
        t1.merge(t2)
        assert t1.volume_between("b", "c") == 3.0
        assert t1.n_events == 2

    def test_reset_volumes_keeps_registration(self):
        t = CommTracer()
        t.record("a", "b", 5)
        t.reset_volumes()
        assert t.n_entities == 2
        assert t.volume_between("a", "b") == 0.0

    def test_unregistered_lookup(self):
        t = CommTracer()
        with pytest.raises(ValidationError):
            t.id_of("ghost")
