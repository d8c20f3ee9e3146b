"""The task-level affinity fold against the dense op-matrix path.

Paper-mode binding folds the writer/reader edges of the static
extraction straight to tasks (:func:`repro.placement.binder.task_matrix`
with no op matrix).  It must give exactly the matrix that aggregating
the dense op×op :func:`~repro.placement.affinity.static_matrix` gives,
without ever allocating the op×op array.
"""

import functools
import random
import tracemalloc

import numpy as np
import pytest

from repro.comm.trace import CommTracer
from repro.experiments.scaling import matrix_order
from repro.kernels.lk23_orwl import Lk23Config, build_program
from repro.orwl import AccessMode, Program
from repro.placement import affinity, binder
from repro.placement.affinity import static_edges, static_matrix, traced_matrix
from repro.placement.binder import bind_program, task_matrix
from repro.util.validate import ValidationError


def _noop(ctx):
    return iter(())


def lk23(rows, cols, n=1024, shuffle_seed=None):
    cfg = Lk23Config(n=n, grid_rows=rows, grid_cols=cols, iterations=3)
    order = None
    if shuffle_seed is not None:
        order = list(cfg.grid.blocks())
        random.Random(shuffle_seed).shuffle(order)
    return build_program(cfg, block_order=order)


def odd_program():
    """Zero-payload, self-read, intra-task and multi-writer locations."""
    p = Program("odd")
    sync = p.location("sync", 0, owner_task="A")
    own = p.location("own", 64, owner_task="A")
    shared = p.location("shared", 100, owner_task="B", affinity_bytes=4096)
    inner = p.location("inner", 32, owner_task="C")
    a_main = p.task("A").operation("main", _noop)
    a_sub = p.task("A").operation("sub", _noop)
    b_main = p.task("B").operation("main", _noop)
    c_main = p.task("C").operation("main", _noop)
    c_sub = p.task("C").operation("sub", _noop)
    p.task("D").operation("main", _noop)  # no traffic at all
    a_main.handle(sync, AccessMode.WRITE)
    b_main.handle(sync, AccessMode.READ)
    a_main.handle(own, AccessMode.WRITE)
    a_main.handle(own, AccessMode.READ)  # reads back its own location
    a_sub.handle(own, AccessMode.READ)  # intra-task: folds to the diagonal
    b_main.handle(shared, AccessMode.WRITE)
    c_main.handle(shared, AccessMode.WRITE)
    a_sub.handle(shared, AccessMode.READ)
    c_sub.handle(shared, AccessMode.READ)
    c_main.handle(inner, AccessMode.WRITE)
    c_sub.handle(inner, AccessMode.READ)
    return p


def assert_fold_matches_dense(program, iterations=1, use_affinity_hints=True):
    dense = task_matrix(
        program, static_matrix(program, iterations, use_affinity_hints)
    )
    folded = task_matrix(program)
    assert np.array_equal(folded.values, dense.values)
    assert folded.labels == dense.labels
    return folded


@pytest.mark.parametrize("rows,cols", [(12, 16), (16, 24)], ids=["192pu", "384pu"])
def test_fold_equals_dense_on_lk23(rows, cols):
    tm = assert_fold_matches_dense(lk23(rows, cols))
    assert tm.order == rows * cols
    assert tm.total_volume() > 0


def test_fold_equals_dense_on_shuffled_block_order():
    assert_fold_matches_dense(lk23(12, 16, shuffle_seed=7))


@pytest.mark.parametrize("hints", [True, False])
@pytest.mark.parametrize("iterations", [1, 4])
def test_fold_equals_dense_for_edge_options(monkeypatch, hints, iterations):
    # task_matrix folds the default extraction; route other options
    # through it to check the fold on every edge set.
    edges = functools.partial(
        affinity.static_edges, iterations=iterations, use_affinity_hints=hints
    )
    monkeypatch.setattr(binder, "static_edges", edges)
    for program in (lk23(12, 16), odd_program()):
        assert_fold_matches_dense(program, iterations, hints)


def test_fold_on_degenerate_locations():
    tm = assert_fold_matches_dense(odd_program())
    assert tm.labels == ("A", "B", "C", "D")
    # sync carries no payload, own stays inside A, inner inside C.
    assert tm.volume(0, 1) == 4096.0  # shared: B/main -> A/sub
    assert tm.volume(0, 2) == 4096.0  # shared: C/main -> A/sub
    assert tm.volume(1, 2) == 4096.0  # shared: B/main -> C/sub
    assert tm.row_volume(3) == 0.0


def test_static_edges_order_and_exclusions():
    w, r, vol = static_edges(odd_program(), iterations=2)
    # sync has no payload; A/main reading back "own" is dropped; every
    # other writer x reader pair stays, in location then handle order.
    assert list(zip(w.tolist(), r.tolist())) == [
        (0, 1),
        (2, 1),
        (2, 4),
        (3, 1),
        (3, 4),
        (3, 4),
    ]
    assert vol.tolist() == [128.0] + [8192.0] * 4 + [64.0]


def test_fold_never_builds_the_op_matrix():
    program = build_program(
        Lk23Config(n=matrix_order(768), grid_rows=24, grid_cols=32, iterations=3)
    )
    tracemalloc.start()
    try:
        task_matrix(program)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    order = program.n_operations
    assert order > 6000
    # One dense op×op float64 array alone would be order² × 8 bytes.
    assert peak < 50 * 2**20 < order * order * 8


class TestDenseGuard:
    @pytest.fixture
    def tiny_memory(self, monkeypatch):
        monkeypatch.setattr(affinity, "_physical_memory", lambda: 1024)

    def test_static_matrix_refuses(self, tiny_memory):
        program = lk23(2, 2, n=256)
        message = rf"order {program.n_operations}\b.*granularity='task'"
        with pytest.raises(ValidationError, match=message):
            static_matrix(program)

    def test_traced_matrix_refuses(self, tiny_memory):
        with pytest.raises(ValidationError, match="granularity='task'"):
            traced_matrix(lk23(2, 2, n=256), CommTracer())

    def test_task_mode_binds_without_op_matrix(self, tiny_memory, small_topo):
        program = lk23(2, 2, n=256)
        plan = bind_program(program, small_topo, policy="treematch")
        assert plan.matrix.order == 4
        with pytest.raises(ValidationError, match="granularity='task'"):
            bind_program(program, small_topo, policy="treematch", granularity="op")

    def test_unknown_memory_does_not_block(self, monkeypatch):
        monkeypatch.setattr(affinity, "_physical_memory", lambda: None)
        program = lk23(2, 2, n=256)
        assert static_matrix(program).order == program.n_operations
