"""Affinity extraction from ORWL programs.

The paper: the add-on "automatically extracts task/threads affinity
based on the way they are composed in the application".  Composition
means handle declarations — if operation *r* holds a READ handle on a
location that operation *w* WRITEs, then every iteration moves the
location's payload from *w*'s thread to *r*'s thread.

Two extractors are provided:

* :func:`static_edges` / :func:`static_matrix` — purely structural,
  available *before* any execution (what the paper's launch-time mapping
  uses): volume = location payload size per writer→reader pair, i.e.
  per-iteration traffic.  Absolute scale is irrelevant to TreeMatch;
  ratios are what grouping consumes.  :func:`static_edges` returns the
  pairs as index arrays, which :func:`repro.placement.binder.task_matrix`
  folds straight to tasks; :func:`static_matrix` densifies them at op
  granularity.
* :func:`traced_matrix` — from a :class:`~repro.comm.trace.CommTracer`
  filled by a profiling run, reindexed to program operation order.
  Ablation A5 compares the two.

Both op-level builders refuse, with a :class:`ValidationError`, an
op×op matrix that would not fit in physical memory.
"""

from __future__ import annotations

import os

import numpy as np

from repro.comm.matrix import CommMatrix
from repro.comm.trace import CommTracer
from repro.orwl.program import Program
from repro.util.validate import ValidationError


#: Dense op×op float64 arrays a matrix build holds at once: the array
#: itself and the copy :class:`CommMatrix` keeps.
_DENSE_COPIES = 2


def _physical_memory() -> int | None:
    """Bytes of physical memory, or ``None`` where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_dense_fits(order: int, what: str) -> None:
    """Raise before allocating an op×op matrix larger than physical memory."""
    need = _DENSE_COPIES * order * order * 8
    have = _physical_memory()
    if have is not None and need > have:
        raise ValidationError(
            f"{what}: a dense op matrix of order {order} needs about "
            f"{need / 2**30:.2f} GiB, more than the {have / 2**30:.2f} GiB of "
            "physical memory; bind with granularity='task', which folds the "
            "affinity to tasks without an op matrix"
        )


def static_edges(
    program: Program, iterations: int = 1, use_affinity_hints: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The writer→reader pairs of the handle declarations, as arrays.

    Returns ``(writer, reader, volume)``: operation indices (program
    declaration order) and the bytes each pair exchanges, one entry per
    (location, writer, reader) in location declaration order.  The
    volume is ``location.nbytes * iterations`` — the structural traffic
    of the iterative model.  Writer==reader pairs (an op reading back
    its own location) and zero-weight locations are left out.

    With *use_affinity_hints* (the default for placement), a location's
    ``affinity_bytes`` override is honoured — expressing shared-buffer
    footprints larger than the exported payload.  Pass ``False`` to get
    the pure payload volumes (comparable with runtime traces).
    """
    if iterations <= 0:
        raise ValidationError(f"iterations must be > 0, got {iterations}")
    # One pass over all handles to index writers/readers per location
    # (calling Program.writers_of per location would be O(locations·ops)).
    from repro.orwl.fifo import AccessMode

    writers: dict[str, list[int]] = {}
    readers: dict[str, list[int]] = {}
    for k, op in enumerate(program.operations()):
        for h in op.handles:
            bucket = writers if h.mode is AccessMode.WRITE else readers
            bucket.setdefault(h.location.name, []).append(k)
    w_idx: list[int] = []
    r_idx: list[int] = []
    volume: list[float] = []
    for loc_name, loc in program.locations.items():
        if use_affinity_hints and loc.affinity_bytes is not None:
            weight = loc.affinity_bytes
        else:
            weight = loc.nbytes
        if weight <= 0:
            continue
        vol = weight * iterations
        for wi in writers.get(loc_name, ()):
            for ri in readers.get(loc_name, ()):
                if wi != ri:
                    w_idx.append(wi)
                    r_idx.append(ri)
                    volume.append(vol)
    return (
        np.array(w_idx, dtype=np.intp),
        np.array(r_idx, dtype=np.intp),
        np.array(volume, dtype=np.float64),
    )


def static_matrix(
    program: Program, iterations: int = 1, use_affinity_hints: bool = True
) -> CommMatrix:
    """Build the op-level communication matrix from handle declarations.

    The densification of :func:`static_edges`: every (writer, reader)
    pair adds its volume to both ``(writer, reader)`` and
    ``(reader, writer)``.  Paper-mode binding does not need it — it
    folds the edges to tasks directly — so this serves op granularity
    and the ablations.
    """
    ops = program.operations()
    n = len(ops)
    _check_dense_fits(n, "static_matrix")
    w, r, vol = static_edges(program, iterations, use_affinity_hints)
    edges = zip(w.tolist(), r.tolist(), vol.tolist())
    return CommMatrix.from_edges(n, edges, labels=[op.name for op in ops])


def traced_matrix(program: Program, tracer: CommTracer) -> CommMatrix:
    """Reindex a runtime trace to program-operation order.

    Operations absent from the trace (they never communicated) get zero
    rows; trace entities that are not program operations (e.g. control
    threads) are dropped.
    """
    ops = program.operations()
    _check_dense_fits(len(ops), "traced_matrix")
    raw = tracer.to_matrix()
    pos_in_trace = {name: k for k, name in enumerate(raw.labels)}
    n = len(ops)
    m = np.zeros((n, n))
    for i, a in enumerate(ops):
        ti = pos_in_trace.get(a.name)
        if ti is None:
            continue
        for j in range(i + 1, n):
            tj = pos_in_trace.get(ops[j].name)
            if tj is None:
                continue
            v = raw.values[ti, tj]
            m[i, j] = m[j, i] = v
    return CommMatrix(m, labels=[op.name for op in ops])


def control_pairing(program: Program) -> tuple[int, ...]:
    """Pair each task's control thread with its main operation's index.

    Falls back to the task's first declared operation when it has no
    ``main``.  Order: program task declaration order (the same order the
    runtime creates control threads in).
    """
    ops = program.operations()
    index = {op.name: k for k, op in enumerate(ops)}
    pairing: list[int] = []
    for task in program.tasks.values():
        main = task.main_operation
        if main is None:
            if not task.operations:
                raise ValidationError(f"task {task.name!r} has no operations")
            main = next(iter(task.operations.values()))
        pairing.append(index[main.name])
    return tuple(pairing)


def matrix_correlation(a: CommMatrix, b: CommMatrix) -> float:
    """Pearson correlation of two matrices' off-diagonal entries.

    Used by ablation A5 to quantify how well the static extraction
    predicts the traced reality (1.0 = identical structure).
    """
    if a.order != b.order:
        raise ValidationError(f"orders differ: {a.order} vs {b.order}")
    n = a.order
    if n < 2:
        return 1.0
    iu = np.triu_indices(n, k=1)
    x = a.values[iu]
    y = b.values[iu]
    sx, sy = float(x.std()), float(y.std())
    if sx == 0.0 or sy == 0.0:
        return 1.0 if np.allclose(x * sy, y * sx) else 0.0
    return float(np.corrcoef(x, y)[0, 1])
