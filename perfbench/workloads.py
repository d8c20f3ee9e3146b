"""The benchmark's three workloads and the statistics read off each point.

* ``lk23-192`` — the Figure 1 headline point: LK23 on ``paper-smp``
  24×8, n=16384, 5 iterations, orwl-bind, orwl-nobind and openmp, one
  :func:`repro.experiments.fig1.run_point` each, serially.
* ``lk23-768`` — the E6 weak-scaling point: orwl-bind on ``smp96x8``,
  ``n = matrix_order(768)``, 3 iterations, through
  :func:`repro.experiments.scaling.run_scaling_point`.
* ``dag-e7`` — the E7 sweep: cholesky, bfs and divconq at scale 4 under
  bind, nobind and service on ``paper-smp`` 4×8 with 3 seeds, through
  :func:`repro.experiments.dag.run_dag` (the on-disk point cache off).

The workload seed drives the simulation seed and, for ``dag-e7``, the
graph seed.  Everything here runs inside a child interpreter started
by ``run.py``; nothing is imported from ``repro`` at module level.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

WORKLOADS = ("lk23-192", "lk23-768", "dag-e7")

#: The seed the stored reference statistics were recorded at.
DEFAULT_SEED = 0

#: ``machine_inputs`` arguments of each workload's machine.
MACHINE = {
    "lk23-192": ("paper-smp", 24, 8),
    "lk23-768": ("smp96x8",),
    "dag-e7": ("paper-smp", 4, 8),
}

#: Points one pass of each workload runs.
N_POINTS = {"lk23-192": 3, "lk23-768": 1, "dag-e7": 27}

#: Pool size of the timed ``dag-e7`` sweep.
DAG_WORKERS = 2

#: Placement policies whose plans come from TreeMatch.
TREEMATCH_POLICIES = ("treematch", "service")

_DAG = dict(scale=4, seeds=3, n_cores=32)


def import_program(workload: str) -> None:
    """Import what the workload runs (part of set-up time)."""
    import repro.exec.cache  # noqa: F401

    if workload == "lk23-192":
        import repro.experiments.fig1  # noqa: F401
    elif workload == "lk23-768":
        import repro.experiments.scaling  # noqa: F401
    elif workload == "dag-e7":
        import repro.experiments.dag  # noqa: F401
    else:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")


def build_machine(workload: str) -> Any:
    """The cold topology and distance-model build; returns the topology."""
    from repro.exec import cache

    topo, _ = cache.machine_inputs(*MACHINE[workload])
    return topo


def run(
    workload: str,
    seed: int,
    probe: Any,
    n_workers: int = 1,
    implementations: Optional[Sequence[str]] = None,
) -> None:
    """One pass of *workload*; points land on ``probe.points``.

    *implementations* restricts ``lk23-192`` to some of its points (the
    profiled pass runs only orwl-bind).
    """
    if workload == "lk23-192":
        from repro.experiments import fig1

        for impl in implementations or fig1.IMPLEMENTATIONS:
            with probe.point(impl) as point:
                point.result = fig1.run_point(
                    impl, 192, iterations=5, n=16384, seed=seed
                )
    elif workload == "lk23-768":
        from repro.experiments import scaling

        with probe.point("orwl-bind") as point:
            point.result = scaling.run_scaling_point(
                "smp96x8", "orwl-bind", iterations=3, seed=seed
            )
    elif workload == "dag-e7":
        _run_dag(seed, probe, n_workers)
    else:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")


def _run_dag(seed: int, probe: Any, n_workers: int) -> None:
    import sys
    import traceback

    from repro.experiments import dag

    from spans import PointRecord

    try:
        result = dag.run_dag(
            seed=seed, graph_seed=seed, n_workers=n_workers, point_cache=False, **_DAG
        )
    except Exception as exc:  # the whole sweep failed: every point fails
        traceback.print_exc(file=sys.stderr)
        probe.points[:] = [
            PointRecord(f"{w}/{p}#s{r}", error=f"{type(exc).__name__}: {exc}")
            for w in dag.WORKLOADS
            for p in dag.POLICIES
            for r in range(_DAG["seeds"])
        ]
        return
    # A serial sweep made one record per point through the run_dag_point
    # shim; a pool sweep's points only come back as results.
    captured = {id(p.result): p for p in probe.points}
    probe.points[:] = []
    for (w, p), replicates in result.replicates.items():
        for r, point in enumerate(replicates):
            record = captured.get(id(point)) or PointRecord(result=point)
            record.label = f"{w}/{p}#s{r}"
            probe.points.append(record)


def is_bind(label: str) -> bool:
    """Whether a point label names a Bind (TreeMatch-placed) run."""
    return label == "orwl-bind" or "/bind#" in label


def point_stats(record: Any) -> tuple[dict, list[str]]:
    """``(statistics, problems)`` of one point, read after the timed region.

    The statistics are the deterministic ones the checks compare:
    simulated time, engine events, transfers, remote bytes, local
    fraction, migrations, plus TreeMatch hop-bytes for TreeMatch plans
    and the graph digest for DAG points.  Problems are failed checks.
    """
    problems: list[str] = []
    if record.error:
        return {}, [record.error]
    r = record.result
    stats: dict[str, Any] = {
        "time": r.time,
        "local_fraction": r.local_fraction,
        "migrations": r.migrations,
        "remote_bytes": r.remote_bytes,
    }
    if hasattr(r, "graph_digest"):
        stats["graph_digest"] = r.graph_digest
    if record.events is not None:
        stats["events"] = record.events
        stats["transfers"] = record.transfers
    for mains, topo, plan in record.plans:
        if plan.policy in TREEMATCH_POLICIES:
            from repro.treematch.cost import hop_bytes

            stats["hop_bytes"] = hop_bytes(plan.placed_mapping, plan.matrix, topo)
            problems += check_plan(mains, topo, plan)
    for graph, run in record.graph_runs:
        if not run.schedule_ok(graph):
            problems.append("schedule_ok failed: a task ran before its producer published")
    return stats, problems


def check_plan(mains: list[int], topo: Any, plan: Any) -> list[str]:
    """A Bind plan puts every main op on a PU in ``[0, nb_pus)``.

    When there are no more main ops than PUs (the LK23 points, one task
    per core), each main op must also have a PU of its own.  The DAG
    points have more tasks than PUs, so there PUs are necessarily shared.
    """
    pus = [plan.mapping.pu(k) for k in mains]
    problems = []
    outside = [pu for pu in pus if not 0 <= pu < topo.nb_pus]
    if outside:
        problems.append(f"plan puts {len(outside)} main ops outside [0, {topo.nb_pus})")
    if len(pus) <= topo.nb_pus and len(set(pus)) != len(pus):
        problems.append(f"plan shares PUs: {len(pus)} main ops on {len(set(pus))} PUs")
    return problems
