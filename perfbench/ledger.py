"""The metrics: end-to-end figures of a run and the per-layer ledger.

End-to-end metrics come from untraced passes, each a fresh interpreter:

* ``wall_s`` — wall of the mean pass, after set-up;
* ``setup_s`` — median time from starting an interpreter to the end of
  its imports and cold ``machine_inputs`` build;
* ``events_per_s`` — simulated engine events of one pass over ``wall_s``;
* ``peak_rss_mb`` — median over passes of the larger ``ru_maxrss`` of
  the pass's interpreter and its pool workers;
* ``sim_time_s`` — simulated makespan of the Bind points, summed.

``wall_s`` and ``setup_s`` are scaled to a host running the reference
loop of :mod:`hostspeed` at ``NOMINAL_RATE``, so that the shared host's
drift cancels.

The per-layer ledger comes from one traced pass (spans around the calls
into each layer), set beside an untraced pass of the same seed.  A
layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Optional

from hostspeed import NOMINAL_RATE
from spans import LAYERS, Span, self_times
from workloads import is_bind

#: name -> (unit, better).  ``BENCHMARK.json`` lists the same names.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "events_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_time_s": ("s", "lower"),
}

#: name -> unit, in report order.
PER_LAYER = {
    "topology.build_s": "s",
    "topology.n_pus": "count",
    "kernels.build_s": "s",
    "kernels.n_ops": "count",
    "kernels.n_locations": "count",
    "tasks.compile_s": "s",
    "tasks.n_tasks": "count",
    "affinity.s": "s",
    "affinity.order": "count",
    "affinity.nnz": "count",
    "binder.task_matrix_s": "s",
    "binder.self_s": "s",
    "treematch.s": "s",
    "treematch.calls": "count",
    "treematch.order": "count",
    "treematch.hop_bytes": "B",
    "service.query_s": "s",
    "service.queries": "count",
    "service.memo_hits": "count",
    "exec.parallel_eff": "ratio",
    "exec.overhead_s": "s",
    "cache.placement_hit": "count",
    "cache.placement_miss": "count",
    "cache.model_build": "count",
    "runtime.init_s": "s",
    "simulate.s": "s",
    "simulate.events": "count",
    "simulate.events_per_s": "1/s",
    "simulate.transfers": "count",
    "simulate.remote_bytes": "B",
    "simulate.local_fraction": "ratio",
    "simulate.migrations": "count",
    "simulate.engine_self_frac": "ratio",
    "simulate.machine_self_frac": "ratio",
    "orwl.runtime_self_frac": "ratio",
    "orwl.fifo_self_frac": "ratio",
    "simulate.other_self_frac": "ratio",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}

#: Unit of every metric.
UNITS = {name: unit for name, (unit, _) in END_TO_END.items()} | PER_LAYER

#: The paper's figures the model's speed-ups are printed beside.
PAPER = {"bind_speedup": 2.8, "openmp_speedup": 5.0}


def _times(result: dict) -> dict[str, float]:
    return {
        p["label"]: p["stats"]["time"]
        for p in result["points"]
        if "time" in p["stats"]
    }


def end_to_end(
    passes: list[dict], setups: list[float], basis: dict, rates: list[float]
) -> dict[str, float]:
    """The :data:`END_TO_END` metrics of a run.

    *passes* are the timed untraced passes, *setups* the set-up samples,
    *basis* the pass whose points give the deterministic counts, *rates*
    the host speed readings taken between the timed passes.  Times are
    scaled by the run's mean host speed over :data:`NOMINAL_RATE`.
    """
    scale = statistics.mean(rates) / NOMINAL_RATE
    wall = scale * statistics.mean(p["wall_s"] for p in passes)
    events = sum(p["stats"].get("events", 0) for p in basis["points"])
    times = _times(basis)
    return {
        "wall_s": wall,
        "setup_s": scale * statistics.median(setups),
        "events_per_s": events / wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "sim_time_s": sum(t for label, t in times.items() if is_bind(label)),
    }


def speedups(basis: dict) -> dict[str, float]:
    """Simulated NoBind and OpenMP time over Bind, where the workload has them."""
    times = _times(basis)
    bind = sum(t for label, t in times.items() if is_bind(label))
    out = {}
    nobind = sum(t for label, t in times.items() if "nobind" in label)
    if bind and nobind:
        out["bind_speedup"] = nobind / bind
    if bind and "openmp" in times:
        out["openmp_speedup"] = times["openmp"] / bind
    return out


def per_layer(
    traced: dict,
    untraced: dict,
    profile: Optional[dict] = None,
    pool: Optional[dict] = None,
    n_workers: int = 1,
) -> dict[str, float]:
    """The :data:`PER_LAYER` metrics from one traced and one untraced pass.

    *profile* gives the simulate split; *pool* (a ``dag-e7`` pass on
    *n_workers* processes) gives the sweep's parallel efficiency, taking
    the untraced serial pass's wall as the summed point wall.
    """
    spans = [Span(**s) for s in traced["spans"]]
    own = self_times(spans)
    start, end = traced["window"]
    self_of: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    attrs: dict[str, list[dict]] = defaultdict(list)
    covered = 0.0
    for span, t in zip(spans, own):
        self_of[span.name] += t
        count[span.name] += 1
        attrs[span.name].append(span.attrs)
        if span.name in LAYERS and span.start >= start:
            covered += t

    def total(name: str, key: str) -> float:
        return sum(a.get(key, 0) for a in attrs[name])

    largest = max(attrs["affinity"], key=lambda a: a["order"], default={})
    stats = [p["stats"] for p in traced["points"]]
    n_points = max(len(stats), 1)
    cache = traced["cache_stats"]
    m = {
        "topology.build_s": self_of["topology"],
        "topology.n_pus": traced["n_pus"],
        "kernels.build_s": self_of["kernels"],
        "kernels.n_ops": total("runtime.init", "n_ops"),
        "kernels.n_locations": total("runtime.init", "n_locations"),
        "tasks.compile_s": self_of["tasks.compile"],
        "tasks.n_tasks": total("tasks.compile", "n_tasks"),
        "affinity.s": self_of["affinity"],
        "affinity.order": largest.get("order", 0),
        "affinity.nnz": largest.get("nnz", 0),
        "binder.task_matrix_s": self_of["binder.task_matrix"],
        "binder.self_s": self_of["binder"],
        "treematch.s": self_of["treematch"],
        "treematch.calls": count["treematch"],
        "treematch.order": max((a["order"] for a in attrs["treematch"]), default=0),
        "treematch.hop_bytes": sum(s.get("hop_bytes", 0.0) for s in stats),
        "service.query_s": self_of["service"],
        "service.queries": count["service"],
        "service.memo_hits": total("service", "memo_hits"),
        "exec.parallel_eff": 0.0,
        "exec.overhead_s": 0.0,
        "cache.placement_hit": cache.get("placement_hit", 0),
        "cache.placement_miss": cache.get("placement_miss", 0),
        "cache.model_build": cache.get("model_build", 0),
        "runtime.init_s": self_of["runtime.init"],
        "simulate.s": self_of["simulate"],
        "simulate.events": sum(s.get("events", 0) for s in stats),
        "simulate.transfers": sum(s.get("transfers", 0) for s in stats),
        "simulate.remote_bytes": sum(s.get("remote_bytes", 0.0) for s in stats),
        "simulate.local_fraction": sum(s.get("local_fraction", 0.0) for s in stats) / n_points,
        "simulate.migrations": sum(s.get("migrations", 0) for s in stats),
        "trace.overhead": traced["wall_s"] / untraced["wall_s"],
        "trace.coverage": covered / (end - start),
    }
    m["simulate.events_per_s"] = (
        m["simulate.events"] / m["simulate.s"] if m["simulate.s"] else 0.0
    )
    for name in ("simulate.engine_self_frac", "simulate.machine_self_frac",
                 "orwl.runtime_self_frac", "orwl.fifo_self_frac",
                 "simulate.other_self_frac"):
        m[name] = profile["profile"][name] if profile else 0.0
    if pool is not None:
        m["exec.parallel_eff"] = untraced["wall_s"] / (n_workers * pool["wall_s"])
        m["exec.overhead_s"] = pool["wall_s"] - untraced["wall_s"] / n_workers
    return {name: m[name] for name in PER_LAYER}
