"""Disabled metrics must cost <= 1.05x on the paper preset.

The ``repro.metrics`` design contract is near-zero cost when off: every
instrumentation site guards with ``is_enabled()`` (one module-flag read
and a branch), and the engine's cohort sink is a single ``is None``
check per *cohort*, not per event.  This benchmark pins that contract
on the hot path the telemetry wraps — a Figure-1 sweep point on the
paper's machine shape — by timing the identical workload with
collection disabled both on a fresh registry (the baseline) and right
after an enabled run has created every metric and warmed the bridge
paths, then gating the median overhead at 1.05x.

The two kinds of run are interleaved round by round (baseline, enabled,
disabled, baseline, ...), and each round's disabled wall is divided by
the same round's baseline.  A host whose speed drifts during the
benchmark then slows both sides of a ratio alike instead of whichever
block it hit.  The median of the per-round ratios is gated rather than
the ratio of two medians or two bests: on hosts whose vCPUs switch
between a fast and a slow speed for seconds at a time the walls are
bimodal, and two medians (or two minima) taken separately can fall in
different modes.  The enabled overhead is also reported (as
``extra_info``, not a gate: collection cost is allowed to be visible,
just not the disabled baseline).
"""

import gc
import statistics
import time

from repro.experiments.fig1 import run_point
from repro.metrics import core

TIMING_ROUNDS = 21
ITERATIONS = 4
N_CORES = 16
MAX_DISABLED_OVERHEAD = 1.05


def sweep_point_wall() -> float:
    """Wall seconds of one paper-preset Figure-1 point."""
    gc.collect()
    t0 = time.perf_counter()
    run_point(
        implementation="orwl-bind",
        n_cores=N_CORES,
        iterations=ITERATIONS,
        n=2048,
        seed=0,
    )
    return time.perf_counter() - t0


def interleaved_walls() -> dict[str, list[float]]:
    """Per-round walls of the baseline, enabled and disabled runs."""
    walls: dict[str, list[float]] = {"baseline": [], "enabled": [], "disabled": []}
    for _ in range(TIMING_ROUNDS):
        core.reset_registry()
        core.disable()
        walls["baseline"].append(sweep_point_wall())
        # An enabled run creates every metric and warms the bridge
        # paths; the disabled run after it must not have gotten slower.
        core.enable()
        walls["enabled"].append(sweep_point_wall())
        core.disable()
        walls["disabled"].append(sweep_point_wall())
    return walls


def test_disabled_metrics_overhead(benchmark):
    was_enabled = core.is_enabled()
    try:
        core.set_enabled(False)
        sweep_point_wall()  # warm caches/bytecode before any timing
        walls = benchmark.pedantic(interleaved_walls, rounds=1, iterations=1)
    finally:
        core.set_enabled(was_enabled)
        core.reset_registry()

    def median_ratio(side: str) -> float:
        return statistics.median(
            w / b for w, b in zip(walls[side], walls["baseline"])
        )

    overhead = median_ratio("disabled")
    benchmark.extra_info["baseline_wall_s"] = statistics.median(walls["baseline"])
    benchmark.extra_info["disabled_wall_s"] = statistics.median(walls["disabled"])
    benchmark.extra_info["enabled_wall_s"] = statistics.median(walls["enabled"])
    benchmark.extra_info["disabled_overhead"] = overhead
    benchmark.extra_info["enabled_overhead"] = median_ratio("enabled")
    assert overhead <= MAX_DISABLED_OVERHEAD, (
        f"disabled metrics cost {overhead:.3f}x the baseline "
        f"(budget {MAX_DISABLED_OVERHEAD}x, median of {TIMING_ROUNDS} "
        "interleaved rounds)"
    )
