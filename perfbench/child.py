"""One pass of one workload in a fresh interpreter, reported as JSON.

``run.py`` starts this file once per sample so that every sample pays
its own interpreter start, imports and cold topology build, as a user's
run does.  Usage::

    python3 perfbench/child.py MODE WORKLOAD SEED N_WORKERS

MODE is one of

* ``setup``   — imports and the cold ``machine_inputs`` build only;
* ``pass``    — set-up, then one timed pass with captures only;
* ``trace``   — set-up and pass with every layer span recorded;
* ``profile`` — a pass with ``cProfile`` on around ``Runtime.run``.

The last line of standard output is one JSON object.  ``ready`` is the
``time.monotonic()`` reading when set-up finished (the clock is shared
with the parent, which noted the start), ``wall_s`` the pass's wall.
"""

from __future__ import annotations

import contextlib
import cProfile
import dataclasses
import json
import os
import pstats
import resource
import sys
import time
from importlib import metadata
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Source files whose self time the profiled pass reports, by metric name.
PROFILE_GROUPS = {
    "simulate.engine_self_frac": "repro/simulate/engine.py",
    "simulate.machine_self_frac": "repro/simulate/machine.py",
    "orwl.runtime_self_frac": "repro/orwl/runtime.py",
    "orwl.fifo_self_frac": "repro/orwl/fifo.py",
}


def profile_shares(profiler: cProfile.Profile) -> dict[str, float]:
    """Self-time share of each :data:`PROFILE_GROUPS` file, plus the rest."""
    totals = dict.fromkeys(PROFILE_GROUPS, 0.0)
    everything = 0.0
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(profiler).stats.items():
        everything += tottime
        path = filename.replace(os.sep, "/")
        for name, suffix in PROFILE_GROUPS.items():
            if path.endswith(suffix):
                totals[name] += tottime
    shares = {k: v / everything for k, v in totals.items()} if everything else totals
    shares["simulate.other_self_frac"] = 1.0 - sum(shares.values()) if everything else 0.0
    return shares


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MiB.

    This process's own peak is ``VmHWM``, where Linux has it: its
    ``ru_maxrss`` also counts the parent's RSS at the fork before exec.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with contextlib.suppress(OSError):
        with open("/proc/self/status") as fh:
            own = next(
                (int(line.split()[1]) for line in fh if line.startswith("VmHWM:")), own
            )
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv: list[str]) -> int:
    mode, workload, seed, n_workers = argv[0], argv[1], int(argv[2]), int(argv[3])
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    workloads.import_program(workload)
    from repro.exec import cache

    profiler = cProfile.Profile() if mode == "profile" else None
    probe = spans.Probe(
        recorder=spans.Recorder() if mode == "trace" else None, profiler=profiler
    )
    out: dict = {"mode": mode, "workload": workload, "seed": seed}
    # A pool pass runs its points in the workers, out of the probe's
    # reach, so it runs unpatched.
    with probe.installed() if n_workers == 1 else contextlib.nullcontext():
        topo = workloads.build_machine(workload)
        out["ready"] = time.monotonic()
        if mode != "setup":
            start = time.perf_counter()
            workloads.run(
                workload,
                seed,
                probe,
                n_workers=n_workers,
                implementations=("orwl-bind",) if mode == "profile" else None,
            )
            end = time.perf_counter()
            out.update(wall_s=end - start, window=[start, end])
    out["peak_rss_mb"] = peak_rss_mb()
    out["n_pus"] = topo.nb_pus
    points = []
    for record in probe.points:
        stats, problems = workloads.point_stats(record)
        points.append({"label": record.label, "stats": stats, "problems": problems})
    out["points"] = points
    if probe.recorder is not None:
        out["spans"] = [dataclasses.asdict(s) for s in probe.recorder.spans]
    if profiler is not None:
        out["profile"] = profile_shares(profiler)
    out["cache_stats"] = cache.cache_stats()
    out["cache_config"] = {
        "enabled": cache.cache_enabled(),
        "dir": None if cache.cache_dir() is None else str(cache.cache_dir()),
        "point_cache": False,
        "env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
    }
    out["host"] = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
