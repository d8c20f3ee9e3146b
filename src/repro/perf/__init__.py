"""Trace-derived performance analysis (post-mortem, zero new probes).

``repro.perf`` consumes the :mod:`repro.observe` event stream of one
traced run and answers the questions a performance engineer would put
to ``perf`` / LIKWID / a flamegraph on real hardware:

* :mod:`~repro.perf.critpath` — the longest weighted dependency chain
  (the makespan's lower bound) and an exact backward-walk partition of
  the makespan into compute / transfer-by-level / wait / runq /
  migration / idle buckets;
* :mod:`~repro.perf.counters` — LIKWID-style derived counter groups
  (CPU, STALL, MEM, NUMA, SCHED);
* :mod:`~repro.perf.numa` — directed node x node traffic matrices with
  ASCII heatmap rendering;
* :mod:`~repro.perf.topdown` — gap attribution between two runs whose
  buckets sum to the measured time difference;
* :mod:`~repro.perf.flamegraph` — folded-stack export for
  ``flamegraph.pl`` / speedscope;
* :mod:`~repro.perf.report` — :func:`analyze`, the one-call facade
  (:func:`analyze_run` for one traced sweep point).

Everything here is a pure function of the event stream: same seed,
same report, byte for byte.
"""

from repro.perf.counters import (
    LOCAL_LEVELS,
    CounterGroup,
    Metric,
    compute_counter_groups,
    render_counter_groups,
)
from repro.perf.critpath import (
    Attribution,
    CriticalPath,
    attribute_makespan,
    extract_critical_path,
)
from repro.perf.flamegraph import folded_stacks, write_folded
from repro.perf.numa import (
    TrafficMatrix,
    producer_node_of,
    render_heatmap,
    traffic_matrix,
)
from repro.perf.report import PerfReport, analyze, analyze_run
from repro.perf.spans import WORK_KINDS, TraceIndex, bucket_of, ensure_index
from repro.perf.topdown import GapAttribution, attribute_gap

__all__ = [
    "LOCAL_LEVELS",
    "WORK_KINDS",
    "Attribution",
    "CounterGroup",
    "CriticalPath",
    "GapAttribution",
    "Metric",
    "PerfReport",
    "TraceIndex",
    "TrafficMatrix",
    "analyze",
    "analyze_run",
    "attribute_gap",
    "attribute_makespan",
    "bucket_of",
    "compute_counter_groups",
    "ensure_index",
    "extract_critical_path",
    "folded_stacks",
    "producer_node_of",
    "render_counter_groups",
    "render_heatmap",
    "traffic_matrix",
    "write_folded",
]
