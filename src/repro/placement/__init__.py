"""The paper's placement add-on: policies, affinity extraction, binder.

* :mod:`~repro.placement.policies` — TreeMatch plus compact / scatter /
  round-robin / random / nobind baselines, with a registry.
* :mod:`~repro.placement.affinity` — communication-matrix extraction
  from ORWL program composition (static) or from runtime traces.
* :mod:`~repro.placement.binder` — :func:`bind_program`, the end-to-end
  add-on (matrix → policy → thread and control-thread placement).
* :mod:`~repro.placement.report` — occupancy/locality reports.
"""

from repro.placement.affinity import (
    control_pairing,
    matrix_correlation,
    static_edges,
    static_matrix,
    traced_matrix,
)
from repro.placement.binder import BindPlan, bind_program
from repro.placement.profiled import ProfiledBind, profile_and_bind
from repro.placement.policies import (
    POLICY_REGISTRY,
    CompactPolicy,
    NoBindPolicy,
    PlacementPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    ScatterPolicy,
    ServicePolicy,
    TreeMatchPolicy,
    make_policy,
)
from repro.placement.service import CommSketch, Decision, PlacementService
from repro.placement import report

__all__ = [
    "control_pairing",
    "matrix_correlation",
    "static_edges",
    "static_matrix",
    "traced_matrix",
    "BindPlan",
    "bind_program",
    "ProfiledBind",
    "profile_and_bind",
    "POLICY_REGISTRY",
    "CompactPolicy",
    "NoBindPolicy",
    "PlacementPolicy",
    "RandomPolicy",
    "RoundRobinPolicy",
    "ScatterPolicy",
    "ServicePolicy",
    "TreeMatchPolicy",
    "make_policy",
    "CommSketch",
    "Decision",
    "PlacementService",
    "report",
]
