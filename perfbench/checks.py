"""Correctness checks on the points of a run, counted rather than raised.

Every point a child pass reports is checked three ways:

* the problems the child found itself (the point raised, a Bind plan
  reused a PU or left the machine, a DAG schedule broke an edge);
* at the default seed, its deterministic statistics against the
  reference recorded in ``reference.json``;
* its statistics against a *basis* pass of the same run and seed (the
  untraced pass for a traced one, the first pass for later ones, the
  serial sweep for a pool sweep), which must agree exactly.

A point with any problem counts as failed; so does every point of a
pass that crashed.  The on-disk cache tiers are off in every pass, so a
disk hit fails the pass's points too.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Statistics compared against the reference and across passes.
COMPARED = (
    "time",
    "events",
    "transfers",
    "remote_bytes",
    "local_fraction",
    "migrations",
    "hop_bytes",
    "graph_digest",
)


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    """``{workload: {point label: {statistic: value}}}``; empty if absent."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def differences(stats: dict, expected: dict, against: str) -> list[str]:
    """Compared statistics present on both sides that differ."""
    return [
        f"{key} = {stats[key]!r}, {against} has {expected[key]!r}"
        for key in COMPARED
        if key in stats and key in expected and stats[key] != expected[key]
    ]


def check_pass(
    result: Optional[dict],
    n_expected: int,
    reference: Optional[dict] = None,
    basis: Optional[dict] = None,
) -> tuple[int, dict[str, list[str]]]:
    """``(attempted, {label: problems})`` of one child pass.

    *result* is the child's JSON (``None`` if it crashed), *n_expected*
    the points it was to run, *reference* the workload's reference table
    when the run is at the default seed, *basis* the pass it must agree
    with.  Only points with problems appear in the returned mapping.
    """
    if result is None:
        return n_expected, {f"#{k}": ["pass crashed"] for k in range(n_expected)}
    failures: dict[str, list[str]] = {}
    disk = {k: v for k, v in result["cache_stats"].items() if "disk" in k and v}
    basis_stats = {p["label"]: p["stats"] for p in basis["points"]} if basis else {}
    for point in result["points"]:
        label, stats = point["label"], point["stats"]
        problems = list(point["problems"])
        if disk:
            problems.append(f"on-disk cache hit with disk tiers off: {disk}")
        if reference is not None:
            if label not in reference:
                problems.append("no reference recorded for this point")
            else:
                problems += differences(stats, reference[label], "reference")
        if label in basis_stats:
            problems += differences(stats, basis_stats[label], "basis pass")
        if problems:
            failures[label] = problems
    missing = n_expected - len(result["points"])
    for k in range(max(missing, 0)):
        failures[f"#missing{k}"] = ["point not reported"]
    return max(n_expected, len(result["points"])), failures


def record_reference(workload: str, result: dict, path: Path = REFERENCE_PATH) -> None:
    """Store *result*'s point statistics as *workload*'s reference."""
    table = load_reference(path)
    table[workload] = {
        p["label"]: {k: p["stats"][k] for k in COMPARED if k in p["stats"]}
        for p in result["points"]
    }
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
