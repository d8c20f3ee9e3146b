"""Shared ``--perf-report DIR`` artifact writer of the sweep CLIs.

``repro.tools.fig1``, ``repro.tools.scaling`` and ``repro.tools.dag``
attach a :class:`repro.perf.PerfReport` JSON dict to every point when
run with ``--perf-report``; this module turns those dicts into the
on-disk artifact set (what the nightly CI job uploads):

* ``<stem>.json`` / ``<stem>.txt`` — each point's full report;
* ``topdown-<group>.txt`` — per sweep group (a core count, a preset, a
  DAG workload), the gap attribution of every implementation or policy
  against the group's fastest one (:func:`gaps_to_fastest`, which
  ``repro.tools.perf`` prints too).
"""

from __future__ import annotations

from pathlib import Path

from repro.perf import GapAttribution, PerfReport, attribute_gap
from repro.tools._common import write_json


def gaps_to_fastest(reports: list[PerfReport]) -> list[GapAttribution]:
    """The gap attribution of every report against the fastest one."""
    fastest = min(reports, key=lambda r: r.measured_time)
    return [
        attribute_gap(
            report.attribution, fastest.attribution,
            slow_label=report.label, fast_label=fastest.label,
            measured_slow=report.measured_time,
            measured_fast=fastest.measured_time,
        )
        for report in reports
        if report is not fastest
    ]


def write_point_reports(
    directory: "str | Path",
    entries: list[tuple[str, tuple, "dict | None"]],
) -> int:
    """Write the artifact set, print how many files; returns that number.

    *entries* are ``(file stem, group key, perf JSON dict)`` triples —
    points whose dict is ``None`` (run without tracing) are skipped.
    """
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_files = 0
    groups: dict[tuple, list[PerfReport]] = {}
    for stem, group, perf in entries:
        if perf is None:
            continue
        report = PerfReport.from_json_dict(perf)
        groups.setdefault(group, []).append(report)
        write_json(out_dir / f"{stem}.json", perf)
        (out_dir / f"{stem}.txt").write_text(
            report.render() + "\n", encoding="utf-8"
        )
        n_files += 2
    for group, reports in groups.items():
        if len(reports) < 2:
            continue
        sections = [gap.render() for gap in gaps_to_fastest(reports)]
        tag = "-".join(str(g) for g in group)
        (out_dir / f"topdown-{tag}.txt").write_text(
            "\n\n".join(sections) + "\n", encoding="utf-8"
        )
        n_files += 1
    print(f"\nwrote {n_files} perf artifacts to {directory}")
    return n_files
