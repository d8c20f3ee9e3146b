"""Scaling study: where does the placement advantage saturate?

The paper's Figure 1 stops at the 24-socket × 8-core SMP.  This
experiment keeps the *per-core* workload fixed (weak scaling: every
core owns the same number of matrix cells as in the paper's best
configuration) and grows the machine through the generated presets of
:mod:`repro.topology.generate` — 48, 96, 256 sockets, and a 512-socket
two-tier cluster-of-clusters — running all three implementations at
every size.

Deeper machines mean more of the communication lands on expensive
levels, which is exactly where topology-aware placement pays off — and
also where it must eventually saturate, once ORWL-Bind's halo traffic
is as local as the topology permits while the blind placements degrade
no further.  :meth:`ScalingResult.saturation` finds that knee.

Statistics are the powered-up matched-seed layer: every implementation
runs the *same* seed schedule at each size, so the per-size comparisons
are **paired** (sign-flip permutation tests on per-seed differences),
Cliff's delta reports the effect size next to each p-value, and
Holm–Bonferroni corrects the family of tests across the swept sizes —
one blind 5 %-level test per size would otherwise hand the sweep a
free false positive by sheer multiplicity.  :class:`PairedSweep` holds
this layer for E6 and for the E7 DAG sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Optional, Sequence

from repro.exec.runner import SweepRunner
from repro.experiments.fig1 import IMPLEMENTATIONS, run_lk23_point
# perfbench/spans.py getattr-rebinds these on this module; the body reads fig1's.
from repro.experiments.fig1 import Machine, Runtime, bind_program, build_program, machine_inputs, run_openmp_lk23  # noqa: F401
from repro.stats.aggregate import SeedStats, stats_rows
from repro.stats.significance import PairedVerdict, compare_paired, correct_verdicts
from repro.stats.sweep import ReplicateSpec, run_replicated
from repro.topology.generate import scaling_sizes
from repro.util.validate import ValidationError

#: The paper's best configuration, per core: 16384² cells on 192 cores.
CELLS_PER_CORE = 16384**2 // 192

#: Default machine sizes of the sweep (ascending PU count).
DEFAULT_PRESETS = ("paper", "smp48x8", "smp96x8", "smp256x8", "smp512x8")


@dataclass
class ScalingPoint:
    """One (preset, implementation) measurement."""

    preset: str
    implementation: str
    n_cores: int
    n: int
    time: float
    local_fraction: float
    migrations: int
    remote_bytes: float
    #: JSON dict of the point's :class:`repro.perf.PerfReport` (``None``
    #: unless run with ``perf_report=True``); a plain dict so the point
    #: pickles across sweep workers.
    perf: Optional[dict] = None


def matrix_order(n_cores: int, cells_per_core: int = CELLS_PER_CORE) -> int:
    """The weak-scaling matrix order: ``isqrt(cores × cells-per-core)``.

    Fixed per-core work — at 192 cores this reproduces the paper's
    16384² configuration (to integer rounding).
    """
    if n_cores <= 0:
        raise ValidationError(f"n_cores must be > 0, got {n_cores}")
    if cells_per_core <= 0:
        raise ValidationError(f"cells_per_core must be > 0, got {cells_per_core}")
    return math.isqrt(n_cores * cells_per_core)


def run_scaling_point(
    preset: str,
    implementation: str,
    iterations: int = 3,
    cells_per_core: int = CELLS_PER_CORE,
    seed: int = 0,
    perf_report: bool = False,
) -> ScalingPoint:
    """Run one implementation on one generated machine; returns the point.

    The machine comes from the per-process construction cache (the
    generated presets are registered in
    :data:`repro.topology.presets.PRESETS`), one ORWL task / OpenMP
    worker per core, matrix order fixed per-core by *cells_per_core*.
    With *perf_report*, the run is traced and the point carries the
    JSON form of its :func:`repro.perf.analyze_run` report in ``perf``.
    """
    topo, dm = machine_inputs(preset)
    n = matrix_order(topo.nb_pus, cells_per_core)
    tracer = None
    if perf_report:
        from repro.observe.tracer import Tracer

        tracer = Tracer()
    time, machine = run_lk23_point(topo, dm, implementation, n, iterations, seed, tracer)

    perf = None
    if perf_report:
        from repro.perf import analyze_run

        perf = analyze_run(machine, f"{implementation}@{preset}", time).to_json_dict()

    metrics = machine.metrics
    return ScalingPoint(
        preset=preset,
        implementation=implementation,
        n_cores=topo.nb_pus,
        n=n,
        time=time,
        local_fraction=metrics.local_fraction,
        migrations=metrics.migrations,
        remote_bytes=metrics.remote_bytes,
        perf=perf,
    )


class PairedSweep:
    """A matched-seed sweep of arms over rows (E6 here, E7 in
    :mod:`repro.experiments.dag`): lookups, the Holm-corrected paired
    verdicts of one candidate arm against every other, table cells and
    JSON blocks.

    A result dataclass mixes it in, keeps its data in ``points``
    (replicate 0 per point), ``replicates`` (all runs per ``(row, arm)``
    key in replicate order — the seed pairing), ``seed_stats``,
    ``n_seeds`` and ``alpha``, and sets up the axes: the row and arm
    names, the candidate arm, and the row and arm lists.
    """

    #: name of the row axis (``"preset"``): table head, JSON key.
    row: str
    #: name of the arm axis (``"implementation"``): JSON key.
    arm: str
    #: the arm every other arm is compared against.
    candidate: str
    #: short table tags of some baselines (``{"orwl-nobind": "nobind"}``).
    tags: dict[str, str] = {}

    points: list
    replicates: dict[tuple[str, str], tuple]
    seed_stats: dict
    n_seeds: int
    alpha: float

    def _rows(self) -> list[str]:
        raise NotImplementedError

    def _arms(self) -> list[str]:
        raise NotImplementedError

    def _baselines(self) -> list[str]:
        return [a for a in self._arms() if a != self.candidate]

    # -- lookups -----------------------------------------------------------

    def _lookup(self, table: dict, row: str, arm: str) -> Any:
        try:
            return table[row, arm]
        except KeyError:
            raise KeyError(
                f"no point ({self.row}={row!r}, {self.arm}={arm!r}); swept "
                f"{self._rows() or '(none)'} x {self._arms() or '(none)'}"
            ) from None

    def point_of(self, row: str, arm: str) -> Any:
        """Replicate 0 of one point."""
        return self._lookup(self.replicates, row, arm)[0]

    def times_of(self, row: str, arm: str) -> list[float]:
        """Replicate times in **replicate order** (the seed pairing)."""
        return [p.time for p in self._lookup(self.replicates, row, arm)]

    def mean_time(self, row: str, arm: str) -> float:
        return self._lookup(self.seed_stats, row, arm).mean

    # -- paired significance ----------------------------------------------

    def paired_verdicts(self) -> dict[str, list[tuple[str, PairedVerdict]]]:
        """Matched-seed candidate comparisons, Holm-corrected per baseline.

        For each baseline arm the family of paired tests is "candidate
        vs this baseline on every swept row"; Holm–Bonferroni runs
        across that family, so each :class:`PairedVerdict` carries both
        its raw and corrected p-value.  Keys are baseline names; values
        are ``(row, verdict)`` pairs in sweep order.
        """
        if self.candidate not in self._arms():
            return {}
        rows = self._rows()
        out: dict[str, list[tuple[str, PairedVerdict]]] = {}
        for baseline in self._baselines():
            family = [
                compare_paired(
                    baseline,
                    self.times_of(row, baseline),
                    self.candidate,
                    self.times_of(row, self.candidate),
                    alpha=self.alpha,
                )
                for row in rows
            ]
            out[baseline] = list(zip(rows, correct_verdicts(family)))
        return out

    def speedup(self, row: str, baseline: str) -> float:
        """Mean-time speedup of the candidate over *baseline* on one row."""
        return self.mean_time(row, baseline) / self.mean_time(row, self.candidate)

    # -- rendering ---------------------------------------------------------

    def _paired_table(
        self,
        head: str,
        cells: Callable[[str], str],
        mean_width: int,
        precision: int,
        vs_width: int,
        family: str,
    ) -> list[str]:
        """Header, rule and one line per row, then the verdict notes.

        Each row line is the row name, the caller's *cells* (under its
        *head*), every arm's mean time and, per baseline, the
        candidate's speedup, corrected p-value and Cliff's delta.
        *family* names the rows in the notes ("swept sizes").
        """
        rows, arms = self._rows(), self._arms()
        verdicts = self.paired_verdicts()
        by_key = {
            (baseline, row): v
            for baseline, pairs in verdicts.items()
            for row, v in pairs
        }
        name_w = max([len(self.row)] + [len(r) for r in rows])
        header = f"{self.row:<{name_w}}{head}"
        for arm in arms:
            header += f" {arm + ' mean':>{mean_width}}"
        for baseline in self._baselines():
            tag = "vs " + self.tags.get(baseline, baseline)
            header += f" {tag:>{vs_width}} {'p-corr':>8} {'delta':>7}"
        lines = [header, "-" * len(header)]
        for row in rows:
            line = f"{row:<{name_w}}{cells(row)}"
            for arm in arms:
                try:
                    line += f" {self.mean_time(row, arm):>{mean_width}.{precision}f}"
                except KeyError:
                    line += f" {'-':>{mean_width}}"
            for baseline in self._baselines():
                v = by_key.get((baseline, row))
                if v is None:
                    line += f" {'-':>{vs_width}} {'-':>8} {'-':>7}"
                    continue
                mark = "*" if v.significant else " "
                p = f"{v.p_corrected:.4f}" if v.p_corrected is not None else "n/a"
                speedup = f"{v.speedup_mean:.2f}x{mark}"
                line += f" {speedup:>{vs_width}} {p:>8} {v.delta:>+7.2f}"
            lines.append(line)
        if self.n_seeds > 1:
            lines.append("")
            lines.append(
                f"paired sign-flip permutation tests over {self.n_seeds} matched "
                f"seeds; p-values Holm-Bonferroni-corrected across the "
                f"{len(rows)} {family}; * = significant at "
                f"alpha={self.alpha:g}; delta = Cliff's effect size."
            )
            for pairs in verdicts.values():
                for row, v in pairs:
                    lines.append(f"  [{row}] {v}")
        return lines

    def _paired_json(self) -> dict:
        """The ``stats`` and ``paired_significance`` blocks of the dump."""
        return {
            "stats": stats_rows(self.seed_stats, (self.row, self.arm)),
            "paired_significance": [
                {
                    self.row: row,
                    "baseline": v.baseline,
                    "candidate": v.candidate,
                    "n_pairs": v.n_pairs,
                    "speedup_mean": v.speedup_mean,
                    "speedup_ci": [v.speedup_ci_lo, v.speedup_ci_hi],
                    "delta": v.delta,
                    "effect": v.effect_label,
                    "p_value": v.p_value,
                    "p_corrected": v.p_corrected,
                    "verdict": v.verdict,
                    "method": v.method,
                }
                for pairs in self.paired_verdicts().values()
                for row, v in pairs
            ],
        }


@dataclass
class ScalingResult(PairedSweep):
    """All points of a machine-size sweep plus the paired statistics.

    ``points`` holds replicate 0 of every point (the base-seed run);
    ``replicates`` all N runs per ``(preset, implementation)`` in
    replicate order — order matters, it *is* the seed pairing — and
    ``seed_stats`` the per-point time aggregates.  Lookups, the paired
    verdicts of ORWL-Bind against every other implementation across the
    swept sizes and :meth:`speedup` come from :class:`PairedSweep`.
    """

    row = "preset"
    arm = "implementation"
    candidate = "orwl-bind"
    tags = {"orwl-nobind": "nobind"}

    presets: list[str] = field(default_factory=list)
    #: preset -> core count, in sweep (ascending-size) order.
    sizes: dict[str, int] = field(default_factory=dict)
    iterations: int = 0
    cells_per_core: int = CELLS_PER_CORE
    n_seeds: int = 1
    alpha: float = 0.05
    points: list[ScalingPoint] = field(default_factory=list)
    seed_stats: dict[tuple[str, str], SeedStats] = field(default_factory=dict)
    replicates: dict[tuple[str, str], tuple[ScalingPoint, ...]] = field(
        default_factory=dict
    )

    def _rows(self) -> list[str]:
        return self.presets

    def _arms(self) -> list[str]:
        return self.implementations()

    def implementations(self) -> list[str]:
        """Swept implementations, in the figure's legend order."""
        have = {p.implementation for p in self.points}
        return [impl for impl in IMPLEMENTATIONS if impl in have]

    def speedup_curve(self, baseline: str) -> list[tuple[int, float]]:
        """(cores, bind-speedup-over-baseline) in sweep order."""
        return [
            (self.sizes[preset], self.speedup(preset, baseline))
            for preset in self.presets
        ]

    def saturation(self, baseline: str = "orwl-nobind", gain: float = 0.05) -> Optional[int]:
        """The core count where the placement advantage stops growing.

        Returns the first swept size after which the ORWL-Bind speedup
        over *baseline* no longer improves by more than *gain*
        (default 5 %), or ``None`` if it is still growing at the
        largest machine.
        """
        curve = self.speedup_curve(baseline)
        for (cores, s0), (_, s1) in zip(curve, curve[1:]):
            if s1 <= s0 * (1.0 + gain):
                return cores
        return None

    # -- rendering ---------------------------------------------------------

    def speedup_table(self) -> str:
        """The headline table: per-size times, speedups, corrected p, delta.

        Column widths are derived from the longest implementation /
        preset name, so generated presets with long names stay aligned.
        """
        impls = self.implementations()
        lines = self._paired_table(
            f" {'cores':>6}",
            lambda preset: f" {self.sizes[preset]:>6}",
            mean_width=max([10] + [len(i) + 7 for i in impls]),
            precision=4,
            vs_width=10,
            family="swept sizes",
        )
        for baseline in ("orwl-nobind", "openmp"):
            if baseline not in impls or "orwl-bind" not in impls:
                continue
            sat = self.saturation(baseline)
            tag = "NoBind" if baseline == "orwl-nobind" else "OpenMP"
            lines.append(
                f"placement advantage vs {tag}: "
                + (
                    f"saturates at {sat} cores"
                    if sat is not None
                    else "still growing at the largest swept machine"
                )
            )
        return "\n".join(lines)

    def chart(self, width: int = 64, height: int = 16) -> str:
        """ASCII chart of the ORWL-Bind speedup curves vs machine size."""
        from repro.experiments.plotting import ascii_plot

        series = {}
        for baseline in self._baselines():
            tag = "vs " + self.tags.get(baseline, baseline)
            series[tag] = [(float(c), s) for c, s in self.speedup_curve(baseline)]
        if not series:
            return "(no baselines to compare against)"
        return ascii_plot(
            series,
            width=width,
            height=height,
            xlabel="cores",
            ylabel="ORWL-Bind speedup (x)",
        )

    def to_json_dict(self) -> dict:
        """JSON-safe dump of the sweep (the nightly CI artifact)."""
        return {
            "format": "repro-scaling",
            "presets": list(self.presets),
            "sizes": dict(self.sizes),
            "iterations": self.iterations,
            "cells_per_core": self.cells_per_core,
            "n_seeds": self.n_seeds,
            "alpha": self.alpha,
            "points": [
                {
                    "preset": p.preset,
                    "implementation": p.implementation,
                    "cores": p.n_cores,
                    "n": p.n,
                    "time": p.time,
                    "local_fraction": p.local_fraction,
                    "migrations": p.migrations,
                    "remote_bytes": p.remote_bytes,
                    # Only perf-report runs carry the analysis; keeping
                    # the key out otherwise leaves historical dumps
                    # byte-identical.
                    **({"perf": p.perf} if p.perf is not None else {}),
                }
                for p in self.points
            ],
            **self._paired_json(),
            "saturation": {
                baseline: self.saturation(baseline)
                for baseline in self._baselines()
            },
        }


def run_scaling(
    presets: Sequence[str] = DEFAULT_PRESETS,
    implementations: Sequence[str] = IMPLEMENTATIONS,
    iterations: int = 3,
    cells_per_core: int = CELLS_PER_CORE,
    seed: int = 0,
    seeds: int = 1,
    confidence: float = 0.95,
    alpha: float = 0.05,
    n_workers: int = 1,
    runner: Optional[SweepRunner] = None,
    perf_report: bool = False,
    point_cache: Any = None,
) -> ScalingResult:
    """The full machine-size sweep.

    *presets* name entries of
    :data:`repro.topology.generate.SCALING_SPECS`; they are swept in
    ascending machine size regardless of input order.  Every point is
    replicated *seeds* times with the matched schedule of
    :func:`repro.stats.run_replicated` — the same derived seeds across
    implementations, which is what makes the per-size tests paired.
    Each replicate task carries the machine's PU count as its weight,
    so the runner's chunker dispatches 4096-core points alone instead
    of queueing light points behind them.

    Parallel sweeps build every swept machine's distance model in the
    parent before the pool forks (workers inherit it copy-on-write — on
    the 4096-PU preset that is the difference between one table and one
    per worker); *point_cache* follows
    :func:`repro.exec.cache.resolve_point_cache` (``None`` = the
    environment default, ``False`` = off), making nightly re-runs
    incremental.
    """
    for impl in implementations:
        if impl not in IMPLEMENTATIONS:
            raise ValidationError(
                f"unknown implementation {impl!r}; one of {IMPLEMENTATIONS}"
            )
    sized = scaling_sizes(presets)  # validates names, sorts ascending
    result = ScalingResult(
        presets=[name for name, _ in sized],
        sizes=dict(sized),
        iterations=iterations,
        cells_per_core=cells_per_core,
        n_seeds=seeds,
        alpha=alpha,
    )
    specs = [
        ReplicateSpec(
            run_scaling_point,
            dict(
                preset=preset,
                implementation=impl,
                iterations=iterations,
                cells_per_core=cells_per_core,
                perf_report=perf_report,
            ),
            key=(preset, impl),
            label=f"{impl}@{preset}",
            weight=float(n_cores),
        )
        for preset, n_cores in sized
        for impl in implementations
    ]
    return run_replicated(
        specs,
        seeds=seeds,
        base_seed=seed,
        scope="scaling",
        value_of=attrgetter("time"),
        confidence=confidence,
        runner=runner,
        n_workers=n_workers,
        point_cache=point_cache,
        shared_topologies=[(preset, (), "default") for preset, _ in sized],
    ).fill(result)
