"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

The end-to-end cases run the real ``dag-e7`` workload for one pass
(about ten seconds each).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _run(capsys, *argv: str) -> dict:
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_metric_tables_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == ledger.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == ledger.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_untraced_run_prints_every_end_to_end_metric(capsys):
    result = _run(capsys, "--workload", "dag-e7", "--seconds", "1", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert result["correct"] and result["failed"] == 0
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(capsys):
    result = _run(capsys, "--workload", "dag-e7", "--seed", "5", "--trace", "1")
    names = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_reference_mismatch_counts_as_failed(capsys, monkeypatch):
    reference = checks.load_reference()
    table = json.loads(json.dumps(reference["dag-e7"]))
    table["cholesky/bind#s0"]["time"] *= 1.0000001
    monkeypatch.setattr(checks, "load_reference", lambda: {"dag-e7": table})
    result = _run(capsys, "--workload", "dag-e7", "--seconds", "1", "--trace", "0")
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_check_pass_counts_a_crashed_pass_as_all_failed():
    attempted, failures = checks.check_pass(None, 27)
    assert attempted == 27 and len(failures) == 27


def test_check_pass_compares_against_basis():
    point = {"label": "orwl-bind", "stats": {"time": 1.0, "events": 5}, "problems": []}
    other = {"label": "orwl-bind", "stats": {"time": 1.0, "events": 6}, "problems": []}
    result = {"points": [point], "cache_stats": {}}
    basis = {"points": [other], "cache_stats": {}}
    assert checks.check_pass(result, 1, basis=result)[1] == {}
    _, failures = checks.check_pass(result, 1, basis=basis)
    assert list(failures) == ["orwl-bind"]


def test_end_to_end_times_scale_with_the_mean_host_reading():
    def pass_(wall: float, setup: float) -> dict:
        return {"wall_s": wall, "setup_s": setup, "peak_rss_mb": 10.0,
                "points": [{"label": "orwl-bind", "stats": {"time": 1.0, "events": 100}}]}

    passes = [pass_(2.0, 0.5), pass_(4.0, 0.5)]
    nominal = hostspeed.NOMINAL_RATE
    # A host at half the nominal speed on average halves the scaled times.
    rates = [nominal / 4, nominal / 2, 3 * nominal / 4]
    metrics = ledger.end_to_end(passes, [0.4, 0.6, 0.5], passes[0], rates)
    assert metrics["wall_s"] == pytest.approx(1.5)
    assert metrics["setup_s"] == pytest.approx(0.25)
    assert metrics["events_per_s"] == pytest.approx(100 / 1.5)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_host_reading_restores_cpu_affinity():
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)[:2]
    assert hostspeed.rate(cpus, seconds=0.05) > 0
    assert os.sched_getaffinity(0) == allowed


def test_self_times_subtract_children():
    tree = [
        spans.Span("point", 0.0, 10.0),
        spans.Span("binder", 1.0, 5.0, parent=0),
        spans.Span("affinity", 1.5, 3.0, parent=1),
        spans.Span("simulate", 5.0, 9.0, parent=0),
    ]
    assert spans.self_times(tree) == [2.0, 2.5, 1.5, 4.0]


def _shim_targets() -> dict:
    import importlib

    names = {
        "repro.experiments.fig1": ("Machine", "Runtime", "bind_program", "machine_inputs",
                                   "build_program", "run_openmp_lk23"),
        "repro.experiments.scaling": ("Machine", "Runtime", "bind_program", "machine_inputs",
                                      "build_program", "run_openmp_lk23"),
        "repro.tasks.run": ("Machine", "Runtime", "bind_program", "machine_inputs",
                            "compile_graph", "dag_matrix"),
        "repro.experiments.dag": ("run_dag_point", "run_graph", "build_workload"),
        "repro.exec.cache": ("machine_inputs",),
        "repro.placement.binder": ("static_matrix", "task_matrix"),
        "repro.placement.policies": ("cached_tree_match",),
        "repro.placement.service": ("cached_tree_match",),
    }
    out = {}
    for mod_name, attrs in names.items():
        mod = importlib.import_module(mod_name)
        for attr in attrs:
            out[(mod, attr)] = getattr(mod, attr)
    from repro.exec.runner import SweepRunner
    from repro.placement.service import PlacementService

    out[(SweepRunner, "map")] = SweepRunner.map
    out[(PlacementService, "query_sync")] = PlacementService.query_sync
    return out


def test_shims_restore_the_original_functions():
    before = _shim_targets()
    probe = spans.Probe(recorder=spans.Recorder())
    with pytest.raises(KeyError):
        with probe.installed():
            replaced = [k for k, v in before.items() if getattr(*k) is not v]
            assert len(replaced) == len(before)
            raise KeyError("leave the block early")
    assert all(getattr(*k) is v for k, v in before.items())


def test_traced_point_records_spans_and_restores():
    import workloads

    before = _shim_targets()
    probe = spans.Probe(recorder=spans.Recorder())
    with probe.installed():
        from repro.experiments import dag

        dag.run_dag_point("cholesky", "bind", scale=1)
    assert all(getattr(*k) is v for k, v in before.items())
    names = {s.name for s in probe.recorder.spans}
    assert {"point", "kernels", "binder", "treematch", "runtime.init", "simulate"} <= names
    [record] = probe.points
    stats, problems = workloads.point_stats(record)
    assert problems == [] and stats["events"] > 0 and stats["hop_bytes"] > 0
