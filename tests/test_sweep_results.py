"""Pinned outputs of the three LK23/DAG sweep results and their points.

Each test runs a small sweep (or one point) and compares sha-256
digests of what users read — the rendered tables and the JSON dumps —
against digests recorded before the experiment drivers shared their
point body and paired-sweep code.  A digest mismatch means a table
string, a JSON key or a simulated number moved; print the rendered
text to see which.

All sweeps run serially with the point cache off, so nothing on disk
can serve a stale point.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.dag import run_dag, run_dag_point
from repro.experiments.fig1 import run_fig1, run_point
from repro.experiments.scaling import run_scaling, run_scaling_point


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _json_sha(doc: dict) -> str:
    return _sha(json.dumps(doc, sort_keys=True))


@pytest.fixture(scope="module")
def scaling_result():
    return run_scaling(
        presets=("paper",), seeds=2, iterations=1, cells_per_core=512,
        point_cache=False, n_workers=1,
    )


@pytest.fixture(scope="module")
def dag_result():
    return run_dag(scale=1, n_cores=16, seeds=2, point_cache=False, n_workers=1)


@pytest.fixture(scope="module")
def fig1_result():
    return run_fig1(
        core_counts=(8, 16), n=1024, iterations=1, seeds=2,
        point_cache=False, n_workers=1,
    )


def test_scaling_speedup_table_pinned(scaling_result):
    assert _sha(scaling_result.speedup_table()) == (
        "3910cd2dfa9d1fad876c0187b734f0989ef11591f00b45f97ca254dce750c77c"
    )


def test_scaling_json_pinned(scaling_result):
    assert _json_sha(scaling_result.to_json_dict()) == (
        "b96521816402239042fb0ff98fc95ee1b9ff95b163ecdb4600cfde0a9da71152"
    )


def test_dag_table_pinned(dag_result):
    assert _sha(dag_result.table()) == (
        "9b34b94b547f28d220279a7ebe45d9a1ba8907e912216aa50362aede26e1b6a8"
    )


def test_dag_json_pinned(dag_result):
    assert _json_sha(dag_result.to_json_dict()) == (
        "2699d06974125369d2d6c16aaeeed802be2a799dfb94472fbf23e85aa1db95c8"
    )


def test_dag_paired_verdicts_cover_every_workload(dag_result):
    verdicts = dag_result.paired_verdicts()
    assert list(verdicts) == ["nobind", "service"]
    for rows in verdicts.values():
        assert [w for w, _ in rows] == ["cholesky", "bfs", "divconq"]
        for _, v in rows:
            assert v.candidate == "bind" and v.n_pairs == 2
            assert v.p_corrected >= v.p_value


def test_fig1_table_pinned(fig1_result):
    assert _sha(fig1_result.table()) == (
        "52dc4c8ac99322d17d7535b1b45148d14c9035015539a7e88814d2f59fbfa44e"
    )


def test_fig1_stats_table_pinned(fig1_result):
    assert _sha(fig1_result.stats_table()) == (
        "410a350081dc9a420e6276054110ee2c55cb4d04cdc209ab41f84e6cf8db8e4b"
    )


# -- per-point perf reports and fingerprints --------------------------------


def test_fig1_point_perf_and_fingerprint_pinned():
    p = run_point("orwl-bind", 8, iterations=1, n=1024,
                  fingerprint=True, perf_report=True)
    assert p.fingerprint == (
        "c19883ec5e5003a7a7e8c100fde27b41e33fd4ed360ab18d683f9764a52afa4d"
    )
    assert _json_sha(p.perf) == (
        "ff0b67201ff76f6f08234a216003018c615f572f4e0500556e5bb34d54c49bce"
    )


def test_scaling_point_perf_pinned():
    p = run_scaling_point("paper", "orwl-nobind", iterations=1,
                          cells_per_core=512, perf_report=True)
    assert p.n == 313
    assert _json_sha(p.perf) == (
        "ad2c1d829798d7b8f12e9d4be1c80e0c45d08ddfb94064d41c295d992868296b"
    )


def test_dag_point_perf_and_fingerprint_pinned():
    p = run_dag_point("bfs", "bind", n_cores=16, scale=1,
                      fingerprint=True, perf_report=True)
    assert p.fingerprint == (
        "9040b3d641a818385ae69145c7d0d9a565250c5a44df5d14a80d0ed3149a4c44"
    )
    assert _json_sha(p.perf) == (
        "51968d70d3df0e28acd7b824867e2ebec20ae33e885519c6a07b3b8fb3c26900"
    )


def test_perf_tool_traced_openmp_run_pinned():
    from repro.tools.perf import run_traced

    report, events = run_traced("paper", "openmp", 313, 1, 0)
    assert len(events) == 1152
    assert _json_sha(report.to_json_dict()) == (
        "3d1e18121b8b6aa3a13786cd04bfaaa7375929bb3ba80e831fe74b3c5c5efc41"
    )
    assert _sha(report.render()) == (
        "7f42ec2df9113aacb4b8b65fd1c53597f6480539c10689773248d282309bb249"
    )
