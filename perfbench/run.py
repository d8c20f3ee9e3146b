"""Per-layer ledger benchmark of the LK23 and E7 DAG reproductions.

Run from the repository root::

    python3 perfbench/run.py --workload lk23-192 --seed 0 --seconds 35 --trace 0

Every sample is a fresh interpreter (``child.py``) with the on-disk
cache tiers off.  ``--trace 0`` repeats untraced passes for about
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` runs one
untraced pass, one traced pass (plus a profiled pass and, for
``dag-e7``, a pool pass) and reports the per-layer ledger.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
readable report.  The full record, spans included, is written to
``.perfbench/`` under the repository root.

``--record-reference`` stores the run's point statistics as the
workload's reference (run it at the default seed, see README.md).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import ledger  # noqa: E402
from workloads import (  # noqa: E402
    DAG_WORKERS,
    DEFAULT_SEED,
    N_POINTS,
    WORKLOADS,
)

#: Set-up samples a ``--trace 0`` run takes at least.
MIN_SETUPS = 5

#: Workloads whose traced run adds a profiled pass (the simulate split).
PROFILED = ("lk23-192", "dag-e7")

#: Seconds after its start by which a run kills whatever child is left.
HARD_LIMIT = 170

#: Environment switches that would change what a pass measures.
_CLEARED_ENV = ("REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_METRICS", "REPRO_SHM_MANIFEST")


class Bench:
    """One run: starts the child passes, checks them, keeps the record."""

    def __init__(self, workload: str, seed: int, reference: dict | None) -> None:
        self.workload = workload
        self.seed = seed
        #: the workload's reference table, or ``None`` when not checked.
        self.reference = reference
        self.attempted = 0
        self.failures: list[dict] = []
        self.record: dict = {}
        #: :func:`hostspeed.rate` readings taken between the timed passes.
        self.rates: list[float] = []
        #: vCPUs the timed passes run on, where the readings are taken.
        self.cpus: list[int] = []
        self._hard_deadline = time.monotonic() + HARD_LIMIT

    @property
    def failed(self) -> int:
        return len(self.failures)

    def spawn(self, mode: str, n_workers: int = 1, timed: bool = False) -> dict | None:
        """Run one child pass; its JSON plus ``setup_s`` and ``elapsed_s``.

        A *timed* pass is followed (and the first one preceded) by a host
        speed reading.  ``None`` when the child failed (its standard error
        is passed on).  The child leads its own process group, which is
        killed if the run's time is up or the run itself is stopped.
        """
        if timed and not self.rates:
            self.rates.append(hostspeed.rate(self.cpus))
        cmd = [sys.executable, str(HERE / "child.py"), mode, self.workload,
               str(self.seed), str(n_workers)]
        env = {k: v for k, v in os.environ.items() if k not in _CLEARED_ENV}
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                                text=True, start_new_session=True)
        try:
            stdout, _ = proc.communicate(
                timeout=max(self._hard_deadline - started, 1.0))
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            print(f"perfbench: {mode} pass timed out", file=sys.stderr)
            return None
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {mode} pass exited {proc.returncode}", file=sys.stderr)
            return None
        out = json.loads(lines[-1])
        out["setup_s"] = out["ready"] - started
        out["elapsed_s"] = time.monotonic() - started
        if timed:
            self.rates.append(hostspeed.rate(self.cpus))
        return out

    def check(self, role: str, result: dict | None, basis: dict | None = None,
              n_expected: int | None = None) -> None:
        """Count *result*'s points and keep the failures; record the pass."""
        self.record[role] = result
        n = N_POINTS[self.workload] if n_expected is None else n_expected
        attempted, failures = checks.check_pass(
            result, n, reference=self.reference,
            basis=basis if basis is not result else None,
        )
        self.attempted += attempted
        for label, problems in failures.items():
            self.failures.append({"pass": role, "point": label, "problems": problems})

    def measure(self, seconds: float) -> dict:
        """The ``--trace 0`` run: repeated untraced passes; end-to-end metrics."""
        if not hasattr(os, "sched_setaffinity"):
            return self._measure(seconds)
        allowed = os.sched_getaffinity(0)
        self.cpus = sorted(allowed)
        if self.workload != "dag-e7":
            # A serial pass is pinned to one vCPU, so that the host speed
            # readings are taken on the vCPU it runs on.
            self.cpus = self.cpus[:1]
        try:
            os.sched_setaffinity(0, self.cpus)
            return self._measure(seconds)
        finally:
            os.sched_setaffinity(0, allowed)

    def _measure(self, seconds: float) -> dict:
        deadline = time.monotonic() + seconds
        workers = DAG_WORKERS if self.workload == "dag-e7" else 1
        basis = None
        setups = []
        if self.workload == "dag-e7":
            # The pool sweep's points come back without engine counts; one
            # serial pass gives them and is what the pool must agree with.
            basis = self.spawn("pass", timed=True)
            self.check("serial", basis)
            if basis is not None:
                setups.append(basis["setup_s"])
        passes = []
        for k in itertools.count():
            out = self.spawn("pass", workers, timed=True)
            basis = basis or out
            self.check(f"pass{k}", out, basis)
            if out is not None:
                passes.append(out)
                setups.append(out["setup_s"])
            took = out["elapsed_s"] if out is not None else 0.0
            if time.monotonic() + took + hostspeed.WINDOW_S > deadline:
                break
        while len(setups) < MIN_SETUPS:
            out = self.spawn("setup", timed=True)
            if out is None:
                break
            setups.append(out["setup_s"])
        self.record["setups"] = setups
        self.record["unscaled_wall_s"] = [p["wall_s"] for p in passes]
        self.record["host_rates"] = self.rates
        if not passes or basis is None:
            raise RuntimeError(f"no pass of {self.workload} completed")
        self._facts(basis, basis)
        return ledger.end_to_end(passes, setups, basis, self.rates)

    def trace(self) -> dict:
        """The ``--trace 1`` run: traced beside untraced; per-layer metrics."""
        untraced = self.spawn("pass")
        self.check("untraced", untraced)
        traced = self.spawn("trace")
        self.check("traced", traced, untraced)
        profile = pool = None
        if self.workload in PROFILED:
            profile = self.spawn("profile")
            n = 1 if self.workload == "lk23-192" else None
            self.check("profile", profile, untraced, n_expected=n)
        if self.workload == "dag-e7":
            pool = self.spawn("pass", DAG_WORKERS)
            self.check("pool", pool, untraced)
        if untraced is None or traced is None:
            raise RuntimeError(f"the traced or untraced pass of {self.workload} failed")
        self._facts(traced, untraced)
        return ledger.per_layer(traced, untraced, profile, pool, DAG_WORKERS)

    def _facts(self, source: dict, basis: dict) -> None:
        """Host facts, cache configuration and counters, simulated speed-ups."""
        for key in ("host", "cache_config", "cache_stats"):
            self.record[key] = source[key]
        self.record["speedups"] = ledger.speedups(basis)


def report(bench: Bench, metrics: dict) -> list[str]:
    """The readable lines printed before the JSON result."""
    record = bench.record
    lines = [
        f"perfbench {bench.workload} seed={bench.seed}",
        "host: " + " ".join(f"{k}={v}" for k, v in record["host"].items()),
        f"cache config: {json.dumps(record['cache_config'])}",
        f"cache_stats after run: {json.dumps(record['cache_stats'])}",
    ]
    if "host_rates" in record:
        lines.append(
            f"unscaled pass walls (s): {' '.join(f'{w:.3f}' for w in record['unscaled_wall_s'])}; "
            f"host rate between them (1/s): {' '.join(f'{r:.1f}' for r in record['host_rates'])}; "
            f"times are scaled to {hostspeed.NOMINAL_RATE:g}/s"
        )
    for name, value in metrics.items():
        lines.append(f"  {name:<28} {value:>16.6g} {ledger.UNITS[name]}")
    for name, value in record["speedups"].items():
        lines.append(
            f"  {name:<28} {value:>16.6g} x  (paper ~{ledger.PAPER[name]}; "
            "the model is otherwise unvalidated against hardware)"
        )
    frac = bench.failed / bench.attempted if bench.attempted else 1.0
    lines.append(f"  {'failed_frac':<28} {frac:>16.6g} ratio "
                 f"({bench.failed} of {bench.attempted} points)")
    for f in bench.failures[:20]:
        lines.append(f"  FAILED {f['pass']} {f['point']}: {'; '.join(f['problems'])}")
    return lines


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's point statistics as the reference")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    reference = None
    if args.seed == DEFAULT_SEED and not args.record_reference:
        reference = checks.load_reference().get(args.workload, {})
    bench = Bench(args.workload, args.seed, reference)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        metrics = bench.trace() if args.trace else bench.measure(args.seconds)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.record_reference:
        basis = bench.record.get("serial") or bench.record.get("untraced") or bench.record["pass0"]
        checks.record_reference(args.workload, basis)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": ledger.UNITS[k]} for k, v in metrics.items()},
    }
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump({"result": result, "failures": bench.failures, **bench.record}, fh)
    for line in report(bench, metrics):
        print(line)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
