"""Spans and captures around the benchmark's calls into ``repro``.

A :class:`Probe` rebinds the names that callers inside ``repro`` look
up — ``repro.placement.binder.static_matrix``,
``repro.placement.policies.cached_tree_match``, the ``Machine`` and
``Runtime`` names of the experiment modules, ... — to shims defined
here, and restores the originals afterwards.  Nothing under ``src/`` is
edited; the shims only wrap.

Each shim does up to two things:

* **capture** — keep what the call built (the machine's counters, the
  bind plan, the graph run) on the current :class:`PointRecord`, so the
  point's deterministic statistics can be read after the timed region.
  Captures cost a few attribute stores per point and are on in every
  in-process pass.
* **span** — record ``(name, start, end, parent)`` when the probe has a
  :class:`Recorder`.  Spans stay in memory; the benchmark writes them
  out at the end.  Only the traced pass records spans.

A span's *self time* is its duration minus the time its child spans
cover.  Spans named in :data:`LAYERS` stand for a layer; ``point``
spans only group one sweep point's calls, so time that is under a
point but under no layer is unattributed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

#: Span names that stand for a layer of the program.
LAYERS = (
    "topology",
    "kernels",
    "tasks.compile",
    "affinity",
    "binder",
    "binder.task_matrix",
    "treematch",
    "service",
    "runtime.init",
    "simulate",
    "exec",
)

#: Span name of one sweep point (groups layer spans; not a layer).
POINT = "point"

#: Experiment modules whose ``Machine``/``Runtime``/``bind_program``
#: names the shims rebind.
_EXPERIMENTS = (
    "repro.experiments.fig1",
    "repro.experiments.scaling",
    "repro.tasks.run",
)


@dataclass
class Span:
    """One timed call: ``start``/``end`` are ``time.perf_counter`` values."""

    name: str
    start: float
    end: float = 0.0
    #: index of the enclosing span in :attr:`Recorder.spans`, -1 at top.
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start



class Recorder:
    """An in-memory span stack (single-threaded, like the traced pass)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (the traced pass is one thread),
    so the time they cover is the sum of their durations.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


@dataclass
class PointRecord:
    """What one sweep point built, captured for the checks."""

    label: str = ""
    #: the experiment's point object (``Fig1Point``, ``ScalingPoint``, ``DagPoint``).
    result: Any = None
    #: ``"<Exception>: <message>"`` when the point raised.
    error: str = ""
    #: the point's machine, until :meth:`close` reads its counters.
    machine: Any = None
    events: Optional[int] = None
    transfers: Optional[int] = None
    #: ``(main op indices, topology, BindPlan)`` per ``bind_program`` call.
    plans: list = field(default_factory=list)
    #: ``(TaskGraph, GraphRunResult)`` per ``run_graph`` call (traced pass).
    graph_runs: list = field(default_factory=list)

    def close(self) -> None:
        """Read the machine's counters and drop it, as the point's caller would."""
        if self.machine is not None:
            self.events = self.machine.engine.events_fired
            self.transfers = self.machine.metrics.transfers
            self.machine = None


class Probe:
    """Installs the shims of one pass and collects what they record.

    *recorder* turns spans on, and makes the DAG runs record per-task
    timestamps so ``schedule_ok`` can be checked; *profiler* (a
    ``cProfile.Profile``) is enabled around every ``Runtime.run``.
    """

    def __init__(self, recorder: Optional[Recorder] = None, profiler: Any = None) -> None:
        self.recorder = recorder
        self.profiler = profiler
        self.points: list[PointRecord] = []
        self.current: Optional[PointRecord] = None
        self._saved: list[tuple[Any, str, Any]] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        return self.recorder.open(name) if self.recorder is not None else -1

    def _close(self, index: int) -> None:
        if index >= 0:
            self.recorder.close(index)

    def _attrs(self, index: int, **attrs: Any) -> None:
        if index >= 0:
            self.recorder.spans[index].attrs.update(attrs)

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    @contextmanager
    def point(self, label: str) -> Iterator[PointRecord]:
        """Run one point; an exception is recorded on it, not raised."""
        record = PointRecord(label)
        try:
            with self._pointing(record):
                yield record
        except Exception as exc:  # a failed point is counted, not fatal
            record.error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)

    @contextmanager
    def _pointing(self, record: PointRecord) -> Iterator[PointRecord]:
        """Make *record* the one captures go to, inside a ``point`` span."""
        self.points.append(record)
        outer, self.current = self.current, record
        try:
            with self.span(POINT):
                yield record
        finally:
            record.close()
            self.current = outer

    # -- installing and restoring -------------------------------------------

    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[[int, tuple, dict, Any], None]] = None,
    ) -> None:
        """Rebind ``owner.attr`` to a shim timing it as span *name*."""
        probe = self

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def shim(*args: Any, **kwargs: Any) -> Any:
                index = probe._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    probe._close(index)
                if after is not None:
                    after(index, args, kwargs, out)
                return out

            return shim

        self._patch(owner, attr, make)

    def restore(self) -> None:
        """Put every rebound name back (last patched, first restored)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Probe"]:
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def install(self) -> None:
        """Rebind the names of this pass: captures always, spans if traced.

        An untraced pass patches only modules its workload has already
        imported, so installing the probe imports nothing new.
        """
        mods = {}
        for name in _EXPERIMENTS + ("repro.experiments.dag",):
            mod = self._module(name)
            if mod is not None:
                mods[name] = mod
        dag = mods.pop("repro.experiments.dag", None)
        for mod in mods.values():
            self._patch(mod, "Machine", self._machine_factory)
            self._wrap(mod, "bind_program", "binder", after=self._after_bind)
            if self.recorder is not None or self.profiler is not None:
                self._patch(mod, "Runtime", self._runtime_factory)
        if dag is not None:
            self._patch(dag, "run_dag_point", self._dag_point_shim)
            if self.recorder is not None:
                self._patch(dag, "run_graph", self._run_graph_shim)
        if self.recorder is not None:
            self._install_layer_spans(mods, dag)

    def _module(self, name: str) -> Any:
        if self.recorder is not None:
            return importlib.import_module(name)
        return sys.modules.get(name)

    def _install_layer_spans(self, mods: dict, dag: Any) -> None:
        cache = importlib.import_module("repro.exec.cache")
        runner = importlib.import_module("repro.exec.runner")
        binder = importlib.import_module("repro.placement.binder")
        policies = importlib.import_module("repro.placement.policies")
        service = importlib.import_module("repro.placement.service")
        fig1 = mods["repro.experiments.fig1"]
        scaling = mods["repro.experiments.scaling"]
        tasks_run = mods["repro.tasks.run"]

        for mod in (cache, *mods.values()):
            self._wrap(mod, "machine_inputs", "topology")
        for mod in (fig1, scaling):
            self._wrap(mod, "build_program", "kernels")
            self._wrap(mod, "run_openmp_lk23", "simulate")
        self._wrap(dag, "build_workload", "kernels")
        self._wrap(tasks_run, "compile_graph", "tasks.compile", after=self._after_compile)
        self._wrap(binder, "static_matrix", "affinity", after=self._after_matrix)
        self._wrap(tasks_run, "dag_matrix", "affinity", after=self._after_matrix)
        self._wrap(binder, "task_matrix", "binder.task_matrix")
        for mod in (policies, service):
            self._wrap(mod, "cached_tree_match", "treematch", after=self._after_tree_match)
        self._wrap_counted(service.PlacementService, "query_sync", "service")
        self._wrap(runner.SweepRunner, "map", "exec")

    def _wrap_counted(self, owner: Any, attr: str, name: str) -> None:
        """Like :meth:`_wrap`, also storing the memo hits taken inside."""
        cache = importlib.import_module("repro.exec.cache")
        probe = self

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def shim(*args: Any, **kwargs: Any) -> Any:
                before = cache.cache_stats()
                index = probe._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    probe._close(index)
                delta = cache.stats_delta(before)
                probe._attrs(
                    index,
                    memo_hits=delta.get("service_memo_hit", 0)
                    + delta.get("placement_hit", 0),
                )
                return out

            return shim

        self._patch(owner, attr, make)

    # -- shims that build objects -------------------------------------------

    def _machine_factory(self, cls: type) -> Callable:
        probe = self

        @functools.wraps(cls, updated=())
        def make(*args: Any, **kwargs: Any) -> Any:
            with probe.span("runtime.init"):
                machine = cls(*args, **kwargs)
            if probe.current is not None:
                probe.current.machine = machine
            return machine

        return make

    def _runtime_factory(self, cls: type) -> Callable:
        probe = self

        @functools.wraps(cls, updated=())
        def make(*args: Any, **kwargs: Any) -> Any:
            with probe.span("runtime.init") as index:
                runtime = cls(*args, **kwargs)
            program = runtime.program
            probe._attrs(
                index,
                n_ops=program.n_operations,
                n_locations=len(program.locations),
            )
            run = runtime.run

            def run_shim() -> Any:
                with probe.span("simulate"):
                    if probe.profiler is not None:
                        probe.profiler.enable()
                    try:
                        return run()
                    finally:
                        if probe.profiler is not None:
                            probe.profiler.disable()

            runtime.run = run_shim
            return runtime

        return make

    def _dag_point_shim(self, fn: Callable) -> Callable:
        probe = self

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            with probe._pointing(PointRecord()) as record:
                record.result = fn(*args, **kwargs)
            return record.result

        return shim

    def _run_graph_shim(self, fn: Callable) -> Callable:
        probe = self

        @functools.wraps(fn)
        def shim(graph: Any, *args: Any, **kwargs: Any) -> Any:
            kwargs["record_times"] = True
            out = fn(graph, *args, **kwargs)
            if probe.current is not None:
                probe.current.graph_runs.append((graph, out))
            return out

        return shim

    # -- attributes read off results ----------------------------------------

    def _after_bind(self, index: int, args: tuple, kwargs: dict, plan: Any) -> None:
        program, topo = args[0], args[1]
        if self.current is not None:
            mains = [k for k, op in enumerate(program.operations()) if op.is_main]
            self.current.plans.append((mains, topo, plan))

    def _after_compile(self, index: int, args: tuple, kwargs: dict, out: Any) -> None:
        self._attrs(index, n_tasks=args[0].n_tasks)

    def _after_matrix(self, index: int, args: tuple, kwargs: dict, out: Any) -> None:
        if index >= 0:
            import numpy as np

            self._attrs(index, order=out.order, nnz=int(np.count_nonzero(out.values)))

    def _after_tree_match(self, index: int, args: tuple, kwargs: dict, out: Any) -> None:
        matrix = args[1] if len(args) > 1 else kwargs["matrix"]
        self._attrs(index, order=matrix.order)
