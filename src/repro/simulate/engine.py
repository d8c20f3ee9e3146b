"""Discrete-event simulation core.

A tiny, deterministic event engine: a priority heap of ``(time, seq,
callback)`` entries.  ``seq`` is a monotonically increasing tie-breaker,
so two events at the same timestamp always fire in scheduling order and
every simulation is bit-for-bit reproducible.

Everything above (machine, threads, ORWL runtime) is built out of
:meth:`Engine.schedule` plus :class:`SimEvent` wait/notify.

Two engine modes share the same heap and ordering contract:

* ``"scalar"`` — the reference implementation: one heap entry per
  event, one pop per fired event.  This is the original engine,
  preserved verbatim as the oracle the differential test harness
  (``tests/test_engine_differential.py``) compares against.
* ``"batched"`` (default) — the event-cohort engine.  The drain loop
  pops *all* entries sharing the front timestamp as one cohort
  (preserving ``seq`` order within it), and :meth:`SimEvent.fire`
  releases its waiters as **one** heap entry carrying the whole waiter
  list instead of one push per waiter.  A barrier-style wakeup of N
  threads — the common ORWL case — therefore costs one push and one
  pop instead of N of each, which is where the ≥10× event-throughput
  headline of ``benchmarks/bench_engine_throughput.py`` comes from.

The contract between the modes is absolute: identical firing order,
identical ``events_fired`` / ``pending`` / ``now``, identical trace
streams, metrics, and determinism fingerprints.  See the "Determinism
contract" section of DESIGN.md for the cohort semantics and the seq
tie-break rule, and the differential harness for the enforcement.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle guard)
    from repro.simulate.machine import Machine, SimThread

_INF = float("inf")

#: Engine modes, default first.
ENGINE_MODES = ("batched", "scalar")


class SimulationError(RuntimeError):
    """Raised on engine misuse (non-finite delays, deadlock detection)."""


def _sequence(callbacks: Sequence[Callable[[], None]]) -> Callable[[], None]:
    """One callable invoking *callbacks* in order (cohort release unit)."""

    def run_all() -> None:
        for cb in callbacks:
            cb()

    return run_all


class _ThreadRun:
    """A run of consecutive machine threads parked on one event.

    The batched machine registers waiting threads through
    :meth:`SimEvent.wait_thread`; consecutive registrations against the
    same machine coalesce into one run, released by a single
    :meth:`~repro.simulate.machine.Machine._release_batch` call that
    vectorizes the wakeup accounting over the whole run.
    """

    __slots__ = ("machine", "threads", "names")

    def __init__(self, machine: "Machine", thread: "SimThread", name: str) -> None:
        self.machine = machine
        self.threads = [thread]
        self.names = [name]

    def release(self) -> None:
        self.machine._release_batch(self.threads, self.names)


class _WaiterCohort:
    """Heap payload standing for *n* logical events released together.

    ``items`` is a list of ``(count, fn)`` release units in seq order;
    the counts sum to ``n``.  The engine expands a cohort in place:
    ``events_fired`` advances by ``count`` and the probe fires ``count``
    times before each unit runs, so every observable counter matches
    the scalar engine exactly.
    """

    __slots__ = ("items", "n")

    def __init__(
        self, items: List[tuple[int, Callable[[], None]]], n: int
    ) -> None:
        self.items = items
        self.n = n


class Engine:
    """The event loop owning simulated time.

    The event loop is the single hottest code path in the repo — a
    paper-scale sweep fires tens of millions of events — so ``run``
    binds its hot names once per drain and the class carries
    ``__slots__`` (one engine exists per machine, but its attributes
    are read per event).  The scalar drain deliberately delegates
    per-event work to :meth:`step` (on CPython 3.11+ the specializing
    interpreter inlines the call and keeps one hot code path); the
    batched drain processes whole same-timestamp cohorts per heap
    entry — ``repro.tools.bench`` and
    ``benchmarks/bench_engine_throughput.py`` guard both the
    equivalence and the throughput.
    """

    __slots__ = (
        "_now", "_heap", "_seq", "_events_fired", "_pending", "mode",
        "probe", "metrics_sink",
    )

    def __init__(self, mode: str = "batched") -> None:
        if mode not in ENGINE_MODES:
            raise SimulationError(
                f"unknown engine mode {mode!r}; one of {ENGINE_MODES}"
            )
        #: "batched" (cohort engine, default) or "scalar" (reference).
        self.mode = mode
        self._now = 0.0
        self._heap: list[tuple[float, int, Union[Callable[[], None], _WaiterCohort]]] = []
        self._seq = 0
        self._events_fired = 0
        self._pending = 0
        #: optional observability probe, called with the new simulated
        #: time once per fired event (see repro.observe.Tracer
        #: .on_engine_step).  One ``is None`` check per event when
        #: unused.  Within a batched waiter cohort the probe calls for
        #: one release unit are issued back-to-back before the unit's
        #: callbacks run; the probe must therefore be order-insensitive
        #: within a single timestamp (counting and clock-monotonicity
        #: checks are).
        self.probe: Optional[Callable[[float], None]] = None
        #: optional live-telemetry sink, called with the cohort size
        #: once per dispatched waiter cohort (see
        #: repro.metrics.bridge.cohort_sink).  One ``is None`` check
        #: per cohort — not per event — when unused, so the disabled
        #: cost is far below the 1.05x metrics-overhead budget.
        self.metrics_sink: Optional[Callable[[int], None]] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events processed so far (for diagnostics)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of events still queued (cohorts count every waiter)."""
        return self._pending

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run *fn* at ``now + delay`` (delay may be 0; must be finite
        and non-negative).

        NaN and infinite delays are rejected: ``delay < 0`` is False
        for NaN, so without the explicit finiteness check a NaN would
        slip into the heap and silently corrupt its ordering (every
        comparison against NaN is False, breaking the sift invariant).
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"delay must be finite and non-negative, got {delay}"
            )
        self._seq = seq = self._seq + 1
        self._pending += 1
        heapq.heappush(self._heap, (self._now + delay, seq, fn))

    def at(self, time: float, fn: Callable[[], None]) -> None:
        """Run *fn* at absolute simulated *time* (>= now, finite)."""
        if not self._now <= time < _INF:
            raise SimulationError(
                f"time must be finite and >= now, got {time} (now={self._now})"
            )
        self._seq = seq = self._seq + 1
        self._pending += 1
        heapq.heappush(self._heap, (time, seq, fn))

    def _schedule_cohort(
        self, delay: float, items: List[tuple[int, Callable[[], None]]], n: int
    ) -> None:
        """Push one heap entry releasing *n* waiters (batched mode).

        Reserves *n* sequence numbers so the tie-break counter stays in
        lockstep with the scalar engine's n individual pushes — any
        event scheduled afterwards sorts after every waiter, exactly as
        it would have with n separate entries.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"delay must be finite and non-negative, got {delay}"
            )
        seq = self._seq + 1
        self._seq += n
        self._pending += n
        heapq.heappush(self._heap, (self._now + delay, seq, _WaiterCohort(items, n)))

    def _fire_cohort(self, time: float, cohort: _WaiterCohort) -> None:
        """Expand a waiter cohort: n logical events at one timestamp."""
        self._pending -= cohort.n
        if self.metrics_sink is not None:
            self.metrics_sink(cohort.n)
        probe = self.probe
        if probe is None:
            self._events_fired += cohort.n
            for _count, fn in cohort.items:
                fn()
        else:
            for count, fn in cohort.items:
                self._events_fired += count
                for _ in range(count):
                    probe(time)
                fn()

    def step(self) -> bool:
        """Fire the next heap entry; returns False when the queue is empty.

        In scalar mode an entry is one event.  In batched mode an entry
        may be a whole waiter cohort, fired in registration order as a
        unit (``events_fired`` advances by the cohort size).
        """
        if not self._heap:
            return False
        time, _, fn = heapq.heappop(self._heap)
        self._now = time
        if fn.__class__ is _WaiterCohort:
            self._fire_cohort(time, fn)  # type: ignore[arg-type]
        else:
            self._pending -= 1
            self._events_fired += 1
            if self.probe is not None:
                self.probe(time)
            fn()  # type: ignore[operator]
        return True

    def run(self, until: Optional[float] = None, max_events: int = 500_000_000) -> float:
        """Drain the event queue (optionally stopping at time *until*).

        Returns the final simulated time.  *max_events* is a runaway
        guard; exceeding it raises :class:`SimulationError` (the
        batched engine checks it between heap entries, so a single
        cohort may overshoot the limit by its width before raising).

        Callbacks may keep scheduling — ``schedule`` / ``at`` push onto
        the same heap the drain pops from, and a zero-delay event
        scheduled from inside a cohort joins the *end* of the current
        timestamp's cohort (its seq is necessarily higher).
        """
        if self.mode == "batched":
            return self._run_batched(until, max_events)
        step = self.step
        fired = 0
        if until is None:
            while step():
                fired += 1
                if fired > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; livelock?"
                    )
        else:
            heap = self._heap
            while heap:
                if heap[0][0] > until:
                    self._now = until
                    break
                step()
                fired += 1
                if fired > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; livelock?"
                    )
        return self._now

    def _run_batched(self, until: Optional[float], max_events: int) -> float:
        """Cohort drain: the ``until`` check and the clock write happen
        once per distinct timestamp instead of once per event.

        The loop carries the peeked front timestamp forward, so each
        fired entry costs exactly one ``heap[0][0]`` peek — the one
        that detects the cohort boundary.  (The scalar drain needs no
        peek at all; this is the batched engine's only per-event
        overhead on workloads without same-time cohorts.)
        """
        heap = self._heap
        pop = heapq.heappop
        limit = self._events_fired + max_events
        if not heap:
            return self._now
        t0 = heap[0][0]
        while True:
            if until is not None and t0 > until:
                self._now = until
                return self._now
            self._now = t0
            # Drain every entry at exactly t0 — including entries the
            # callbacks below push at zero delay, which re-enter the
            # front of the heap with a higher seq.
            while True:
                fn = pop(heap)[2]
                if fn.__class__ is _WaiterCohort:
                    self._fire_cohort(t0, fn)  # type: ignore[arg-type]
                else:
                    self._pending -= 1
                    self._events_fired += 1
                    if self.probe is not None:
                        self.probe(t0)
                    fn()  # type: ignore[operator]
                if self._events_fired > limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; livelock?"
                    )
                if not heap:
                    return self._now
                t1 = heap[0][0]
                if t1 != t0:
                    t0 = t1
                    break


class SimEvent:
    """One-shot wait/notify: threads park on it, ``fire`` releases them.

    The callbacks are whatever the machine registers to resume a thread;
    firing an already-fired event is an error (ORWL grants are unique).

    On a batched engine the waiter list is kept as homogeneous
    *segments* (runs of plain callbacks, runs of machine threads) so
    :meth:`fire` can release everything as one cohort heap entry
    without scanning; on a scalar engine it is a flat callback list and
    ``fire`` schedules one entry per waiter — the reference behaviour.
    """

    __slots__ = ("_engine", "_fired", "_release_at", "_waiters", "_batched", "name")

    def __init__(self, engine: Engine, name: str = "") -> None:
        self._engine = engine
        self._fired = False
        self._release_at = 0.0
        self._batched = engine.mode == "batched"
        # scalar: list of callbacks; batched: list of segments, each a
        # list of callbacks or a _ThreadRun (registration order kept).
        self._waiters: list = []
        self.name = name

    @property
    def fired(self) -> bool:
        return self._fired

    def wait(self, callback: Callable[[], None]) -> None:
        """Invoke *callback* when the event releases.

        Waiting on an already-fired event still honours the fire delay:
        the callback runs at the event's release time (or immediately if
        that has passed).
        """
        if self._fired:
            self._engine.schedule(max(0.0, self._release_at - self._engine.now), callback)
            return
        if self._batched:
            segments = self._waiters
            if segments and segments[-1].__class__ is list:
                segments[-1].append(callback)
            else:
                segments.append([callback])
        else:
            self._waiters.append(callback)

    def wait_thread(self, machine: "Machine", thread: "SimThread", name: str = "") -> None:
        """Park a simulated *thread* of *machine* on this event.

        The batched release path: consecutive thread registrations
        coalesce into one :class:`_ThreadRun` whose wakeup accounting
        the machine vectorizes (see ``Machine._release_batch``).  On a
        scalar engine this degrades to a plain :meth:`wait` with a
        single-thread release closure — same arithmetic, same trace.
        """
        if self._fired:
            self._engine.schedule(
                max(0.0, self._release_at - self._engine.now),
                _ThreadRun(machine, thread, name).release,
            )
            return
        if self._batched:
            segments = self._waiters
            last = segments[-1] if segments else None
            if last is not None and last.__class__ is _ThreadRun and last.machine is machine:
                last.threads.append(thread)
                last.names.append(name)
            else:
                segments.append(_ThreadRun(machine, thread, name))
        else:
            self._waiters.append(_ThreadRun(machine, thread, name).release)

    def fire(self, delay: float = 0.0) -> None:
        """Release all waiters after *delay*; one-shot.

        On a batched engine all waiters leave as a single cohort heap
        entry (one push instead of one per waiter); on a scalar engine
        each waiter is scheduled individually.  Both orders are the
        registration order.
        """
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"delay must be finite and non-negative, got {delay}"
            )
        self._fired = True
        self._release_at = self._engine.now + delay
        waiters = self._waiters
        if not waiters:  # e.g. a lock grant that lands before its acquire
            return
        self._waiters = []
        if not self._batched:
            for cb in waiters:
                self._engine.schedule(delay, cb)
            return
        if len(waiters) == 1:
            # Hot single-waiter path (lock grants, control-thread
            # wake-ups): one plain heap entry, as the loop below would
            # schedule for n == 1.
            segment = waiters[0]
            if segment.__class__ is _ThreadRun:
                if len(segment.threads) == 1:
                    self._engine.schedule(delay, segment.release)
                    return
            elif len(segment) == 1:
                self._engine.schedule(delay, segment[0])
                return
        items: List[tuple[int, Callable[[], None]]] = []
        n = 0
        for segment in waiters:
            if segment.__class__ is _ThreadRun:
                k = len(segment.threads)
                items.append((k, segment.release))
            else:
                k = len(segment)
                items.append((1, segment[0]) if k == 1 else (k, _sequence(segment)))
            n += k
        self._engine._schedule_cohort(delay, items, n)

    def __repr__(self) -> str:
        if self._fired:
            state = "fired"
        elif self._batched:
            waiting = sum(
                len(s.threads) if s.__class__ is _ThreadRun else len(s)
                for s in self._waiters
            )
            state = f"{waiting} waiting"
        else:
            state = f"{len(self._waiters)} waiting"
        return f"<SimEvent {self.name!r} {state}>"
