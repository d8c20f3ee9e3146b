"""Tests for the ordered read-write lock FIFO — the core ORWL semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.orwl.fifo import AccessMode, FifoError, OrwlFifo, RequestState

R, W = AccessMode.READ, AccessMode.WRITE


def make(log=None):
    log = log if log is not None else []
    fifo = OrwlFifo(on_grant=lambda req: log.append(req.tag), name="loc")
    return fifo, log


class TestBasicGrants:
    def test_first_write_granted_immediately(self):
        fifo, log = make()
        req = fifo.insert(W, "w1")
        assert req.state is RequestState.GRANTED
        assert log == ["w1"]

    def test_second_write_waits(self):
        fifo, log = make()
        fifo.insert(W, "w1")
        r2 = fifo.insert(W, "w2")
        assert r2.state is RequestState.PENDING
        assert log == ["w1"]

    def test_write_granted_after_release(self):
        fifo, log = make()
        r1 = fifo.insert(W, "w1")
        r2 = fifo.insert(W, "w2")
        fifo.release(r1)
        assert r2.state is RequestState.GRANTED
        assert log == ["w1", "w2"]

    def test_consecutive_readers_share(self):
        fifo, log = make()
        a = fifo.insert(R, "r1")
        b = fifo.insert(R, "r2")
        c = fifo.insert(R, "r3")
        assert all(x.state is RequestState.GRANTED for x in (a, b, c))

    def test_reader_behind_writer_waits(self):
        fifo, log = make()
        fifo.insert(W, "w")
        r = fifo.insert(R, "r")
        assert r.state is RequestState.PENDING

    def test_writer_behind_readers_waits_for_all(self):
        fifo, log = make()
        r1 = fifo.insert(R, "r1")
        r2 = fifo.insert(R, "r2")
        w = fifo.insert(W, "w")
        fifo.release(r1)
        assert w.state is RequestState.PENDING
        fifo.release(r2)
        assert w.state is RequestState.GRANTED

    def test_strict_fifo_reader_does_not_jump_writer(self):
        """A reader arriving behind a pending writer must not share with
        the currently granted readers (ordered semantics, no reordering)."""
        fifo, log = make()
        r1 = fifo.insert(R, "r1")
        w = fifo.insert(W, "w")
        r2 = fifo.insert(R, "r2")
        assert r1.state is RequestState.GRANTED
        assert w.state is RequestState.PENDING
        assert r2.state is RequestState.PENDING
        fifo.release(r1)
        assert w.state is RequestState.GRANTED
        assert r2.state is RequestState.PENDING
        fifo.release(w)
        assert r2.state is RequestState.GRANTED

    def test_grant_order_matches_insertion(self):
        fifo, log = make()
        reqs = [fifo.insert(W, f"w{k}") for k in range(4)]
        for req in reqs[:-1]:
            fifo.release(req)
        assert log == ["w0", "w1", "w2", "w3"]


class TestRelease:
    def test_release_pending_rejected(self):
        fifo, _ = make()
        fifo.insert(W, "w1")
        r2 = fifo.insert(W, "w2")
        with pytest.raises(FifoError):
            fifo.release(r2)

    def test_double_release_rejected(self):
        fifo, _ = make()
        r = fifo.insert(W, "w")
        fifo.release(r)
        with pytest.raises(FifoError):
            fifo.release(r)

    def test_foreign_request_rejected(self):
        fifo, _ = make()
        other, _ = make()
        r = other.insert(W, "w")
        with pytest.raises(FifoError):
            fifo.release(r)

    def test_release_middle_reader(self):
        fifo, _ = make()
        r1 = fifo.insert(R, "r1")
        r2 = fifo.insert(R, "r2")
        w = fifo.insert(W, "w")
        fifo.release(r1)
        assert r2.state is RequestState.GRANTED
        assert w.state is RequestState.PENDING


class TestCancel:
    def test_cancel_pending_removes(self):
        fifo, log = make()
        fifo.insert(W, "w1")
        r2 = fifo.insert(W, "w2")
        fifo.cancel(r2)
        assert r2.state is RequestState.CANCELLED
        assert len(fifo) == 1

    def test_cancel_unblocks_successor(self):
        fifo, log = make()
        r1 = fifo.insert(W, "w1")
        r2 = fifo.insert(W, "w2")
        r3 = fifo.insert(W, "w3")
        fifo.release(r1)
        fifo.cancel(r3)  # cancel a pending one behind the new head
        fifo.release(r2)
        assert log == ["w1", "w2"]
        assert len(fifo) == 0

    def test_cancel_granted_acts_as_release(self):
        fifo, log = make()
        r1 = fifo.insert(W, "w1")
        r2 = fifo.insert(W, "w2")
        fifo.cancel(r1)
        assert r2.state is RequestState.GRANTED

    def test_cancel_twice_noop(self):
        fifo, _ = make()
        fifo.insert(W, "w1")
        r2 = fifo.insert(W, "w2")
        fifo.cancel(r2)
        fifo.cancel(r2)  # no error
        assert r2.state is RequestState.CANCELLED


class TestInvariants:
    def test_granted_is_prefix(self):
        fifo, _ = make()
        reqs = [fifo.insert(R if k % 2 else W, f"x{k}") for k in range(6)]
        for _ in range(4):
            states = [r.state for r in fifo.queue]
            granted = [s is RequestState.GRANTED for s in states]
            # all granted entries precede all pending entries
            assert granted == sorted(granted, reverse=True)
            # release the head
            fifo.release(fifo.queue[0])

    def test_holder_modes_never_mixed(self):
        fifo, _ = make()
        import random

        rng = random.Random(42)
        live = []
        for k in range(50):
            if live and rng.random() < 0.4:
                req = live.pop(rng.randrange(len(live)))
                if req.state is RequestState.GRANTED:
                    fifo.release(req)
                else:
                    fifo.cancel(req)
            else:
                live.append(fifo.insert(rng.choice([R, W]), f"q{k}"))
            modes = fifo.holder_modes()
            if AccessMode.WRITE in modes:
                assert len(modes) == 1

    def test_inserted_counter(self):
        fifo, _ = make()
        for k in range(5):
            fifo.insert(R, f"r{k}")
        assert fifo.inserted == 5


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["R", "W", "release"]), min_size=1, max_size=40))
def test_random_protocol_liveness(script):
    """Property: after any sequence of inserts/releases, if the queue is
    non-empty its head is granted (no lost wakeups)."""
    fifo = OrwlFifo(name="prop")
    for action in script:
        if action == "release":
            granted = [r for r in fifo.queue if r.state is RequestState.GRANTED]
            if granted:
                fifo.release(granted[0])
        else:
            fifo.insert(R if action == "R" else W, action)
        if len(fifo):
            assert fifo.queue[0].state is RequestState.GRANTED


class ScanFifo(OrwlFifo):
    """The scan-based grant rule the prefix counters replaced (oracle).

    ``granted_count`` rescans the queue, ``_pump`` re-derives the
    granted prefix and its WRITEs on every pass, and ``release`` removes
    by search — the pre-counter implementation, kept verbatim so the
    O(1) bookkeeping of :class:`OrwlFifo` is checked against it.
    """

    def granted_count(self) -> int:
        n = 0
        for req in self._queue:
            if req.state is RequestState.GRANTED:
                n += 1
            else:
                break
        return n

    def holder_modes(self):
        return [r.mode for r in self._queue if r.state is RequestState.GRANTED]

    def release(self, req) -> None:
        if req.state is not RequestState.GRANTED:
            raise FifoError(
                f"cannot release request {req!r} in state {req.state.value}"
            )
        try:
            self._queue.remove(req)
        except ValueError:
            raise FifoError(f"request {req!r} is not in FIFO {self.name!r}") from None
        req.state = RequestState.RELEASED
        self._pump()

    def _pump(self) -> None:
        granted = []
        while True:
            n_active = self.granted_count()
            if n_active >= len(self._queue):
                break
            nxt = self._queue[n_active]
            assert nxt.state is RequestState.PENDING
            if nxt.mode is AccessMode.WRITE:
                if n_active > 0:
                    break
            else:
                if any(
                    self._queue[k].mode is AccessMode.WRITE for k in range(n_active)
                ):
                    break
            nxt.state = RequestState.GRANTED
            granted.append(nxt)
        for req in granted:
            self._on_grant(req)


#: Script steps.  ``release``/``cancel``/``next`` pick a request by
#: position in the live queue (so granted readers leave from the middle
#: of the prefix, too); ``*_any`` pick among every request ever made,
#: reaching released and cancelled ones (double releases).
_FIFO_STEP = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from([R, W])),
    st.tuples(
        st.sampled_from(["release", "cancel", "next", "release_any", "cancel_any"]),
        st.integers(0, 15),
    ),
    st.tuples(st.sampled_from(["release_foreign", "cancel_foreign"]), st.just(0)),
)


class _Side:
    """One implementation under the differential script."""

    def __init__(self, cls):
        self.log = []
        self.fifo = cls(on_grant=lambda req: self.log.append(req.tag), name="loc")
        self.reqs = []
        # A granted and a pending request of another FIFO.
        other = cls(name="other")
        self.foreign_granted = other.insert(W, "fg")
        self.foreign_pending = other.insert(W, "fp")

    def step(self, action, arg):
        """Apply one step; returns the raised error as (type, message)."""
        try:
            if action == "insert":
                self.reqs.append(self.fifo.insert(arg, f"q{len(self.reqs)}"))
            elif action == "release_foreign":
                self.fifo.release(self.foreign_granted)
            elif action == "cancel_foreign":
                self.fifo.cancel(self.foreign_pending)
            else:
                pool = self.reqs if action.endswith("_any") else self.fifo.queue
                if not pool:
                    return None
                req = pool[arg % len(pool)]
                if action.startswith("release"):
                    self.fifo.release(req)
                elif action.startswith("cancel"):
                    self.fifo.cancel(req)
                else:  # orwl_next: re-insert at the tail, then release
                    self.reqs.append(self.fifo.insert(req.mode, f"q{len(self.reqs)}"))
                    self.fifo.release(req)
        except (FifoError, ValueError) as exc:
            return type(exc), str(exc)
        return None

    def snapshot(self):
        return (
            list(self.log),
            self.fifo.granted_count(),
            self.fifo.holder_modes(),
            [r.tag for r in self.fifo.queue],
            [r.state for r in self.reqs],
        )


@settings(max_examples=200, deadline=None)
@given(st.lists(_FIFO_STEP, min_size=1, max_size=80))
def test_prefix_counters_match_scan_oracle(script):
    """Differential: the O(1) prefix counters grant exactly what the
    scan-based rule grants — same grant sequence, granted count, holder
    modes and request states after every step, and the same errors
    (double/foreign releases, middle-reader releases, cancels)."""
    fast, oracle = _Side(OrwlFifo), _Side(ScanFifo)
    for action, arg in script:
        assert fast.step(action, arg) == oracle.step(action, arg)
        assert fast.snapshot() == oracle.snapshot()
