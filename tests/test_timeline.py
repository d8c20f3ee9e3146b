"""Tests for the Gantt view of a run: the tracer's compute/transfer spans."""

import pytest

from repro.observe import (
    TraceEvent,
    Tracer,
    gantt_spans,
    gantt_svg,
    pu_utilization,
    render_gantt,
)
from repro.simulate import Compute, Machine, Receive, Wait


def _span(seq, tid, thread, kind, pu, start, end):
    return TraceEvent(seq, kind, start, end - start, tid, thread, pu)


class TestTimelineUnit:
    def test_empty(self):
        assert gantt_spans([]) == []
        assert render_gantt([]) == "(empty timeline)"
        assert pu_utilization([], 0) == 0.0

    def test_record_and_query(self):
        events = [
            _span(0, 0, "a", "compute", 0, 0.0, 1.0),
            TraceEvent(1, "wait", 1.0, 0.5, 0, "a", 0),
            _span(2, 1, "b", "transfer", 0, 1.0, 1.5),
            _span(3, 0, "a", "compute", 1, 0.0, 2.0),
        ]
        spans = gantt_spans(events)
        assert len(spans) == 3
        assert len([e for e in spans if e.tid == 0]) == 2
        assert max(e.end for e in spans) == 2.0
        assert pu_utilization(events, 0, makespan=1.5) == pytest.approx(1.0)
        assert pu_utilization(events, 0) == pytest.approx(0.75)
        assert pu_utilization(events, 1) == pytest.approx(1.0)

    def test_render_shape(self):
        events = [
            _span(0, 0, "a", "compute", 0, 0.0, 1.0),
            _span(1, 1, "b", "transfer", 2, 0.5, 1.0),
        ]
        lines = render_gantt(events, width=40).splitlines()
        assert lines[0].startswith("PU  0")
        assert "#" in lines[0]
        assert "=" in lines[1]

    def test_svg_export(self):
        import xml.etree.ElementTree as ET

        events = [
            _span(0, 0, "a", "compute", 0, 0.0, 1.0),
            _span(1, 1, "b", "transfer", 1, 0.2, 0.8),
        ]
        doc = gantt_svg(events)
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        assert "#6fbf6f" in doc  # compute colour
        assert "#e8a050" in doc  # transfer colour
        assert "<title>a compute" in doc

    def test_svg_empty(self):
        assert "empty timeline" in gantt_svg([])


class TestMachineIntegration:
    def test_disabled_by_default(self, small_topo):
        m = Machine(small_topo, seed=0)
        assert m.tracer is None

    def test_compute_segments_recorded(self, small_topo):
        tracer = Tracer()
        m = Machine(small_topo, seed=0, tracer=tracer)
        tid = m.add_thread("t", bound_pu_os=0)
        m.set_body(tid, iter([Compute(0.5), Compute(0.25)]))
        m.run()
        segs = gantt_spans(tracer.for_thread(tid))
        assert [s.dur for s in segs] == pytest.approx([0.5, 0.25])
        assert all(s.kind == "compute" for s in segs)

    def test_transfer_segments_recorded(self, small_topo):
        tracer = Tracer()
        m = Machine(small_topo, seed=0, tracer=tracer)
        ev = m.new_event()
        prod = m.add_thread("p", bound_pu_os=0)
        cons = m.add_thread("c", bound_pu_os=4)

        def producer():
            yield Compute(0.1)
            ev.fire()

        def consumer():
            yield Wait(ev)
            yield Receive(prod, 1 << 20)

        m.set_body(prod, producer())
        m.set_body(cons, consumer())
        m.run()
        spans = gantt_spans(tracer)
        assert {s.kind for s in spans} == {"compute", "transfer"}
        # The transfer happened on the consumer's PU after the compute.
        tr = [s for s in spans if s.kind == "transfer"][0]
        assert tr.pu == 4
        assert tr.ts >= 0.1

    def test_serialization_visible_in_timeline(self, small_topo):
        tracer = Tracer()
        m = Machine(small_topo, seed=0, tracer=tracer)
        for k in range(2):
            tid = m.add_thread(f"t{k}", bound_pu_os=3)
            m.set_body(tid, iter([Compute(1.0)]))
        m.run()
        segs = sorted(
            (s for s in gantt_spans(tracer) if s.pu == 3), key=lambda s: s.ts
        )
        assert len(segs) == 2
        # Non-overlapping, back to back.
        assert segs[0].end <= segs[1].ts + 1e-12
        assert pu_utilization(tracer, 3) == pytest.approx(1.0)
