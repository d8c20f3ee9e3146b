"""Trace exporters: JSON-lines (lossless) and Chrome ``trace_event``.

JSON-lines is the archival format: one event per line, every field,
floats round-tripped exactly (Python's ``json`` emits shortest-repr
floats), so ``read_jsonl(write_jsonl(events)) == events`` bit for bit —
the determinism tests rely on this.

The Chrome format targets timeline viewers (Perfetto / ``ui.perfetto.dev``,
``chrome://tracing``): spans become complete (``"ph": "X"``) events and
instants become ``"ph": "i"`` marks, grouped one track per simulated
thread, with thread-name metadata.  Timestamps are microseconds, per the
spec.

The Gantt renderers (:func:`render_gantt`, :func:`gantt_svg`) draw the
PU-occupying spans — ``compute`` and ``transfer`` — one row per PU:
which PU did what when, and where the lock-wait gaps are.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import IO, Iterable, Optional, Union

from repro.observe.tracer import TraceEvent

PathOrFile = Union[str, Path, IO[str]]

#: JSONL field order (stable across releases; importer tolerates extras).
_FIELDS = (
    "seq", "kind", "ts", "dur", "tid", "thread", "pu", "node",
    "level", "nbytes", "detail",
)

#: Chrome track used for machine-level events (scheduler decisions,
#: direct grants) that belong to no simulated thread.
MACHINE_TRACK_TID = 1_000_000


def _open(dst: PathOrFile, mode: str):
    if isinstance(dst, (str, Path)):
        return open(dst, mode, encoding="utf-8"), True
    return dst, False


# -- JSON-lines -------------------------------------------------------------

def event_to_dict(ev: TraceEvent) -> dict:
    return {name: getattr(ev, name) for name in _FIELDS}


def event_from_dict(d: dict) -> TraceEvent:
    return TraceEvent(
        seq=int(d["seq"]),
        kind=str(d["kind"]),
        ts=float(d["ts"]),
        dur=float(d.get("dur", 0.0)),
        tid=int(d.get("tid", -1)),
        thread=str(d.get("thread", "")),
        pu=int(d.get("pu", -1)),
        node=int(d.get("node", -1)),
        level=str(d.get("level", "")),
        nbytes=float(d.get("nbytes", 0.0)),
        detail=str(d.get("detail", "")),
    )


def write_jsonl(events: Iterable[TraceEvent], dst: PathOrFile) -> int:
    """Write one JSON object per line; returns the number of events."""
    fp, close = _open(dst, "w")
    n = 0
    try:
        for ev in events:
            fp.write(json.dumps(event_to_dict(ev), separators=(",", ":")))
            fp.write("\n")
            n += 1
    finally:
        if close:
            fp.close()
    return n


def read_jsonl(src: PathOrFile) -> list[TraceEvent]:
    """Read a stream written by :func:`write_jsonl` (blank lines skipped)."""
    fp, close = _open(src, "r")
    try:
        return [
            event_from_dict(json.loads(line))
            for line in fp
            if line.strip()
        ]
    finally:
        if close:
            fp.close()


def dumps_jsonl(events: Iterable[TraceEvent]) -> str:
    buf = io.StringIO()
    write_jsonl(events, buf)
    return buf.getvalue()


def loads_jsonl(text: str) -> list[TraceEvent]:
    return read_jsonl(io.StringIO(text))


# -- Chrome trace_event ------------------------------------------------------

def chrome_payload(events: Iterable[TraceEvent], process_name: str = "repro-sim") -> dict:
    """Build the ``{"traceEvents": [...]}`` payload for a viewer.

    Spans map to complete events; instants to thread-scoped instant
    events.  The simulated clock (seconds) becomes microseconds.  Extra
    per-event data (pu, node, level, nbytes, detail) lands in ``args``
    so the viewer shows it on selection.
    """
    out: list[dict] = [
        {
            "ph": "M", "pid": 0, "tid": 0, "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    seen_threads: dict[int, str] = {}
    for ev in events:
        tid = ev.tid if ev.tid >= 0 else MACHINE_TRACK_TID
        if tid not in seen_threads:
            seen_threads[tid] = ev.thread or (
                "machine" if tid == MACHINE_TRACK_TID else f"tid{tid}"
            )
        args = {"seq": ev.seq, "pu": ev.pu, "node": ev.node}
        if ev.level:
            args["level"] = ev.level
        if ev.nbytes:
            args["nbytes"] = ev.nbytes
        if ev.detail:
            args["detail"] = ev.detail
        name = ev.kind if not ev.level else f"{ev.kind}[{ev.level}]"
        rec: dict = {
            "name": name,
            "cat": ev.kind,
            "pid": 0,
            "tid": tid,
            "ts": ev.ts * 1e6,
            "args": args,
        }
        if ev.is_span():
            rec["ph"] = "X"
            rec["dur"] = ev.dur * 1e6
        else:
            rec["ph"] = "i"
            rec["s"] = "t"
        out.append(rec)
    for tid, name in sorted(seen_threads.items()):
        out.append(
            {
                "ph": "M", "pid": 0, "tid": tid, "name": "thread_name",
                "args": {"name": name},
            }
        )
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome(
    events: Iterable[TraceEvent], dst: PathOrFile, process_name: str = "repro-sim"
) -> int:
    """Write a Chrome/Perfetto-loadable JSON file; returns event count."""
    payload = chrome_payload(events, process_name=process_name)
    fp, close = _open(dst, "w")
    try:
        json.dump(payload, fp)
    finally:
        if close:
            fp.close()
    # Metadata records are not trace events proper.
    return sum(1 for r in payload["traceEvents"] if r["ph"] != "M")


# -- Gantt charts -----------------------------------------------------------

#: Span kinds a Gantt chart draws: the activities that occupy a PU.
GANTT_KINDS = ("compute", "transfer")


def gantt_spans(events: Iterable[TraceEvent]) -> list[TraceEvent]:
    """The compute and transfer spans of *events*, in emission order."""
    return [e for e in events if e.kind in GANTT_KINDS]


def _pu_spans(spans: list[TraceEvent], pu: int) -> list[TraceEvent]:
    return sorted((e for e in spans if e.pu == pu), key=lambda e: e.ts)


def _makespan(spans: list[TraceEvent]) -> float:
    return max((e.end for e in spans), default=0.0)


def pu_utilization(
    events: Iterable[TraceEvent], pu: int, makespan: Optional[float] = None
) -> float:
    """Busy fraction of *pu* over the run (or over *makespan*).

    Priority threads overlap a PU's other spans; those overlaps count
    twice, which is exactly the cycles they steal (hence the cap at 1).
    """
    spans = gantt_spans(events)
    if makespan is None:
        makespan = _makespan(spans)
    if makespan <= 0:
        return 0.0
    busy = sum(e.dur for e in _pu_spans(spans, pu))
    return min(busy / makespan, 1.0)


def render_gantt(
    events: Iterable[TraceEvent],
    pus: Optional[Iterable[int]] = None,
    width: int = 72,
) -> str:
    """ASCII Gantt chart: one row per PU, '#' compute, '=' transfer."""
    spans = gantt_spans(events)
    if not spans:
        return "(empty timeline)"
    span = _makespan(spans)
    if pus is None:
        pus = sorted({e.pu for e in spans})
    lines = []
    for pu in pus:
        row = [" "] * width
        for e in _pu_spans(spans, pu):
            a = int(e.ts / span * (width - 1))
            b = max(int(e.end / span * (width - 1)), a)
            ch = "#" if e.kind == "compute" else "="
            for x in range(a, b + 1):
                row[x] = ch
        lines.append(f"PU{pu:>3} |{''.join(row)}|")
    lines.append(f"      0{' ' * (width - 10)}{span:.3g}s")
    return "\n".join(lines)


def gantt_svg(
    events: Iterable[TraceEvent], width: int = 900, row_h: int = 16
) -> str:
    """Render as a standalone SVG Gantt chart.

    One row per PU; compute spans green, transfers orange; time axis
    along the bottom.
    """
    spans = gantt_spans(events)
    if not spans:
        return (
            '<svg xmlns="http://www.w3.org/2000/svg" width="200" height="40">'
            '<text x="10" y="25" font-size="12">empty timeline</text></svg>'
        )
    span = _makespan(spans)
    pus = sorted({e.pu for e in spans})
    label_w = 46
    chart_w = width - label_w
    height = len(pus) * (row_h + 4) + 28
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    colors = {"compute": "#6fbf6f", "transfer": "#e8a050"}
    for row, pu in enumerate(pus):
        y = 4 + row * (row_h + 4)
        out.append(
            f'<text x="4" y="{y + row_h - 4}" font-size="10" '
            f'font-family="sans-serif">PU{pu}</text>'
        )
        out.append(
            f'<rect x="{label_w}" y="{y}" width="{chart_w}" height="{row_h}" '
            'fill="#f4f4f4" stroke="#ccc" stroke-width="0.5"/>'
        )
        for e in _pu_spans(spans, pu):
            x0 = label_w + e.ts / span * chart_w
            w = max(e.dur / span * chart_w, 0.5)
            out.append(
                f'<rect x="{x0:.2f}" y="{y}" width="{w:.2f}" height="{row_h}" '
                f'fill="{colors[e.kind]}">'
                f"<title>{e.thread} {e.kind} "
                f"[{e.ts:.6g}, {e.end:.6g}]s</title></rect>"
            )
    axis_y = height - 16
    out.append(
        f'<text x="{label_w}" y="{axis_y + 12}" font-size="10" '
        f'font-family="sans-serif">0</text>'
    )
    out.append(
        f'<text x="{width - 4}" y="{axis_y + 12}" text-anchor="end" '
        f'font-size="10" font-family="sans-serif">{span:.4g}s</text>'
    )
    out.append("</svg>")
    return "\n".join(out)
