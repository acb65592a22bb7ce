"""Exporter: Chrome/Perfetto ``trace_event`` JSON, and its consumers.

The Perfetto export renders the event timeline as one process with one
named thread (track) per emitter — ``core0..N`` for per-core transaction
spans, ``ctrl<i>``/``gc<i>``/``evict<i>`` for controller-side activity,
``faults`` for injected-fault instants.  Open the file directly at
https://ui.perfetto.dev (or chrome://tracing).  Span pairing happens
here, at export time: ``txn_begin``/``txn_commit`` and
``gc_start``/``gc_end`` become ``ph:"X"`` complete events; everything
else becomes an instant.  ``ts``/``dur`` are microseconds of *simulated*
time, per the trace_event spec.  The same file embeds the hub's metric
summary under ``repro_summary``, which ``--summary`` and ``--compare``
read back.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Tuple, Union

from repro.telemetry.hub import Telemetry

_PID = 1

# kind of the opening event -> (kind of the closing event, span name,
# key field pairing open/close when tracks interleave spans).
_SPAN_PAIRS = {
    "txn_begin": ("txn_commit", "txn", "tx"),
    "gc_start": ("gc_end", "gc", None),
}
_SPAN_CLOSERS = {closer: opener for opener, (closer, _, _) in _SPAN_PAIRS.items()}

# Instants promoted to global scope (full-height markers in the UI).
_GLOBAL_INSTANTS = {"crash", "power_cut"}


def _track_ids(tracks: List[str]) -> Dict[str, int]:
    """Stable tid assignment: cores first (numeric order), then the rest."""
    cores = sorted(
        (t for t in tracks if t.startswith("core")),
        key=lambda t: (len(t), t),
    )
    others = sorted(t for t in tracks if not t.startswith("core"))
    return {track: tid for tid, track in enumerate(cores + others, start=1)}


def to_perfetto(
    telemetry: Telemetry, *, process_name: str = "repro-sim"
) -> dict:
    """Render the hub's timeline as a trace_event JSON object.

    The returned dict is Perfetto/Chrome-loadable as-is; the extra
    ``repro_summary`` key (ignored by the viewers) embeds the metric
    summary so one file carries both the timeline and the histograms.
    """
    events = sorted(telemetry.events, key=lambda e: e[0])
    tids = _track_ids(telemetry.tracks())
    trace: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": _PID,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        trace.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "pid": _PID,
                "tid": tid,
                "args": {"name": track},
            }
        )

    # (track, open-kind, key-value) -> stack of pending (ts, payload).
    open_spans: Dict[Tuple[str, str, object], List[Tuple[float, dict]]] = {}
    spans: List[dict] = []
    instants: List[dict] = []
    for ts_ns, kind, track, payload in events:
        payload = payload or {}
        if kind in _SPAN_PAIRS:
            closer, name, key_field = _SPAN_PAIRS[kind]
            key = (track, kind, payload.get(key_field) if key_field else None)
            open_spans.setdefault(key, []).append((ts_ns, payload))
            continue
        if kind in _SPAN_CLOSERS:
            opener = _SPAN_CLOSERS[kind]
            _, name, key_field = _SPAN_PAIRS[opener]
            key = (track, opener, payload.get(key_field) if key_field else None)
            stack = open_spans.get(key)
            if stack:
                begin_ns, begin_payload = stack.pop()
                args = dict(begin_payload)
                args.update(payload)
                spans.append(
                    {
                        "name": name,
                        "cat": "sim",
                        "ph": "X",
                        "ts": begin_ns / 1e3,
                        "dur": max(ts_ns - begin_ns, 0.0) / 1e3,
                        "pid": _PID,
                        "tid": tids[track],
                        "args": args,
                    }
                )
                continue
            # A close without an open falls through as an instant.
        instants.append(
            {
                "name": kind,
                "cat": "sim",
                "ph": "i",
                "ts": ts_ns / 1e3,
                "s": "g" if kind in _GLOBAL_INSTANTS else "t",
                "pid": _PID,
                "tid": tids.get(track, 0),
                "args": payload,
            }
        )
    # A begin whose end never happened (crash mid-transaction) still
    # deserves a mark on the timeline.
    for (track, kind, _), stack in open_spans.items():
        for ts_ns, payload in stack:
            instants.append(
                {
                    "name": f"{kind} (unclosed)",
                    "cat": "sim",
                    "ph": "i",
                    "ts": ts_ns / 1e3,
                    "s": "t",
                    "pid": _PID,
                    "tid": tids.get(track, 0),
                    "args": payload,
                }
            )
    body = sorted(spans + instants, key=lambda e: e["ts"])
    return {
        "traceEvents": trace + body,
        "displayTimeUnit": "ms",
        "repro_summary": telemetry.summary(),
    }


def write_perfetto(telemetry: Telemetry, path: Union[str, pathlib.Path]) -> dict:
    """Write the Perfetto JSON; returns the exported object."""
    trace = to_perfetto(telemetry)
    pathlib.Path(path).write_text(json.dumps(trace) + "\n")
    return trace


# -- consumers -----------------------------------------------------------------


def load_trace(path: Union[str, pathlib.Path]) -> dict:
    """Load a Perfetto JSON export as ``{"events", "summary"}``.

    ``events`` is the raw trace_event list, ``summary`` the embedded
    ``repro_summary`` (empty when the file carries none).
    """
    obj = json.loads(pathlib.Path(path).read_text())
    return {
        "events": obj.get("traceEvents", []),
        "summary": obj.get("repro_summary", {}),
    }


def validate_perfetto(trace_events: List[dict]) -> List[str]:
    """Structural checks on a trace_event list; returns problem strings."""
    problems = []
    for i, event in enumerate(trace_events):
        for field in ("ph", "ts", "pid", "tid"):
            if field not in event:
                problems.append(f"event {i} missing {field!r}")
                break
        else:
            if event["ph"] not in ("M", "X", "i", "B", "E", "C"):
                problems.append(f"event {i} has unknown ph {event['ph']!r}")
            elif event["ph"] == "X" and "dur" not in event:
                problems.append(f"event {i} is ph=X without dur")
    return problems


def summarize_file(path: Union[str, pathlib.Path]) -> str:
    """Human-readable summary of an exported trace."""
    loaded = load_trace(path)
    lines = [f"{path}: perfetto export, {len(loaded['events'])} events"]
    problems = validate_perfetto(loaded["events"])
    lines.append(
        "structure: OK"
        if not problems
        else "structure: " + "; ".join(problems[:5])
    )
    by_name: Dict[str, int] = {}
    tracks = set()
    lo, hi = float("inf"), 0.0
    for event in loaded["events"]:
        if event.get("ph") == "M":
            continue
        # .get throughout: a malformed trace should still summarize
        # (the problems are already listed above).
        name = event.get("name", "?")
        by_name[name] = by_name.get(name, 0) + 1
        tracks.add(event.get("tid", "?"))
        ts = event.get("ts", 0.0)
        lo = min(lo, ts)
        hi = max(hi, ts + event.get("dur", 0.0))
    if by_name:
        lines.append(f"span: {lo:.1f}..{hi:.1f} us over {len(tracks)} tracks")
    for name in sorted(by_name):
        lines.append(f"  {name}: {by_name[name]}")
    summary = loaded["summary"]
    if summary:
        lines.append(render_summary(summary))
    return "\n".join(lines)


def render_summary(summary: dict) -> str:
    """Text rendering of a hub summary (histograms + counters)."""
    from repro.stats.report import telemetry_figure

    return telemetry_figure(summary).render()


def compare_summaries(a: dict, b: dict, *, names=("A", "B")) -> str:
    """Side-by-side histogram percentiles of two runs, with deltas."""
    from repro.stats.report import FigureData

    fig = FigureData(
        "Telemetry diff",
        f"latency histograms: {names[0]} vs {names[1]}",
        ["Histogram", "Stat", names[0], names[1], "delta %"],
    )
    hists_a = a.get("histograms", {})
    hists_b = b.get("histograms", {})
    for name in sorted(set(hists_a) | set(hists_b)):
        ha, hb = hists_a.get(name, {}), hists_b.get(name, {})
        for stat in ("count", "p50", "p95", "p99", "max"):
            va, vb = float(ha.get(stat, 0.0)), float(hb.get(stat, 0.0))
            delta = (vb - va) / va * 100.0 if va else 0.0
            fig.add_row(name, stat, va, vb, delta)
    if not fig.rows:
        fig.add_note("no histograms present in either summary")
    return fig.render()


def compare_files(
    path_a: Union[str, pathlib.Path], path_b: Union[str, pathlib.Path]
) -> str:
    """:func:`compare_summaries` of two exported traces' embedded summaries."""
    a, b = load_trace(path_a), load_trace(path_b)
    return compare_summaries(
        a["summary"],
        b["summary"],
        names=(pathlib.Path(path_a).name, pathlib.Path(path_b).name),
    )
