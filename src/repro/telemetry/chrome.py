"""Chrome ``trace_event`` JSON export.

Builds the *JSON Object Format* of the Trace Event specification (the
format ``chrome://tracing`` and Perfetto load): a ``traceEvents`` array
of complete (``ph: "X"``), instant (``ph: "i"``) and metadata
(``ph: "M"``) events, plus an ``otherData`` object carrying the run's
flat metrics dict so one file holds both the timeline and the numbers.

Event sources:

* :class:`~.stream.Timeline` spans — resource occupancy intervals
  recorded by :class:`~repro.sim.FifoResource`;
* :class:`~.lifecycle.LifecycleRecorder` message spans — one complete
  event per recorded phase, on one track per owning rank;
* :class:`~.series.SeriesBank` channels — counter (``ph: "C"``) events,
  one track per channel, so gauge history renders as area charts;
* the protocol trace log (``sim.trace``, an
  :class:`~.stream.EventStream`) — protocol events, exported as
  instants on one track per category.

Simulation time is microseconds, which is exactly the ``ts`` unit the
trace format expects — timestamps pass through unscaled.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List

from ..version import __version__
from .collect import snapshot

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator

#: The single process id used for the whole simulated machine.
PID = 0


def chrome_trace(sim: "Simulator", label: str = "") -> Dict[str, Any]:
    """Build the trace dict for one finished simulation.

    Includes whatever the simulator's telemetry collected (timeline
    spans, lifecycle phases, series counters, trace-log records), the
    per-surface drop counts under ``otherData.dropped``, and always the
    metrics snapshot under ``otherData.metrics``.
    """
    events: List[Dict[str, Any]] = []
    tracks: Dict[str, int] = {}

    def tid_of(track: str) -> int:
        t = tracks.get(track)
        if t is None:
            t = tracks[track] = len(tracks)
        return t

    timeline = sim.telemetry.timeline
    if timeline is not None:
        # Adopt the timeline's track order so tids stay deterministic.
        for track in timeline.track_names():
            tid_of(track)
        for tid, name, cat, start, dur in timeline.spans:
            events.append(
                {
                    "name": name,
                    "cat": cat,
                    "ph": "X",
                    "ts": start,
                    "dur": dur,
                    "pid": PID,
                    "tid": tid,
                }
            )
    lifecycle = sim.telemetry.lifecycle
    if lifecycle.enabled:
        for span in lifecycle.spans:
            track = f"msg.r{span.owner}"
            tid = tid_of(track)
            for phase, t0, t1 in span.phases:
                events.append(
                    {
                        "name": phase,
                        "cat": f"lifecycle.{span.kind}.{span.proto}",
                        "ph": "X",
                        "ts": t0,
                        "dur": t1 - t0,
                        "pid": PID,
                        "tid": tid,
                        "args": {"span": span.id, "size": span.size},
                    }
                )
    series = sim.telemetry.series
    if series.enabled:
        for name in sorted(series.channels):
            tid = tid_of(f"series.{name}")
            for ts, value in series.channels[name].points:
                events.append(
                    {
                        "name": name,
                        "ph": "C",
                        "ts": ts,
                        "pid": PID,
                        "tid": tid,
                        "args": {"value": value},
                    }
                )
    trace = sim.telemetry.trace
    if trace.enabled:
        for ts, category, message in trace.records:
            events.append(
                {
                    "name": category,
                    "cat": category,
                    "ph": "i",
                    "s": "t",
                    "ts": ts,
                    "pid": PID,
                    "tid": tid_of(f"trace.{category}"),
                    "args": {"message": message},
                }
            )
    metadata: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": PID,
            "tid": 0,
            "args": {"name": label or "repro-sim"},
        }
    ]
    for track, tid in tracks.items():
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "pid": PID,
                "tid": tid,
                "args": {"name": track},
            }
        )
    dropped: Dict[str, Any] = {
        "lifecycle": dict(sorted(lifecycle.dropped_by_category.items())),
        "series": dict(sorted(series.dropped_by_channel.items())),
        "timeline": (
            dict(sorted(timeline.dropped_by_category.items()))
            if timeline is not None
            else {}
        ),
        "trace": dict(sorted(trace.dropped_by_category.items())),
    }
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "label": label,
            "version": __version__,
            "metrics": snapshot(sim),
            "dropped": dropped,
        },
    }


def write_chrome_trace(path, sim: "Simulator", label: str = "") -> Dict[str, Any]:
    """Export :func:`chrome_trace` to ``path``; returns the trace dict."""
    trace = chrome_trace(sim, label=label)
    Path(path).write_text(json.dumps(trace, sort_keys=True))
    return trace


def load_trace(path) -> Dict[str, Any]:
    """Load and shape-check a trace file written by this exporter."""
    data = json.loads(Path(path).read_text())
    validate_trace(data)
    return data


#: Keys every event must carry, per the trace_event JSON object format.
_REQUIRED_EVENT_KEYS = ("name", "ph", "ts", "pid", "tid")


def validate_trace(data: Any) -> None:
    """Raise ``ValueError`` unless ``data`` has the trace_event shape."""
    if not isinstance(data, dict):
        raise ValueError("trace must be a JSON object")
    events = data.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace is missing the traceEvents array")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for key in _REQUIRED_EVENT_KEYS:
            if key not in event:
                raise ValueError(f"traceEvents[{i}] is missing {key!r}")
        if event["ph"] == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(
                    f"traceEvents[{i}]: complete event needs dur >= 0"
                )
