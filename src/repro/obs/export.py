"""Trace files: Chrome/Perfetto JSON, the JSONL event log, and text.

Two serialisations of a :class:`~repro.sim.tracing.Trace`, each with a
matching loader so traces round-trip through files:

* **Chrome trace format** (``.json``) — a ``{"traceEvents": [...]}``
  document loadable by Perfetto (https://ui.perfetto.dev) and
  ``chrome://tracing``.  Each simulated process becomes a named track;
  ``proc_msg`` events (which carry a service-time span) become complete
  ``"X"`` slices, everything else becomes an instant ``"i"`` event.
  Virtual time is unitless, so one simulated time unit is rendered as
  1 ms (1000 µs) — relative durations are what matter.
* **JSONL** (``.jsonl``) — one JSON object per event, in trace order.
  The only lossless format: :func:`read_jsonl` reconstructs equivalent
  :class:`~repro.sim.tracing.TraceEvent` objects (JSON turns tuples into
  lists; loaders convert list-valued detail fields back to tuples).

A ``.txt`` file holds the text of ``Trace.format``, one
``TraceEvent`` line per event, for eyeballs and diffs.
:func:`write_trace` picks one of the three from the file extension
(:data:`TRACE_SUFFIXES`) — this is what the CLI's ``--trace-out`` flag
calls.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.errors import ReproError
from repro.sim.tracing import Trace, TraceEvent

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "read_chrome_trace",
    "to_jsonl",
    "write_jsonl",
    "read_jsonl",
    "TRACE_SUFFIXES",
    "write_trace",
]

#: the trace file extensions :func:`write_trace` takes
TRACE_SUFFIXES = (".json", ".jsonl", ".txt")

#: one unit of virtual time rendered as this many Chrome-trace microseconds
#: (Perfetto then shows 1 virtual unit as 1 ms).
_US_PER_UNIT = 1000.0


def _jsonable(value: object) -> object:
    """Make a trace detail value JSON-serialisable without losing content."""
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


# -- Chrome / Perfetto -------------------------------------------------------

def to_chrome_trace(trace: Trace | Iterable[TraceEvent]) -> dict:
    """Render a trace as a Chrome trace-event document (dict).

    One track (tid) per simulated process, in order of first appearance.
    ``proc_msg`` events become ``"X"`` complete slices spanning the
    message's service time (the slice *ends* at the event's timestamp,
    which is when handling finished); all other kinds become thread-scoped
    instant events.  Event ``args`` carry the full detail dict.
    """
    events = list(trace)
    tids: dict[str, int] = {}
    out: list[dict] = []
    for event in events:
        tid = tids.get(event.process)
        if tid is None:
            tid = tids[event.process] = len(tids) + 1
            out.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": event.process},
                }
            )
        args = {k: _jsonable(v) for k, v in event.detail.items()}
        service = event.detail.get("service", 0.0)
        if event.kind == "proc_msg" and isinstance(service, (int, float)):
            start = event.time - float(service)
            record = {
                "name": f"{event.kind}:{args.get('message', '')}",
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": start * _US_PER_UNIT,
                "dur": float(service) * _US_PER_UNIT,
                "cat": event.kind,
                "args": args,
            }
        else:
            record = {
                "name": event.kind,
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "pid": 1,
                "tid": tid,
                "ts": event.time * _US_PER_UNIT,
                "cat": event.kind,
                "args": args,
            }
        out.append(record)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(
    trace: Trace | Iterable[TraceEvent], path: str | Path
) -> Path:
    """Write a Perfetto-loadable ``trace.json``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(trace)), encoding="utf-8")
    return path


def read_chrome_trace(path: str | Path) -> list[dict]:
    """Load a Chrome trace file; returns non-metadata events in file order."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    events = document["traceEvents"] if isinstance(document, dict) else document
    return [e for e in events if e.get("ph") != "M"]


# -- JSONL -------------------------------------------------------------------

_TUPLE_FIELDS = frozenset(
    {"ids", "lineage", "txn", "rel", "covered", "rows", "views", "relations",
     "sources", "after"}
)


def to_jsonl(trace: Trace | Iterable[TraceEvent]) -> str:
    """One JSON object per event, newline-separated, in trace order."""
    lines = [
        json.dumps(
            {
                "time": event.time,
                "kind": event.kind,
                "process": event.process,
                "detail": {k: _jsonable(v) for k, v in event.detail.items()},
            }
        )
        for event in trace
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(trace: Trace | Iterable[TraceEvent], path: str | Path) -> Path:
    """Write the JSONL event log; returns the path."""
    path = Path(path)
    path.write_text(to_jsonl(trace), encoding="utf-8")
    return path


def read_jsonl(path: str | Path) -> list[TraceEvent]:
    """Reconstruct :class:`TraceEvent` objects from a JSONL log.

    Detail fields that the tracer records as tuples come back from JSON
    as lists; the well-known id-carrying fields are converted back so
    :class:`~repro.obs.lineage.Lineage` works on loaded traces too.
    """
    events: list[TraceEvent] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        detail = {
            k: tuple(v) if k in _TUPLE_FIELDS and isinstance(v, list) else v
            for k, v in record["detail"].items()
        }
        events.append(
            TraceEvent(
                time=record["time"],
                kind=record["kind"],
                process=record["process"],
                detail=detail,
            )
        )
    return events


# -- extension dispatch ------------------------------------------------------

def write_trace(trace: Trace | Iterable[TraceEvent], path: str | Path) -> Path:
    """Write ``trace`` to ``path`` in the format its extension implies.

    ``.json`` → Chrome/Perfetto, ``.jsonl`` → JSONL event log, ``.txt`` →
    one ``TraceEvent`` line per event (``Trace.format`` and a newline).
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        return write_chrome_trace(trace, path)
    if suffix == ".jsonl":
        return write_jsonl(trace, path)
    if suffix == ".txt":
        path.write_text("".join(f"{event}\n" for event in trace),
                        encoding="utf-8")
        return path
    raise ReproError(
        f"unknown trace format {suffix!r} for {path} "
        f"(use {', '.join(TRACE_SUFFIXES)})"
    )
