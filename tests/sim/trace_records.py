"""Trace events as JSON-serialisable dicts, for assertions in tests."""

from __future__ import annotations

from repro.sim.tracing import Trace


def to_records(trace: Trace, *kinds: str) -> list[dict]:
    """One ``{"time", "kind", "process", **detail}`` dict per event of ``kinds``
    (every event when none are given)."""
    wanted = set(kinds)
    return [
        {"time": event.time, "kind": event.kind, "process": event.process,
         **event.detail}
        for event in trace
        if not wanted or event.kind in wanted
    ]
