"""Tests for trace recording and querying."""

import pytest

from repro.errors import SimulationError
from repro.sim.tracing import Trace, TraceEvent


class TestTrace:
    def test_record_and_len(self):
        trace = Trace()
        trace.record(1.0, "kind", "proc", a=1)
        assert len(trace) == 1
        assert trace[0] == TraceEvent(1.0, "kind", "proc", {"a": 1})

    def test_disabled_trace_records_nothing(self):
        trace = Trace()
        trace.kinds = frozenset()
        trace.record(1.0, "kind", "proc")
        assert len(trace) == 0

    def test_a_string_of_kinds_is_rejected(self):
        trace = Trace()
        with pytest.raises(SimulationError, match="wh_commit"):
            trace.kinds = "wh_commit"  # would be the set of its letters
        assert trace.kinds is None
        trace.kinds = ("wh_commit",)
        trace.record(1.0, "wh_commit", "warehouse")
        trace.record(2.0, "w", "warehouse")
        assert [e.kind for e in trace] == ["wh_commit"]

    def test_of_kind(self):
        trace = Trace()
        trace.record(1.0, "a", "p")
        trace.record(2.0, "b", "p")
        trace.record(3.0, "a", "q")
        assert len(trace.of_kind("a")) == 2

    def test_by_process(self):
        trace = Trace()
        trace.record(1.0, "a", "p")
        trace.record(2.0, "a", "q")
        assert [e.time for e in trace if e.process == "q"] == [2.0]

    def test_where(self):
        trace = Trace()
        for t in range(5):
            trace.record(float(t), "tick", "p")
        assert len([e for e in trace if e.time >= 3]) == 2

    def test_first_and_last(self):
        trace = Trace()
        trace.record(1.0, "x", "p", n=1)
        trace.record(1.5, "y", "p", n=0)
        trace.record(2.0, "x", "p", n=2)
        first, *_, last = trace.of_kind("x")
        assert first.detail == {"n": 1}
        assert last.detail == {"n": 2}
        assert trace.of_kind("missing") == []

    def test_clear(self):
        trace = Trace()
        trace.record(1.0, "x", "p")
        trace.clear()
        assert len(trace) == 0

    def test_format_filters_kinds(self):
        trace = Trace()
        trace.record(1.0, "keep", "p")
        trace.record(2.0, "drop", "p")
        text = trace.format("keep")
        assert "keep" in text and "drop" not in text

    def test_event_str(self):
        event = TraceEvent(1.5, "commit", "warehouse", {"txn": 3})
        assert "commit" in str(event) and "txn=3" in str(event)
