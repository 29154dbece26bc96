"""Exporter round-trips: export → parse → same events, same order."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.obs.export import (
    read_chrome_trace,
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)


class TestChromeTrace:
    def test_round_trip_count_and_order(self, finished_system, tmp_path):
        trace = finished_system.sim.trace
        path = write_chrome_trace(trace, tmp_path / "trace.json")
        loaded = read_chrome_trace(path)
        assert len(loaded) == len(trace)
        # file order preserves trace order; categories mirror event kinds
        assert [e["cat"] for e in loaded] == [e.kind for e in trace]

    def test_document_is_perfetto_shaped(self, finished_system):
        document = to_chrome_trace(finished_system.sim.trace)
        assert set(document) == {"traceEvents", "displayTimeUnit"}
        events = document["traceEvents"]
        # every simulated process has a thread-name metadata record
        names = {
            e["args"]["name"] for e in events if e.get("ph") == "M"
        }
        assert "integrator" in names and "warehouse" in names
        phases = {e["ph"] for e in events}
        assert phases <= {"M", "X", "i"}
        for event in events:
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
            if event["ph"] != "M":
                assert event["ts"] >= 0.0

    def test_proc_msg_becomes_duration_slice(self, finished_system):
        events = to_chrome_trace(finished_system.sim.trace)["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert slices
        assert all(e["cat"] == "proc_msg" for e in slices)

    def test_json_serialisable(self, finished_system):
        # must not choke on tuples/frozensets in event details
        json.dumps(to_chrome_trace(finished_system.sim.trace))


class TestJsonl:
    def test_lossless_round_trip(self, finished_system, tmp_path):
        trace = finished_system.sim.trace
        path = write_jsonl(trace, tmp_path / "trace.jsonl")
        loaded = read_jsonl(path)
        assert len(loaded) == len(trace)
        for original, parsed in zip(trace, loaded):
            assert parsed.time == original.time
            assert parsed.kind == original.kind
            assert parsed.process == original.process

    def test_id_fields_come_back_as_tuples(self, finished_system, tmp_path):
        path = write_jsonl(finished_system.sim.trace, tmp_path / "t.jsonl")
        loaded = read_jsonl(path)
        carriers = [e for e in loaded if "ids" in e.detail]
        assert carriers
        assert all(isinstance(e.detail["ids"], tuple) for e in carriers)

    def test_lineage_works_on_reloaded_trace(self, finished_system, tmp_path):
        """The acid test: causal reconstruction from a file, not a live run."""
        from repro.obs import Lineage

        live = Lineage.from_system(finished_system)
        path = write_jsonl(finished_system.sim.trace, tmp_path / "t.jsonl")
        reloaded = Lineage(read_jsonl(path))
        assert reloaded.update_ids() == live.update_ids()
        for update_id in live.update_ids():
            a, b = live.for_update(update_id), reloaded.for_update(update_id)
            assert a.reflected_at == b.reflected_at
            assert len(a.hops) == len(b.hops)


class TestTimeline:
    def test_one_line_per_event(self, finished_system, tmp_path):
        trace = finished_system.sim.trace
        path = write_trace(trace, tmp_path / "trace.txt")
        text = path.read_text()
        assert text == trace.format() + "\n"
        assert text.splitlines() == [str(event) for event in trace]
        assert "wh_commit" in text

    def test_kind_filter(self, finished_system):
        trace = finished_system.sim.trace
        lines = trace.format("wh_commit").splitlines()
        assert lines == [str(event) for event in trace.of_kind("wh_commit")]
        assert lines


    def test_no_line_ends_in_whitespace(self, tmp_path):
        """A crash and restart record events with no detail."""
        from repro.faults import CrashSpec, FaultPlan
        from repro.system.config import SystemConfig
        from tests.obs.conftest import run_paper_system

        plan = FaultPlan(crashes=(CrashSpec("vm:V1", at=5.0, restart_after=1.0),))
        system = run_paper_system(
            SystemConfig(fault_plan=plan, trace_kinds=None), updates=20, seed=3)
        trace = system.sim.trace
        assert any(not event.detail for event in trace.of_kind("restart"))
        text = write_trace(trace, tmp_path / "trace.txt").read_text()
        for lines in (trace.format().split("\n"), text.splitlines()):
            assert lines and [line for line in lines if line != line.rstrip()] == []


class TestExtensionDispatch:
    def test_formats_by_suffix(self, finished_system, tmp_path):
        trace = finished_system.sim.trace
        chrome = write_trace(trace, tmp_path / "a.json")
        jsonl = write_trace(trace, tmp_path / "b.jsonl")
        text = write_trace(trace, tmp_path / "c.txt")
        assert json.loads(chrome.read_text())["traceEvents"]
        assert len(read_jsonl(jsonl)) == len(trace)
        assert text.read_text().count("\n") == len(trace)

    def test_unknown_suffix_raises(self, finished_system, tmp_path):
        with pytest.raises(ReproError):
            write_trace(finished_system.sim.trace, tmp_path / "t.xml")
