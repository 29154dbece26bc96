"""The run report: verdict, observers, schema-versioned JSON."""

import dataclasses
import json

import pytest

from repro.errors import ReproError
from repro.obs.freshness import SloPolicy
from repro.system.config import SystemConfig
from repro.system.report import REPORT_FORMAT, RunReport
from tests.obs.conftest import run_paper_system


@pytest.fixture(scope="module")
def observed():
    """A run with both observers on: the monitor and the plan profiler."""
    return run_paper_system(SystemConfig(
        seed=21, freshness_tick=1.0, slo=SloPolicy(max_staleness=1.0),
        profile_plans=True))


class TestVerdict:
    @pytest.mark.parametrize("config", [
        {"manager_kind": "complete"},
        {"manager_kind": "strong"},
        {"manager_kind": "naive"},
        {"submission_policy": "eager", "warehouse_executors": 3},
    ])
    def test_reads_the_promise_the_replay_and_check_mvc(self, config):
        system = run_paper_system(SystemConfig(seed=5, **config), rate=8.0)
        report = system.report()
        assert report.promised == system.expected_level()
        assert report.achieved == system.classify()
        check = system.check_mvc("auto")
        assert report.verified == check.ok
        assert report.reason == (None if check.ok else check.reason)
        refused = system.warehouse.refused
        assert report.refused == (None if refused is None else str(refused))

    def test_unchecked_report_has_no_verdict(self, observed):
        report = observed.report(classify=False)
        assert report.promised == "complete"
        assert (report.achieved, report.verified, report.reason) == (None,) * 3
        assert "achieved" not in report.format()

    def test_refused_run_ends_with_its_text(self):
        # this naive run's second warehouse transaction cannot be applied
        system = run_paper_system(SystemConfig(seed=5, manager_kind="naive"),
                                  rate=8.0)
        assert system.warehouse.refused is not None
        report = system.report()
        assert report.refused == str(system.warehouse.refused)
        assert report.achieved == "inconsistent" and not report.verified
        assert report.format() == f"run ended: {report.refused}"


class TestObservers:
    def test_monitor_and_plan_profile_when_on(self, observed):
        report = observed.report()
        assert report.monitor == observed.monitor.snapshot()
        assert report.monitor["breaches"] > 0
        assert report.plan_profile == observed.plan_profiler.stats()
        text = report.format()
        assert "freshness monitor:" in text
        assert "plan profile (heaviest nodes first):" in text

    def test_none_when_off(self):
        report = run_paper_system(SystemConfig(seed=21)).report()
        assert report.monitor is None and report.plan_profile is None


class TestJson:
    def test_round_trip(self, observed):
        report = dataclasses.replace(
            observed.report(), variant="observed",
            registry=observed.sim.metrics.to_dict())
        assert RunReport.from_json(report.to_json()) == report

    def test_shape(self, observed):
        record = json.loads(observed.report().to_json())
        assert record["format"] == REPORT_FORMAT == "repro-run-report/1"
        assert record["verified"] is True
        assert record["promised"] == record["achieved"] == "complete"
        assert record["processes"]["merge"]["messages_handled"] > 0
        assert record["registry"] is None

    def test_other_formats_refused(self, observed):
        record = json.loads(observed.report().to_json())
        record["format"] = "repro-metrics-snapshot/1"
        with pytest.raises(ReproError, match="repro-run-report/1"):
            RunReport.from_json(json.dumps(record))
