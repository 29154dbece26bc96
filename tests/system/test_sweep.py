"""Tests for the parameter-sweep utility."""

import dataclasses

from repro.conformance.scenario import ScenarioSpec
from repro.system.report import format_reports
from repro.system.sweeps import sweep
from repro.workloads.generator import WorkloadSpec

SCENARIO = ScenarioSpec(
    schema="paper-ex1",
    workload=WorkloadSpec(updates=15, rate=2.0, seed=3, mix=(0.7, 0.15, 0.15)),
    vary_workload=False,
    config={},
    scheduler="fifo",
)
VARIANTS = {
    "spa": {"manager_kind": "complete"},
    "pa": {"manager_kind": "strong"},
}


def run_small_sweep(**kwargs):
    return sweep(SCENARIO, variants=VARIANTS, run_seed=3, **kwargs)


class TestSweep:
    def test_one_row_per_variant(self):
        rows = run_small_sweep()
        assert [r.variant for r in rows] == ["spa", "pa"]

    def test_levels_and_verification(self):
        rows = {r.variant: r for r in run_small_sweep()}
        assert rows["spa"].achieved == "complete"
        assert rows["pa"].promised == "strong"
        assert all(r.verified for r in run_small_sweep())

    def test_identical_workload_across_variants(self):
        rows = run_small_sweep()
        committed = {r.updates_committed for r in rows}
        assert committed == {15}

    def test_metrics_populated(self):
        row = run_small_sweep()[0]
        assert row.makespan > 0
        assert row.warehouse_transactions > 0

    def test_verified_ordering(self):
        report = run_small_sweep()[0]
        good = dataclasses.replace(report, achieved="complete", promised="strong")
        bad = dataclasses.replace(report, achieved="convergent", promised="strong")
        assert good.verified and not bad.verified

    def test_unchecked_reports_raise_nothing(self):
        """An unchecked variant has no achieved level and no verdict; the
        sweep row it replaced raised ``KeyError: 'unchecked'`` here."""
        [report] = sweep(SCENARIO, {"spa": VARIANTS["spa"]}, 3, classify=False)
        assert report.achieved is None and report.verified is None
        assert report.promised == "complete"
        assert "unchecked" in format_reports([report])

    def test_a_variant_reports_what_it_reports_alone(self):
        for report in run_small_sweep():
            alone = dataclasses.replace(
                SCENARIO, config=VARIANTS[report.variant]).build(3)
            with alone:
                alone.run()
                assert dataclasses.replace(
                    alone.report(), variant=report.variant) == report


class TestFormat:
    def test_table_contains_variants_and_headers(self):
        text = format_reports(run_small_sweep())
        assert "variant" in text and "spa" in text and "pa" in text
        assert "makespan" in text

    def test_empty_rows(self):
        text = format_reports([])
        assert "variant" in text
