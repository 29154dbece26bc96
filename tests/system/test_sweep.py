"""Tests for the parameter-sweep utility."""

from repro.conformance.scenario import ScenarioSpec
from repro.system.sweeps import SweepRow, format_sweep, sweep
from repro.workloads.generator import WorkloadSpec


def run_small_sweep():
    return sweep(
        ScenarioSpec(
            schema="paper-ex1",
            workload=WorkloadSpec(updates=15, rate=2.0, seed=3, mix=(0.7, 0.15, 0.15)),
            vary_workload=False,
            config={},
            scheduler="fifo",
        ),
        variants={
            "spa": {"manager_kind": "complete"},
            "pa": {"manager_kind": "strong"},
        },
        run_seed=3,
    )


class TestSweep:
    def test_one_row_per_variant(self):
        rows = run_small_sweep()
        assert [r.name for r in rows] == ["spa", "pa"]

    def test_levels_and_verification(self):
        rows = {r.name: r for r in run_small_sweep()}
        assert rows["spa"].mvc_level == "complete"
        assert rows["pa"].expected_level == "strong"
        assert all(r.verified for r in run_small_sweep())

    def test_identical_workload_across_variants(self):
        rows = run_small_sweep()
        committed = {r.metrics.updates_committed for r in rows}
        assert committed == {15}

    def test_metrics_populated(self):
        row = run_small_sweep()[0]
        assert row.metrics.makespan > 0
        assert row.metrics.warehouse_transactions > 0

    def test_verified_ordering(self):
        good = SweepRow("x", run_small_sweep()[0].metrics, "complete", "strong")
        bad = SweepRow("x", run_small_sweep()[0].metrics, "convergent", "strong")
        assert good.verified and not bad.verified


class TestFormat:
    def test_table_contains_variants_and_headers(self):
        text = format_sweep(run_small_sweep())
        assert "variant" in text and "spa" in text and "pa" in text
        assert "makespan" in text

    def test_empty_rows(self):
        text = format_sweep([])
        assert "variant" in text
