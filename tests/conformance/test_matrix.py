"""The guarantee matrix: positive rows hold, negative rows are caught."""

import json

import pytest

from repro.conformance.matrix import (
    GUARANTEE_MATRIX,
    MatrixRow,
    run_matrix,
    run_row,
)
from repro.conformance.scenario import ScenarioSpec


def row(name):
    matches = [r for r in GUARANTEE_MATRIX if r.name == name]
    assert matches, f"no matrix row named {name}"
    return matches[0]


class TestRowDefinitions:
    def test_matrix_covers_both_expectations(self):
        expects = {r.expect for r in GUARANTEE_MATRIX}
        assert expects == {"holds", "violates"}

    def test_row_names_unique(self):
        names = [r.row_name if hasattr(r, "row_name") else r.name
                 for r in GUARANTEE_MATRIX]
        assert len(names) == len(set(names))

    def test_violates_rows_need_a_level(self):
        with pytest.raises(ValueError, match="check_level"):
            MatrixRow("bad", ScenarioSpec(), "violates")

    def test_expect_validated(self):
        with pytest.raises(ValueError, match="holds"):
            MatrixRow("bad", ScenarioSpec(), "maybe")


class TestPositiveRows:
    @pytest.mark.parametrize(
        "name",
        [
            "spa-complete-fleet",
            "pa-strong-fleet",
            "mixed-complete-strong",
            "mixed-weakest-convergent",
        ],
    )
    def test_holds(self, name):
        result = run_row(row(name), seeds=4)
        assert result.ok, result.reason
        assert result.findings == []


class TestNegativeRows:
    def test_naive_row_caught_and_replayable(self, tmp_path):
        result = run_row(row("naive-fleet-breaks-strong"), seeds=10,
                         out_dir=tmp_path)
        assert result.ok, result.reason
        assert result.reproducer_path is not None
        data = json.loads(result.reproducer_path.read_text())
        assert data["format"] == "mvc-conformance-repro/2"
        assert data["violation"]["level"] == "strong"

    def test_periodic_row_caught(self):
        result = run_row(row("periodic-fleet-breaks-complete"), seeds=10)
        assert result.ok, result.reason

    def test_eager_row_on_three_executors_caught_and_replayable(self, tmp_path):
        eager = row("eager-concurrent-executors-breaks")
        system = eager.spec.build()
        system.close()
        assert system.expected_level() is None  # it promises nothing
        result = run_row(eager, seeds=10, out_dir=tmp_path)
        assert result.ok, result.reason
        data = json.loads(result.reproducer_path.read_text())
        assert data["violation"]["level"] in ("complete", "execution")


class TestFailingRows:
    def test_holds_row_that_breaks_reports_failure(self):
        broken = MatrixRow(
            "naive-mislabelled-as-safe",
            row("naive-fleet-breaks-strong").spec,
            "holds",
            check_level="strong",
        )
        result = run_row(broken, seeds=10)
        assert not result.ok
        assert "guarantee broken at seed" in result.reason
        assert result.findings

    def test_violates_row_that_holds_reports_failure(self):
        solid = MatrixRow(
            "spa-mislabelled-as-broken",
            row("spa-complete-fleet").spec,
            "violates",
            check_level="complete",
        )
        result = run_row(solid, seeds=3)
        assert not result.ok
        assert "negative oracle failed" in result.reason
        assert result.findings == []
        assert result.reproducer_path is None


class TestFullMatrix:
    def test_all_rows_conform_on_a_small_budget(self, tmp_path):
        results = run_matrix(seeds=6, out_dir=tmp_path)
        failures = [r for r in results if not r.ok]
        assert failures == [], [f"{r.row.name}: {r.reason}" for r in failures]
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == [
            "cached-restart-stale-artifact-breaks.json",
            "eager-concurrent-executors-breaks.json",
            "naive-fleet-breaks-strong.json",
            "periodic-fleet-breaks-complete.json",
        ]
