"""Tests for the single-sequence consistency checkers."""

import pytest

from repro.consistency.checker import (
    ConsistencyReport,
    check_complete,
    check_convergent,
    check_strong,
)
from repro.consistency.states import collapse_consecutive
from repro.errors import ConsistencyViolation
from repro.merge.selection import CHECKED_LEVELS, achieved_level


class TestCollapse:
    def test_collapses_adjacent_duplicates(self):
        assert collapse_consecutive([1, 1, 2, 2, 2, 3, 1]) == [1, 2, 3, 1]

    def test_empty(self):
        assert collapse_consecutive([]) == []


class TestConvergent:
    def test_final_match(self):
        assert check_convergent([0, 99, 3], [0, 1, 2, 3])

    def test_final_mismatch(self):
        report = check_convergent([0, 2], [0, 1, 3])
        assert not report
        assert "final" in report.reason

    def test_empty_sequences(self):
        assert not check_convergent([], [0])


class TestStrong:
    def test_identity(self):
        report = check_strong([0, 1, 2], [0, 1, 2])
        assert report
        assert report.mapping == (0, 1, 2)

    def test_subsequence_allowed(self):
        report = check_strong([0, 2, 4], [0, 1, 2, 3, 4])
        assert report
        assert report.mapping == (0, 2, 4)

    def test_order_violation_fails(self):
        assert not check_strong([0, 2, 1, 2], [0, 1, 2])

    def test_missing_final_state_fails(self):
        report = check_strong([0, 1], [0, 1, 2])
        assert not report
        assert "final" in report.reason

    def test_unknown_value_fails(self):
        assert not check_strong([0, 99], [0, 1, 2])

    def test_adjacent_duplicates_tolerated(self):
        assert check_strong([0, 1, 1, 2], [0, 1, 2])

    def test_source_duplicates_handled(self):
        # The same value may recur in the source sequence.
        assert check_strong([0, 1, 0], [0, 1, 0])


class TestComplete:
    def test_exact_sequence(self):
        assert check_complete([0, 1, 2], [0, 1, 2])

    def test_skipping_fails(self):
        report = check_complete([0, 2], [0, 1, 2])
        assert not report

    def test_divergence_reported_with_position(self):
        report = check_complete([0, 9, 2], [0, 1, 2])
        assert "state #1" in report.reason

    def test_collapsed_comparison(self):
        # Extra adjacent duplicates on either side don't matter.
        assert check_complete([0, 0, 1, 2, 2], [0, 1, 1, 2])


class TestLevels:
    def test_strongest_level_ladder(self):
        """The one ladder (``merge.selection``) over the §2.2 definitions."""
        assert CHECKED_LEVELS == ("complete", "strong", "convergent")
        checks = dict(
            zip(CHECKED_LEVELS, (check_complete, check_strong, check_convergent))
        )

        def strongest_level(ws, ss):
            return achieved_level(lambda level: checks[level](ws, ss))

        assert strongest_level([0, 1, 2], [0, 1, 2]) == "complete"
        assert strongest_level([0, 2], [0, 1, 2]) == "strong"
        assert strongest_level([9, 2], [0, 1, 2]) == "convergent"
        assert strongest_level([9, 8], [0, 1, 2]) == "inconsistent"

    def test_report_require(self):
        with pytest.raises(ConsistencyViolation):
            ConsistencyReport(False, "strong", "boom").require()
        good = ConsistencyReport(True, "strong")
        assert good.require() is good
