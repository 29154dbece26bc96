"""Tests for the ViewUpdateTable."""

import pytest

from repro.errors import MergeError
from repro.merge.vut import Color, Entry, ViewUpdateTable


@pytest.fixture
def vut() -> ViewUpdateTable:
    return ViewUpdateTable(("V1", "V2", "V3"))


class TestStructure:
    def test_needs_views(self):
        with pytest.raises(MergeError):
            ViewUpdateTable(())

    def test_duplicate_views_rejected(self):
        with pytest.raises(MergeError):
            ViewUpdateTable(("V1", "V1"))

    def test_allocate_row_colors(self, vut):
        vut.allocate_row(1, frozenset({"V1", "V2"}))
        assert vut.color(1, "V1") is Color.WHITE
        assert vut.color(1, "V2") is Color.WHITE
        assert vut.color(1, "V3") is Color.BLACK

    def test_allocate_duplicate_row(self, vut):
        vut.allocate_row(1, frozenset())
        with pytest.raises(MergeError):
            vut.allocate_row(1, frozenset())

    def test_allocate_unknown_view(self, vut):
        with pytest.raises(MergeError):
            vut.allocate_row(1, frozenset({"Vx"}))

    def test_sparse_rows(self, vut):
        vut.allocate_row(3, frozenset({"V1"}))
        vut.allocate_row(7, frozenset({"V2"}))
        assert vut.row_ids == (3, 7)
        assert 3 in vut and 5 not in vut

    def test_missing_entry_raises(self, vut):
        with pytest.raises(MergeError):
            vut.color(9, "V1")


class TestColorsAndState:
    def test_set_color(self, vut):
        vut.allocate_row(1, frozenset({"V1"}))
        vut.set_color(1, "V1", Color.RED)
        assert vut.color(1, "V1") is Color.RED

    def test_state_defaults_to_zero(self, vut):
        vut.allocate_row(1, frozenset({"V1"}))
        assert vut.state(1, "V1") == 0
        vut.set_state(1, "V1", 3)
        assert vut.state(1, "V1") == 3

    def test_views_with_color(self, vut):
        vut.allocate_row(1, frozenset({"V1", "V3"}))
        vut.set_color(1, "V1", Color.RED)
        assert vut.views_with_color(1, Color.RED) == ("V1",)
        assert vut.views_with_color(1, Color.WHITE) == ("V3",)

    def test_has_color(self, vut):
        vut.allocate_row(1, frozenset({"V1"}))
        assert vut.has_color(1, Color.WHITE)
        assert not vut.has_color(1, Color.RED)


class TestQueries:
    def test_next_red(self, vut):
        for row in (1, 2, 3):
            vut.allocate_row(row, frozenset({"V1"}))
        vut.set_color(3, "V1", Color.RED)
        assert vut.next_red(1, "V1") == 3
        assert vut.next_red(3, "V1") == 0

    def test_earlier_red_rows(self, vut):
        for row in (1, 2, 3):
            vut.allocate_row(row, frozenset({"V1"}))
        vut.set_color(1, "V1", Color.RED)
        vut.set_color(2, "V1", Color.RED)
        assert vut.earlier_red_rows(3, "V1") == (1, 2)

    def test_white_rows_through(self, vut):
        for row in (1, 2, 3, 4):
            vut.allocate_row(row, frozenset({"V1"}))
        vut.set_color(2, "V1", Color.GRAY)
        assert vut.white_rows_through(3, "V1") == (1, 3)


class TestPurging:
    def test_purgeable(self, vut):
        vut.allocate_row(1, frozenset({"V1"}))
        assert not vut.purgeable(1)
        vut.set_color(1, "V1", Color.GRAY)
        assert vut.purgeable(1)

    def test_purge_rejects_active_row(self, vut):
        vut.allocate_row(1, frozenset({"V1"}))
        with pytest.raises(MergeError):
            vut.purge(1)

    def test_purge(self, vut):
        vut.allocate_row(1, frozenset())
        vut.purge(1)
        assert len(vut) == 0

    def test_purge_completed(self, vut):
        vut.allocate_row(1, frozenset())
        vut.allocate_row(2, frozenset({"V1"}))
        assert vut.purge_completed() == (1,)
        assert vut.row_ids == (2,)


class TestRendering:
    def test_snapshot(self, vut):
        vut.allocate_row(1, frozenset({"V1"}))
        snap = vut.snapshot()
        assert snap[1]["V1"] == "(w,0)"
        assert snap[1]["V2"] == "(b,0)"

    def test_render_contains_rows(self, vut):
        vut.allocate_row(1, frozenset({"V1"}))
        text = vut.render()
        assert "U1" in text and "V1" in text

    def test_entry_str(self):
        assert str(Entry(Color.RED, 3)) == "(r,3)"
