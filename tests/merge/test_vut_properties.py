"""Property tests for ViewUpdateTable invariants.

Driven through random legal operation sequences, the table must maintain:

* colors only move white -> red -> gray (black never changes);
* a row is purgeable iff no white/red entries remain;
* ``next_red`` always returns the minimal red row strictly below;
* ``white_rows_through`` is exactly the white subset at or below a row.

The table stores rows sparsely and indexes its white and red cells per
row and per column; a dense dict-of-dicts model (the old layout) is the
oracle for every query, and a copy, a pickle round trip or a load from
the cells alone must answer as the original does.
"""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MergeError
from repro.merge.vut import Color, Entry, ViewUpdateTable

VIEWS = ("V1", "V2", "V3")


@st.composite
def operation_sequences(draw):
    """Rows with relevance patterns plus a legal color schedule."""
    n = draw(st.integers(min_value=1, max_value=6))
    rows = []
    for i in range(n):
        relevant = frozenset(v for v in VIEWS if draw(st.booleans()))
        rows.append((i + 1, relevant))
    # For each white entry decide how far it advances: 0=white, 1=red, 2=gray.
    advance = {
        (row, view): draw(st.integers(min_value=0, max_value=2))
        for row, relevant in rows
        for view in relevant
    }
    return rows, advance


@given(scenario=operation_sequences())
@settings(max_examples=150, deadline=None)
def test_color_lifecycle_and_queries(scenario):
    rows, advance = scenario
    vut = ViewUpdateTable(VIEWS)
    for row, relevant in rows:
        vut.allocate_row(row, relevant)
    for (row, view), steps in advance.items():
        if steps >= 1:
            assert vut.color(row, view) is Color.WHITE
            vut.set_color(row, view, Color.RED)
        if steps >= 2:
            vut.set_color(row, view, Color.GRAY)

    for row, relevant in rows:
        # Black entries never change.
        for view in VIEWS:
            if view not in relevant:
                assert vut.color(row, view) is Color.BLACK
        # Purgeability is exactly "no whites or reds".
        active = any(
            vut.color(row, view) in (Color.WHITE, Color.RED)
            for view in relevant
        )
        assert vut.purgeable(row) == (not active)

    # next_red: minimal red strictly below.
    for row, _relevant in rows:
        for view in VIEWS:
            reds_below = [
                r
                for r, rel in rows
                if r > row and view in rel and vut.color(r, view) is Color.RED
            ]
            expected = min(reds_below) if reds_below else 0
            assert vut.next_red(row, view) == expected

    # white_rows_through: exact white subsets.
    last_row = rows[-1][0]
    for view in VIEWS:
        whites = tuple(
            r
            for r, rel in rows
            if view in rel and vut.color(r, view) is Color.WHITE
        )
        assert vut.white_rows_through(last_row, view) == whites

    # purge_completed removes exactly the purgeable rows.
    purgeable = {r for r, _ in rows if vut.purgeable(r)}
    purged = set(vut.purge_completed())
    assert purged == purgeable
    assert set(vut.row_ids) == {r for r, _ in rows} - purgeable


# -- the sparse table against a dense dict-of-dicts model ----------------------


class DenseModel:
    """The table as it used to be stored: one ``[color, state]`` cell per
    (row, view), every query a scan over all rows in sorted order."""

    def __init__(self, views):
        self.views = tuple(views)
        self.rows: dict[int, dict[str, list]] = {}

    def allocate_row(self, row, relevant):
        self.rows[row] = {
            v: [Color.WHITE if v in relevant else Color.BLACK, 0] for v in self.views
        }

    def views_with_color(self, row, color):
        return tuple(v for v in self.views if self.rows[row][v][0] is color)

    def first_red(self, view):
        return self.next_red(0, view)

    def next_red(self, row, view):
        later = [r for r in sorted(self.rows)
                 if r > row and self.rows[r][view][0] is Color.RED]
        return later[0] if later else 0

    def earlier_red_rows(self, row, view):
        return tuple(r for r in sorted(self.rows)
                     if r < row and self.rows[r][view][0] is Color.RED)

    def white_rows_through(self, row, view):
        return tuple(r for r in sorted(self.rows)
                     if r <= row and self.rows[r][view][0] is Color.WHITE)

    def purgeable(self, row):
        return all(c in (Color.BLACK, Color.GRAY) for c, _ in self.rows[row].values())

    def snapshot(self):
        return {
            row: {v: f"({c},{s})" for v, (c, s) in cells.items()}
            for row, cells in sorted(self.rows.items())
        }

    def render(self, show_state):
        lines = ["      " + " ".join(f"{v:>8}" for v in self.views)]
        for row, cells in sorted(self.rows.items()):
            texts = [f"({c},{s})" if show_state else str(c) for c, s in cells.values()]
            lines.append(f"U{row:<5}" + " ".join(f"{t:>8}" for t in texts))
        return "\n".join(lines)


MODEL_VIEWS = ("V1", "V2", "V3", "V4")
ROW_IDS = st.integers(min_value=1, max_value=12)
model_steps = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), ROW_IDS,
                  st.frozensets(st.sampled_from(MODEL_VIEWS))),
        st.tuples(st.just("paint"), ROW_IDS, st.sampled_from(MODEL_VIEWS),
                  st.sampled_from(list(Color))),
        st.tuples(st.just("state"), ROW_IDS, st.sampled_from(MODEL_VIEWS),
                  st.integers(min_value=0, max_value=14)),
        st.tuples(st.just("purge"), ROW_IDS),
        st.tuples(st.just("purge_completed")),
    ),
    min_size=1,
    max_size=30,
)


def assert_same_answers(vut: ViewUpdateTable, model: DenseModel) -> None:
    assert vut.row_ids == tuple(sorted(model.rows))
    assert len(vut) == len(model.rows)
    assert vut.snapshot() == model.snapshot()
    assert vut.render() == model.render(False)
    assert vut.render(show_state=True) == model.render(True)
    for view in MODEL_VIEWS:
        assert vut.first_red(view) == model.first_red(view)
    for row in range(0, 14):  # probes need not name an existing row
        assert (row in vut) == (row in model.rows)
        for view in MODEL_VIEWS:
            assert vut.next_red(row, view) == model.next_red(row, view)
            assert vut.earlier_red_rows(row, view) == model.earlier_red_rows(row, view)
            assert vut.white_rows_through(row, view) == model.white_rows_through(row, view)
    for row, cells in model.rows.items():
        for view, (color, state) in cells.items():
            assert vut.color(row, view) is color
            assert vut.state(row, view) == state
        for color in Color:
            assert vut.views_with_color(row, color) == model.views_with_color(row, color)
            assert vut.has_color(row, color) == bool(model.views_with_color(row, color))
        assert vut.purgeable(row) == model.purgeable(row)


@given(steps=model_steps)
@settings(max_examples=300, deadline=None)
def test_sparse_table_matches_dense_model(steps):
    """Random allocate (any order) / paint (any color, any cell) / state /
    purge sequences: every query answers as the dense layout did, and the
    same operations are refused."""
    vut, model = ViewUpdateTable(MODEL_VIEWS), DenseModel(MODEL_VIEWS)
    for step in steps:
        kind, row = step[0], step[1] if len(step) > 1 else None
        if kind == "allocate":
            if row in model.rows:
                with pytest.raises(MergeError):
                    vut.allocate_row(row, step[2])
            else:
                vut.allocate_row(row, step[2])
                model.allocate_row(row, step[2])
        elif kind in ("paint", "state"):
            setter = vut.set_color if kind == "paint" else vut.set_state
            if row not in model.rows:
                with pytest.raises(MergeError):
                    setter(row, step[2], step[3])
            else:
                setter(row, step[2], step[3])
                model.rows[row][step[2]][kind == "state"] = step[3]
        elif kind == "purge":
            if row in model.rows and model.purgeable(row):
                vut.purge(row)
                del model.rows[row]
            else:
                with pytest.raises(MergeError):
                    vut.purge(row)
        else:
            done = tuple(r for r in sorted(model.rows) if model.purgeable(r))
            assert vut.purge_completed() == done
            for r in done:
                del model.rows[r]
        assert_same_answers(vut, model)


# -- the merge's own interleavings, and the table's copies ----------------------


def cells_only(model: DenseModel) -> ViewUpdateTable:
    """A table loaded from a cells-only state built off the model (every
    cell stored, black ones too), as an older pickle would carry it."""
    table = ViewUpdateTable.__new__(ViewUpdateTable)
    table.__setstate__({
        "_views": model.views,
        "_rows": {row: {v: Entry(c, s) for v, (c, s) in cells.items()}
                  for row, cells in model.rows.items()},
    })
    return table


TWINS = {
    "deepcopy": lambda vut, model: copy.deepcopy(vut),
    "pickle": lambda vut, model: pickle.loads(pickle.dumps(vut)),
    "cells": lambda vut, model: cells_only(model),
}
merge_steps = st.lists(
    st.one_of(
        # REL: the next row, relevant to some views.
        st.tuples(st.just("rel"), st.frozensets(st.sampled_from(MODEL_VIEWS))),
        # An action list: paint the view's first ``k`` white rows red with
        # state = the last of them (a PA batch; SPA's is k = 1), or its
        # ``k``-th white row alone (painting out of row order).
        st.tuples(st.just("batch"), st.sampled_from(MODEL_VIEWS),
                  st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("one"), st.sampled_from(MODEL_VIEWS),
                  st.integers(min_value=0, max_value=3)),
        # Apply a row: its reds turn gray and it is purged if it can be.
        st.tuples(st.just("apply"), st.integers(min_value=0, max_value=8)),
        st.tuples(st.just("purge_completed")),
        st.tuples(st.just("twin"), st.sampled_from(sorted(TWINS))),
    ),
    min_size=1,
    max_size=40,
)


@given(steps=merge_steps)
@settings(max_examples=200, deadline=None)
def test_merge_interleavings_match_dense_model(steps):
    """RELs in ascending order, action lists painting runs of whites red in
    and out of row order, rows applied, purged singly and all at once, and
    the table swapped for a deep copy, a pickle round trip or a cells-only
    load: after every step the indexed answers are the dense model's."""
    vut, model = ViewUpdateTable(MODEL_VIEWS), DenseModel(MODEL_VIEWS)
    next_row = 1
    for kind, *args in steps:
        if kind == "rel":
            vut.allocate_row(next_row, args[0])
            model.allocate_row(next_row, args[0])
            next_row += 1
        elif kind in ("batch", "one"):
            view, k = args
            whites = model.white_rows_through(next_row, view)
            run = whites[:k] if kind == "batch" else whites[k:k + 1]
            for row in run:
                vut.set_color(row, view, Color.RED, Color.WHITE)
                vut.set_state(row, view, run[-1])
                model.rows[row][view] = [Color.RED, run[-1]]
        elif kind == "apply":
            live = sorted(model.rows)
            if not live:
                continue
            row = live[args[0] % len(live)]
            if vut.has_color(row, Color.WHITE):
                with pytest.raises(MergeError, match="white or red"):
                    vut.purge(row)
                continue
            for view in vut.views_with_color(row, Color.RED):
                vut.set_color(row, view, Color.GRAY)
                model.rows[row][view][0] = Color.GRAY
            vut.purge(row)
            del model.rows[row]
        elif kind == "purge_completed":
            done = tuple(r for r in sorted(model.rows) if model.purgeable(r))
            assert vut.purge_completed() == done
            for r in done:
                del model.rows[r]
        else:
            twin = TWINS[args[0]](vut, model)
            assert_same_answers(twin, model)
            vut = twin  # keep painting the copy: its indexes must be live
        assert_same_answers(vut, model)


def test_copies_carry_the_cells_alone():
    """The indexes are derived: a pickle holds the views and the cells, and
    a deep copy shares no index with the original."""
    vut = ViewUpdateTable(("V1", "V2"))
    vut.allocate_row(1, frozenset({"V1", "V2"}))
    vut.set_color(1, "V1", Color.RED)
    assert set(vut.__getstate__()) == {"_views", "_rows"}
    twin = copy.deepcopy(vut)
    twin.set_color(1, "V2", Color.RED)
    assert vut.has_color(1, Color.WHITE) and not twin.has_color(1, Color.WHITE)
    assert vut.first_red("V2") == 0 and twin.first_red("V2") == 1


def test_expected_color_refusal_leaves_the_cell():
    vut = ViewUpdateTable(("V1", "V2"))
    vut.allocate_row(1, frozenset({"V1"}))
    vut.set_color(1, "V1", Color.RED, Color.WHITE)
    for view in ("V1", "V2"):  # a red cell, then a black one
        before = vut.snapshot()
        with pytest.raises(MergeError, match="expected white"):
            vut.set_color(1, view, Color.RED, Color.WHITE)
        assert vut.snapshot() == before
    assert vut.first_red("V1") == 1 and not vut.has_color(1, Color.WHITE)
