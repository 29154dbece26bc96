"""The ViewUpdateTable (VUT) of §4.1 / §5.1.

``VUT[i, x]`` corresponds to update ``U_i`` and view ``V_x``.  Each entry
carries a color:

* **white** — waiting for the corresponding action list;
* **red** — the action list has been received but is being held;
* **gray** — the action list has just been applied;
* **black** — the entry need not be examined (update irrelevant to view).

For the Painting Algorithm each entry additionally carries a ``state``
field: the row number of the last update batched into the action list
that covers this entry (0 when not yet known).

Rows are keyed by (globally numbered) update id and may be sparse — a
distributed merge process only ever sees the rows relevant to its view
group (§6.1).

Storage is sparse too.  An update is relevant to a handful of views, so a
row stores an :class:`Entry` only for the cells that ever left black —
an absent cell of a known view *is* ``(black, 0)``.  Two indexes over the
cells are kept up to date by every paint, for white and for red: per row,
how many of its cells have the color, and per view column, the ascending
ids of the rows whose cell has it.  ``has_color`` (white or red) and
``purgeable`` are then lookups, ``next_red``, ``earlier_red_rows`` and
``white_rows_through`` bisect one color's column, and only
``views_with_color`` walks the row's few stored cells, whatever the
table's height and width.  The indexes are derived: a pickle or a deep
copy carries the cells alone, and loading rebuilds them.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right, insort
from typing import Iterator, Sequence

from repro.errors import MergeError
from repro.record import Record


class Color(enum.Enum):
    WHITE = "w"
    RED = "r"
    GRAY = "g"
    BLACK = "b"

    def __str__(self) -> str:
        return self.value


# The colors as module names: reading a member off the class goes through
# ``EnumType.__getattr__`` (Python 3.11), about ten times a global read,
# and the painting algorithms read colors on every event.
WHITE, RED, GRAY, BLACK = Color.WHITE, Color.RED, Color.GRAY, Color.BLACK


class Entry(Record):
    """One VUT cell: a color plus PA's next-state pointer (mutable, so
    unhashable)."""

    __slots__ = ("color", "state")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, color: Color = BLACK, state: int = 0) -> None:
        self.color = color
        self.state = state

    def __str__(self) -> str:
        return f"({self.color},{self.state})"


class _Index(dict):
    """One of the table's maps: a missing key is a :class:`MergeError`."""

    def __init__(self, what: str, *items: dict) -> None:
        super().__init__(*items)
        self.what = what

    def __missing__(self, key: object) -> None:
        raise MergeError(f"no VUT {self.what} {key!r}")


class ViewUpdateTable:
    """The merge process's bookkeeping table."""

    def __init__(self, views: Sequence[str]) -> None:
        if not views:
            raise MergeError("a VUT needs at least one view column")
        if len(set(views)) != len(views):
            raise MergeError(f"duplicate view columns: {views}")
        self._views = tuple(views)
        self._position = {view: at for at, view in enumerate(self._views)}
        # row -> its stored cells, in column order
        self._rows: dict[int, dict[str, Entry]] = _Index("row")
        # Per indexed color (white, red): row -> how many of its cells have
        # the color, and view -> ascending ids of the rows whose cell has it.
        self._whites, self._reds = _Index("row"), _Index("row")
        self._white_rows = _Index("column", {view: [] for view in self._views})
        self._red_rows = _Index("column", {view: [] for view in self._views})

    # -- pickling and copying carry the cells; loading rebuilds the indexes ----
    def __getstate__(self) -> dict:
        return {"_views": self._views, "_rows": dict(self._rows)}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["_views"])
        for row, cells in sorted(state["_rows"].items()):
            self._load(row, cells)

    # -- structure -----------------------------------------------------------
    @property
    def views(self) -> tuple[str, ...]:
        return self._views

    @property
    def row_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows))

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    def allocate_row(self, row: int, relevant_views: frozenset[str]) -> None:
        """§4.2: new row ``row`` — white for views in ``REL``, black otherwise."""
        if row in self._rows:
            raise MergeError(f"row {row} already allocated")
        try:
            ordered = sorted(relevant_views, key=self._position.__getitem__)
        except KeyError:
            unknown = relevant_views - self._position.keys()
            raise MergeError(f"REL names unknown views {sorted(unknown)}") from None
        self._load(row, {view: Entry(WHITE) for view in ordered})

    def _load(self, row: int, cells: dict[str, Entry]) -> None:
        self._rows[row] = cells
        self._whites[row] = self._reds[row] = 0
        for view, entry in cells.items():
            self._track(row, view, entry.color, 1)

    def _track(self, row: int, view: str, color: Color, step: int) -> None:
        """Count cell ``[row, view]`` in (+1) or out of (-1) ``color``'s indexes."""
        if color is WHITE:
            counts, columns = self._whites, self._white_rows
        elif color is RED:
            counts, columns = self._reds, self._red_rows
        else:
            return
        counts[row] += step
        column = columns[view]
        if step < 0:
            del column[bisect_left(column, row)]
        elif not column or column[-1] < row:  # RELs arrive in ascending order
            column.append(row)
        else:
            insort(column, row)

    def _entry(self, row: int, view: str, create: bool = False) -> Entry:
        """The cell's entry; a black cell has none until ``create`` stores one."""
        cells = self._rows.get(row)
        if cells is None or view not in self._position:
            raise MergeError(f"no VUT entry for row {row}, view {view!r}")
        entry = cells.get(view)
        if entry is None:
            entry = Entry()  # what an absent cell stands for: (black, 0)
            if create:
                cells[view] = entry
                self._rows[row] = dict(
                    sorted(cells.items(), key=lambda cell: self._position[cell[0]])
                )
        return entry

    # -- cell access -----------------------------------------------------------
    def color(self, row: int, view: str) -> Color:
        return self._entry(row, view).color

    def set_color(
        self, row: int, view: str, color: Color, expect: Color | None = None
    ) -> None:
        """Paint cell ``[row, view]``; with ``expect``, a cell of another
        color is a :class:`MergeError` and keeps its color."""
        entry = self._entry(row, view, create=color is not BLACK)
        old = entry.color
        if expect is not None and old is not expect:
            raise MergeError(
                f"VUT[{row}, {view}] is {old}, expected {expect.name.lower()}"
            )
        if old is not color:
            entry.color = color
            self._track(row, view, old, -1)
            self._track(row, view, color, 1)

    def state(self, row: int, view: str) -> int:
        return self._entry(row, view).state

    def set_state(self, row: int, view: str, state: int) -> None:
        self._entry(row, view, create=state != 0).state = state

    # -- queries used by the painting algorithms ---------------------------------
    def views_with_color(self, row: int, color: Color) -> tuple[str, ...]:
        cells = self._rows[row]
        if color is BLACK:
            return tuple(
                v for v in self._views
                if v not in cells or cells[v].color is BLACK
            )
        return tuple(v for v, entry in cells.items() if entry.color is color)

    def has_color(self, row: int, color: Color) -> bool:
        if color is WHITE:
            return self._whites[row] > 0
        if color is RED:
            return self._reds[row] > 0
        return bool(self.views_with_color(row, color))

    def first_red(self, view: str) -> int:
        """The head of column ``view``'s red rows, or 0 when none is red."""
        column = self._red_rows[view]
        return column[0] if column else 0

    def next_red(self, row: int, view: str) -> int:
        """``nextRed(i, x)``: the next red entry below ``VUT[i, x]``, or 0."""
        column = self._red_rows[view]
        at = bisect_right(column, row)
        return column[at] if at < len(column) else 0

    def earlier_red_rows(self, row: int, view: str) -> tuple[int, ...]:
        """Rows ``i' < row`` whose entry in column ``view`` is red."""
        column = self._red_rows[view]
        return tuple(column[: bisect_left(column, row)])

    def white_rows_through(self, row: int, view: str) -> tuple[int, ...]:
        """Rows ``i' <= row`` whose entry in column ``view`` is white (PA)."""
        column = self._white_rows[view]
        return tuple(column[: bisect_right(column, row)])

    def purgeable(self, row: int) -> bool:
        """A row may be purged when every entry is black or gray."""
        return not (self._whites[row] or self._reds[row])

    def purge(self, row: int) -> None:
        if row not in self._rows:
            raise MergeError(f"cannot purge missing row {row}")
        if not self.purgeable(row):
            raise MergeError(f"row {row} still has white or red entries")
        # A purgeable row has no white or red cell, so no column lists it.
        del self._rows[row], self._whites[row], self._reds[row]

    def purge_completed(self) -> tuple[int, ...]:
        """Purge every purgeable row; returns the purged ids."""
        purged = tuple(r for r in sorted(self._rows) if self.purgeable(r))
        for row in purged:
            self.purge(row)
        return purged

    # -- display (used by the paper-trace benchmarks) -----------------------------
    def _dense(self) -> Iterator[tuple[int, list[Entry]]]:
        """Every row ascending, one entry per view column (black filled in)."""
        black = Entry()
        for row, cells in sorted(self._rows.items()):
            yield row, [cells.get(view, black) for view in self._views]

    def snapshot(self) -> dict[int, dict[str, str]]:
        """A printable copy: row -> view -> "(color,state)"."""
        return {
            row: {view: str(entry) for view, entry in zip(self._views, entries)}
            for row, entries in self._dense()
        }

    def render(self, show_state: bool = False) -> str:
        """Render the table like the paper's figures."""
        header = "      " + " ".join(f"{v:>8}" for v in self._views)
        lines = [header]
        for row, entries in self._dense():
            cells = []
            for entry in entries:
                text = (
                    f"({entry.color},{entry.state})" if show_state else str(entry.color)
                )
                cells.append(f"{text:>8}")
            lines.append(f"U{row:<5}" + " ".join(cells))
        return "\n".join(lines)
