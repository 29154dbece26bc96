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
an absent cell of a known view *is* ``(black, 0)`` — and every view column
keeps the ascending ids of the rows holding one of its cells.  The
painting algorithms' probes (``next_red``, ``earlier_red_rows``,
``white_rows_through``) then walk one column slice, and the per-row ones
walk the row's few stored cells, whatever the table's height and width.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import MergeError


class Color(enum.Enum):
    WHITE = "w"
    RED = "r"
    GRAY = "g"
    BLACK = "b"

    def __str__(self) -> str:
        return self.value


@dataclass(slots=True)
class Entry:
    """One VUT cell: a color plus PA's next-state pointer."""

    color: Color = Color.BLACK
    state: int = 0

    def __str__(self) -> str:
        return f"({self.color},{self.state})"


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
        self._rows: dict[int, dict[str, Entry]] = {}
        # view -> ascending ids of the rows that store a cell for it
        self._columns: dict[str, list[int]] = {view: [] for view in self._views}

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
        self._rows[row] = {view: Entry(Color.WHITE) for view in ordered}
        for view in ordered:
            self._index(row, view)

    def _index(self, row: int, view: str) -> None:
        column = self._columns[view]
        if not column or column[-1] < row:  # RELs arrive in ascending order
            column.append(row)
        else:
            insort(column, row)

    def _cells(self, row: int) -> dict[str, Entry]:
        try:
            return self._rows[row]
        except KeyError:
            raise MergeError(f"no VUT row {row}") from None

    def _column(self, view: str) -> list[int]:
        try:
            return self._columns[view]
        except KeyError:
            raise MergeError(f"no VUT column {view!r}") from None

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
                self._index(row, view)
        return entry

    # -- cell access -----------------------------------------------------------
    def color(self, row: int, view: str) -> Color:
        return self._entry(row, view).color

    def set_color(self, row: int, view: str, color: Color) -> None:
        self._entry(row, view, create=color is not Color.BLACK).color = color

    def state(self, row: int, view: str) -> int:
        return self._entry(row, view).state

    def set_state(self, row: int, view: str, state: int) -> None:
        self._entry(row, view, create=state != 0).state = state

    # -- queries used by the painting algorithms ---------------------------------
    def views_with_color(self, row: int, color: Color) -> tuple[str, ...]:
        cells = self._cells(row)
        if color is Color.BLACK:
            return tuple(
                v for v in self._views
                if v not in cells or cells[v].color is Color.BLACK
            )
        return tuple(v for v, entry in cells.items() if entry.color is color)

    def has_color(self, row: int, color: Color) -> bool:
        cells = self._cells(row)
        if color is Color.BLACK and len(cells) < len(self._views):
            return True
        return any(entry.color is color for entry in cells.values())

    def forward_states(self, row: int) -> tuple[int, ...]:
        """PA's batch pointers out of ``row``: every ``state`` beyond it."""
        return tuple(
            entry.state for entry in self._cells(row).values() if entry.state > row
        )

    def next_red(self, row: int, view: str) -> int:
        """``nextRed(i, x)``: the next red entry below ``VUT[i, x]``, or 0."""
        column = self._column(view)
        for at in range(bisect_right(column, row), len(column)):
            if self._rows[column[at]][view].color is Color.RED:
                return column[at]
        return 0

    def earlier_red_rows(self, row: int, view: str) -> tuple[int, ...]:
        """Rows ``i' < row`` whose entry in column ``view`` is red."""
        column = self._column(view)
        return tuple(
            r for r in column[: bisect_left(column, row)]
            if self._rows[r][view].color is Color.RED
        )

    def white_rows_through(self, row: int, view: str) -> tuple[int, ...]:
        """Rows ``i' <= row`` whose entry in column ``view`` is white (PA)."""
        column = self._column(view)
        return tuple(
            r for r in column[: bisect_right(column, row)]
            if self._rows[r][view].color is Color.WHITE
        )

    def purgeable(self, row: int) -> bool:
        """A row may be purged when every entry is black or gray."""
        return all(
            entry.color in (Color.BLACK, Color.GRAY)
            for entry in self._cells(row).values()
        )

    def purge(self, row: int) -> None:
        if row not in self._rows:
            raise MergeError(f"cannot purge missing row {row}")
        if not self.purgeable(row):
            raise MergeError(f"row {row} still has white or red entries")
        self._drop(row)

    def _drop(self, row: int) -> None:
        for view in self._rows.pop(row):
            column = self._columns[view]
            del column[bisect_left(column, row)]

    def purge_completed(self) -> tuple[int, ...]:
        """Purge every purgeable row; returns the purged ids."""
        purged = tuple(r for r in sorted(self._rows) if self.purgeable(r))
        for row in purged:
            self._drop(row)
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
