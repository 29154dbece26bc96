"""Algorithm 2: the Painting Algorithm (PA), §5.

PA coordinates *strongly consistent* view managers, whose action lists may
batch several intertwined updates (``AL^x_{i_{k+n}}`` covers
``U_{i_k} .. U_{i_{k+n}}``).  Two things change relative to SPA:

* receiving an action list colors **every** white entry of its column at
  or below its last update red, and records that update in the entry's
  ``state`` field — the row each covered entry must jump to;
* rows whose entries were batched together must be applied **together**:
  ``ProcessRow`` recursively gathers the closure of rows linked by
  same-column earlier reds (Line 4) and forward ``state`` pointers
  (Line 5) into ``ApplyRows``, and the group is applied in a single
  warehouse transaction — or not at all if any member is not ready.

Implementation note.  The paper's pseudocode writes Lines 6-10 (the apply)
inside ``ProcessRow``, but its Example 5 narration makes the intent clear:
recursive calls (Lines 4/5) only *gather* rows and report readiness
("ProcessRow(2) ... returns true"), and the apply happens once the
*outermost* call has examined all of its columns ("actions in both WT2 and
WT3 are **now** applied").  Applying inside an inner frame would be
incorrect: the inner frame has only checked its own row's columns, so it
could commit a group while the outer row still has an unexamined column
whose earlier red rows must join the group.  We therefore split the
procedure into ``_gather`` (Lines 1-5) and ``_try_row`` (the root wrapper
performing Lines 6-10 on success); Line 9's cascading re-checks are
root-style calls as well, matching the "ApplyRows will be set to empty
before the next time the procedure is called" remark.

PA is *strongly consistent under MVC* (Theorem 5.1) and prompt.  It is not
complete: views may skip intermediate states (Example 4: all three views
jump to state 3 directly).
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import MergeError
from repro.merge.base import MergeAlgorithm, ReadyUnit, by_view
from repro.merge.vut import GRAY, RED, WHITE, ViewUpdateTable
from repro.viewmgr.actions import ActionList


class PaintingAlgorithm(MergeAlgorithm):
    """PA: MVC-strong merging for strongly consistent view managers."""

    requires_level = "strong"
    guarantees_level = "strong"

    def __init__(self, views: tuple[str, ...], name: str = "pa") -> None:
        super().__init__(views, name)
        self.vut = ViewUpdateTable(self.views)
        self._wt: dict[int, list[ActionList]] = defaultdict(list)
        self._emitted: list[ReadyUnit] = []
        self._apply_rows: set[int] = set()

    # -- event hooks -----------------------------------------------------------
    def _on_rel(self, update_id: int, views: frozenset[str]) -> list[ReadyUnit]:
        # Entries start with state = 0 (Entry's default).
        self.vut.allocate_row(update_id, views)
        if not views:
            # Irrelevant to every view here: the all-black row is inert.
            self.vut.purge(update_id)
        return []

    def _on_action_list(self, action_list: ActionList) -> list[ReadyUnit]:
        view = action_list.view
        last = action_list.last_update
        self._emitted = []
        # Procedure ProcessAction: every white entry of this column at or
        # below the batch's last update is covered by this list.
        whites = self.vut.white_rows_through(last, view)
        if whites != action_list.covered:
            raise MergeError(
                f"{action_list} covers {action_list.covered} but the white "
                f"entries in column {view!r} through row {last} are {whites}; "
                f"a strongly consistent manager must batch consecutive "
                f"relevant updates"
            )
        for row in whites:
            self.vut.set_color(row, view, RED)
            self.vut.set_state(row, view, last)
        self._wt[last].append(action_list)
        self._try_row(last)
        return self._emitted

    # -- ProcessRow split into gather (Lines 1-5) and apply (Lines 6-10) --------
    def _try_row(self, row: int) -> bool:
        """Root-level ProcessRow: gather the closure, then apply it."""
        self._apply_rows = set()
        if not self._gather(row):
            self._apply_rows = set()
            return False
        self._apply_group()
        return True

    def _gather(self, row: int) -> bool:
        # Line 1: already slated for this application group.
        if row in self._apply_rows:
            return True
        if row not in self.vut:
            # Applied and purged previously (its column entries are gray
            # from this group's perspective); nothing more to gather.
            return True
        vut = self.vut
        # Line 2: an action list for this row has not arrived.
        if vut.has_color(row, WHITE):
            return False
        # Line 3: tentatively add this row to the application group.
        self._apply_rows.add(row)
        # Line 4: earlier unapplied (red) lists from the same managers must
        # be applied first — pull their rows in, or fail.
        reds = vut.views_with_color(row, RED)
        for view in reds:
            for earlier in vut.earlier_red_rows(row, view):
                if not self._gather(earlier):
                    return False
        # Line 5: entries batched forward must be applied together with the
        # batch's last row.  A state is written as its entry turns red, and
        # a row's reds turn gray as it is purged: only reds carry states.
        for view in reds:
            state = vut.state(row, view)
            if state > row and not self._gather(state):
                return False
        return True

    def _apply_group(self) -> None:
        """Lines 6-10: apply every row in ApplyRows as one transaction."""
        group = tuple(sorted(self._apply_rows))
        if not group:
            return
        vut = self.vut
        # Line 6: red -> gray across the group.
        painted = []
        for row in group:
            for view in vut.views_with_color(row, RED):
                vut.set_color(row, view, GRAY)
                painted.append((row, view))
        # Line 7: all actions in all rows of the group form one transaction,
        # ordered by row so earlier updates' actions precede later ones.
        lists: list[ActionList] = []
        for row in group:
            lists.extend(sorted(self._wt.pop(row, ()), key=by_view))
        if lists:
            self._emitted.append(ReadyUnit(group, tuple(lists)))
        # Line 8: reset ApplyRows.
        self._apply_rows = set()
        # Line 9 candidates: applying this group may unblock later rows.
        followers = {vut.next_red(row, view) for row, view in painted}
        followers.discard(0)
        # Line 10: purge rows that are now fully black/gray.
        for row in group:
            if row in vut and vut.purgeable(row):
                vut.purge(row)
        # Line 9: each cascading attempt starts with a fresh ApplyRows.
        for follower in sorted(followers):
            if follower in vut:
                self._try_row(follower)

    # -- inspection ------------------------------------------------------------
    def idle(self) -> bool:
        return len(self.vut) == 0 and not self.pending_action_lists
