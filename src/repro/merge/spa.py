"""Algorithm 1: the Simple Painting Algorithm (SPA), §4.

SPA coordinates *complete* view managers: every relevant update ``U_i``
produces exactly one action list per relevant view, so the merge process
waits for one AL per white VUT entry, applies each row as a single
warehouse transaction as soon as it (and every dependent earlier row) is
ready, and purges applied rows.

SPA is *complete under MVC* (Theorem 4.1) and *prompt*: it never delays an
action list that could safely be applied.

``strict`` (default) rejects action lists covering more than one update —
those come from strongly consistent managers and break SPA, as Example 4
shows.  ``strict=False`` reproduces the paper's Example-4 misbehaviour by
treating a batched list the way a naive SPA would (coloring every covered
entry red without the state bookkeeping PA adds); it exists so tests and
benchmarks can demonstrate *why* PA is necessary.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import MergeError
from repro.merge.base import MergeAlgorithm, ReadyUnit, by_view
from repro.merge.vut import GRAY, RED, WHITE, ViewUpdateTable
from repro.viewmgr.actions import ActionList


class SimplePaintingAlgorithm(MergeAlgorithm):
    """SPA: MVC-complete merging for complete view managers."""

    requires_level = "complete"
    guarantees_level = "complete"

    def __init__(
        self,
        views: tuple[str, ...],
        name: str = "spa",
        strict: bool = True,
    ) -> None:
        super().__init__(views, name)
        self.vut = ViewUpdateTable(self.views)
        self.strict = strict
        self._wt: dict[int, list[ActionList]] = defaultdict(list)
        # Must be a real list from construction: the crash-recovery path
        # calls _process_row directly, without a receive_* event resetting it.
        self._emitted: list[ReadyUnit] = []

    # -- event hooks ---------------------------------------------------------
    def _on_rel(self, update_id: int, views: frozenset[str]) -> list[ReadyUnit]:
        self.vut.allocate_row(update_id, views)
        if not views:
            # A row relevant to no view in this merge's scope is trivially
            # appliable (and in the single-merge case represents an update
            # relevant to no view at all): emit nothing, purge immediately.
            self.vut.purge(update_id)
        return []

    def _on_action_list(self, action_list: ActionList) -> list[ReadyUnit]:
        if self.strict and len(action_list.covered) != 1:
            raise MergeError(
                f"SPA requires complete view managers (one update per action "
                f"list) but received {action_list}; use the Painting "
                f"Algorithm for strongly consistent managers (Example 4)"
            )
        self._emitted = []
        for row in action_list.covered:
            try:
                self.vut.set_color(row, action_list.view, RED, WHITE)
            except MergeError as error:
                raise MergeError(f"{action_list}: {error}") from None
        self._wt[action_list.last_update].append(action_list)
        self._process_row(action_list.covered[0])
        return self._emitted

    # -- Procedure ProcessRow(i), Algorithm 1 ------------------------------------
    def _process_row(self, row: int) -> None:
        vut = self.vut
        if row not in vut:
            return  # already applied and purged by an earlier recursion
        # Line 1: some action in this row has not yet arrived.
        if vut.has_color(row, WHITE):
            return
        # Line 2: lists from the same view manager must be applied in the
        # order generated — an earlier red entry in any red column blocks,
        # so this row must head every one of its red columns.
        reds = vut.views_with_color(row, RED)
        for view in reds:
            if vut.first_red(view) != row:
                return
        # Lines 3 and 5: mark this row's lists as being applied, which pops
        # it off each red column; the column's new head is nextRed.
        followers = set()
        for view in reds:
            vut.set_color(row, view, GRAY)
            followers.add(vut.first_red(view))
        followers.discard(0)
        # Line 4: apply all actions in WT_i as a single warehouse transaction.
        lists = tuple(sorted(self._wt.pop(row, ()), key=by_view))
        if lists:
            self._emitted.append(ReadyUnit((row,), lists))
        # Line 6: purge row i (before recursing keeps the table minimal and
        # is safe — gray entries never gate a later row).
        vut.purge(row)
        for follower in sorted(followers):
            self._process_row(follower)

    # -- inspection ---------------------------------------------------------------
    def idle(self) -> bool:
        return len(self.vut) == 0 and not self.pending_action_lists
