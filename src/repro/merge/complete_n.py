"""The complete-N merge policy (§6.3).

"The MP can use an algorithm that is similar to SPA, but instead it
collects all ALs corresponding to every N updates, then forwards them to
the warehouse.  The warehouse view maintenance is complete-N as well."

Global update ids partition into blocks ``[kN+1, (k+1)N]``.  The merge
process releases one warehouse transaction per block, containing every
action list of the block in row order, once

* the REL of every update in the block has arrived, and
* every white entry of the block has been painted red, and
* every earlier block has been released (blocks advance the warehouse
  state in order).

View managers feeding this policy are
:class:`repro.viewmgr.complete_n.CompleteNViewManager` instances with the
same N, whose action lists cover exactly their relevant updates within
one block.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import MergeError
from repro.merge.base import MergeAlgorithm, ReadyUnit, by_view
from repro.merge.vut import GRAY, RED, WHITE, ViewUpdateTable
from repro.viewmgr.actions import ActionList


class CompleteNMerge(MergeAlgorithm):
    """Release warehouse transactions one N-update block at a time."""

    requires_level = "complete-n"
    guarantees_level = "complete-n"
    config_args = {"n": "block_size"}

    def __init__(self, views: tuple[str, ...], n: int, name: str = "merge-n") -> None:
        super().__init__(views, name)
        if n < 1:
            raise MergeError(f"block size N must be >= 1, got {n}")
        self.n = n
        self.vut = ViewUpdateTable(self.views)
        self._wt: dict[int, list[ActionList]] = defaultdict(list)
        self._next_block = 0  # index of the next block to release
        # Rows with at least one relevant view *in this merge's scope*.
        # Only these are covered by released transactions — under §6.1
        # distribution every merge receives every REL (complete-N needs
        # closed blocks), but a row must be covered by exactly one merge.
        self._relevant_rows: set[int] = set()

    def _block_of(self, update_id: int) -> int:
        return (update_id - 1) // self.n

    def _on_rel(self, update_id: int, views: frozenset[str]) -> list[ReadyUnit]:
        self.vut.allocate_row(update_id, views)
        if views:
            self._relevant_rows.add(update_id)
        return self._release_blocks()

    def _on_action_list(self, action_list: ActionList) -> list[ReadyUnit]:
        first_block = self._block_of(action_list.covered[0])
        last_block = self._block_of(action_list.last_update)
        if first_block != last_block:
            raise MergeError(
                f"{action_list} spans blocks {first_block} and {last_block}; "
                f"complete-{self.n} managers must flush at block boundaries"
            )
        for row in action_list.covered:
            try:
                self.vut.set_color(row, action_list.view, RED, WHITE)
            except MergeError as error:
                raise MergeError(f"{action_list}: {error}") from None
        self._wt[action_list.last_update].append(action_list)
        return self._release_blocks()

    def _release_blocks(self) -> list[ReadyUnit]:
        ready: list[ReadyUnit] = []
        while self._block_ready(self._next_block):
            unit = self._release(self._next_block)
            if unit is not None:
                ready.append(unit)
            self._next_block += 1
        return ready

    def flush(self) -> list[ReadyUnit]:
        """Release the trailing partial block once the update stream ends.

        Only legal when every expected action list has arrived; raises
        :class:`MergeError` if some entry is still white.
        """
        remaining = self.vut.row_ids
        if not remaining:
            return []
        rows: list[int] = []
        lists: list[ActionList] = []
        for row in remaining:
            if self.vut.has_color(row, WHITE):
                raise MergeError(
                    f"cannot flush: row {row} still waits for action lists"
                )
            if row in self._relevant_rows:
                rows.append(row)
                self._relevant_rows.discard(row)
            for view in self.vut.views_with_color(row, RED):
                self.vut.set_color(row, view, GRAY)
            lists.extend(sorted(self._wt.pop(row, ()), key=by_view))
            self.vut.purge(row)
        self._next_block = self._block_of(remaining[-1]) + 1
        if not rows:
            return []
        unit = ReadyUnit(tuple(rows), tuple(lists))
        self.units_emitted += 1
        return [unit]

    def _block_ready(self, block: int) -> bool:
        start, end = block * self.n + 1, (block + 1) * self.n
        # Every REL of the block must have arrived...
        if self._last_rel_id < end:
            return False
        # ...and every relevant entry must have its action list.
        for row in range(start, end + 1):
            if row in self.vut and self.vut.has_color(row, WHITE):
                return False
        return True

    def _release(self, block: int) -> ReadyUnit | None:
        start, end = block * self.n + 1, (block + 1) * self.n
        rows: list[int] = []
        lists: list[ActionList] = []
        for row in range(start, end + 1):
            if row not in self.vut:
                continue
            if row in self._relevant_rows:
                rows.append(row)
                self._relevant_rows.discard(row)
            for view in self.vut.views_with_color(row, RED):
                self.vut.set_color(row, view, GRAY)
            lists.extend(sorted(self._wt.pop(row, ()), key=by_view))
            self.vut.purge(row)
        if not rows:
            return None  # the whole block was irrelevant to this merge
        return ReadyUnit(tuple(rows), tuple(lists))

    def idle(self) -> bool:
        return len(self.vut) == 0 and not self.pending_action_lists
