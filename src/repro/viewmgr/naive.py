"""The naive (deliberately broken) view manager.

Demonstrates §1.1 Problem 3: "A delta computation ... may be 'intertwined'
with subsequent updates.  For instance, in Example 1, in between times t1
and t2 we computed the join of the new S tuple [2,3] with R.  If R is
updated before we read it, we may get fewer or more tuples than what we
wanted."

This manager queries the *current* base state (no multiversion snapshot,
no compensation) and computes each update's delta against it.  Whenever
another update slips in between the update and the read, the resulting
action list is wrong — the view drifts away from every consistent source
state.  Tests and the Table-1 benchmark use it as the cautionary baseline
that motivates the correct managers in this package.
"""

from __future__ import annotations

from repro.messages import UpdateForView
from repro.viewmgr.base import ViewManager


class NaiveViewManager(ViewManager):
    """Computes deltas against whatever base state it happens to read."""

    kind = "naive"
    level = "broken"
    config_args = {}
    fixed_mode = "naive"

    def __init__(self, *args, **kwargs) -> None:
        """:class:`ViewManager`'s arguments, minus ``mode``."""
        super().__init__(*args, mode=self.fixed_mode, **kwargs)

    def select_batch(self) -> list[UpdateForView]:
        return [self._buffer.popleft()]
