"""The complete view manager (§2.2, §3.3).

"A complete view manager ... processes one update U_j at a time and
generates the warehouse view that is consistent with the source state
after U_j executed" — one action list per relevant update, in order.
Pairs with the Simple Painting Algorithm.
"""

from __future__ import annotations

from repro.messages import UpdateForView
from repro.viewmgr.base import ViewManager


class CompleteViewManager(ViewManager):
    """One action list per update: complete single-view sequences."""

    kind = "complete"
    level = "complete"

    def select_batch(self) -> list[UpdateForView]:
        return [self._buffer.popleft()]
