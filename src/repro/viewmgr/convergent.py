"""The convergent view manager (§6.3).

"A view manager may only guarantee the convergence of the view it
manages.  That is, it only guarantees the eventual correctness of the view
but not the correctness of intermediate view states."

This manager processes updates in order but applies each update's view
delta *non-atomically*: deletions ship in one action list and insertions
in a separate, later one.  Every intermediate warehouse state between the
two is wrong (rows missing), yet once the stream drains the view equals
the correct final contents — convergence, and nothing stronger.  Paired
with :class:`repro.merge.passthrough.PassThroughMerge`, which forwards
lists immediately, the warehouse inherits exactly that guarantee.
"""

from __future__ import annotations

from repro.messages import UpdateForView
from repro.relational.delta import Delta
from repro.viewmgr.actions import ActionList
from repro.viewmgr.base import ViewManager


class ConvergentViewManager(ViewManager):
    """Eventually correct, intermediate states unconstrained."""

    kind = "convergent"
    level = "convergent"

    def select_batch(self) -> list[UpdateForView]:
        return [self._buffer.popleft()]

    def build_action_lists(
        self, covered: tuple[int, ...], view_delta: Delta
    ) -> list[ActionList]:
        """Deletions, then insertions, as two separately applied lists."""
        counts, layout = view_delta.tuple_counts(), view_delta.layout
        deletions = Delta({t: c for t, c in counts.items() if c < 0}, layout)
        insertions = Delta({t: c for t, c in counts.items() if c > 0}, layout)
        parts = [part for part in (deletions, insertions) if part]
        # Nothing changed: still announce progress with one empty list,
        # like the others.
        return [
            ActionList.from_delta(self.view, self.name, covered, part)
            for part in parts or [Delta()]
        ]
