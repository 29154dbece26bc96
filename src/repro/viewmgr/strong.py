"""The strongly consistent view manager (§2.2, §5.1).

"A strongly consistent view manager ... can batch multiple updates, U_i
through U_{i+k}, bringing the warehouse from a state consistent with the
sources before U_i to a state consistent with the sources after U_{i+k}.
Because a strongly consistent view manager can batch intertwined updates,
it is often more desirable in practice."

Batching here is load-driven, like Strobe's: whatever has queued up while
the previous delta computation ran is taken as the next batch.  Under light load it degenerates to one update per list;
under heavy load batches grow and the manager keeps up — precisely the
behaviour the Painting Algorithm exists to coordinate.
"""

from __future__ import annotations

from repro.messages import UpdateForView
from repro.viewmgr.base import ViewManager


class StrongViewManager(ViewManager):
    """Batches queued updates into one action list per computation."""

    kind = "strong"
    level = "strong"

    def select_batch(self) -> list[UpdateForView]:
        batch = list(self._buffer)
        self._buffer.clear()
        return batch
