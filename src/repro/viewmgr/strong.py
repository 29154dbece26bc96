"""The strongly consistent view manager (§2.2, §5.1).

"A strongly consistent view manager ... can batch multiple updates, U_i
through U_{i+k}, bringing the warehouse from a state consistent with the
sources before U_i to a state consistent with the sources after U_{i+k}.
Because a strongly consistent view manager can batch intertwined updates,
it is often more desirable in practice."

Batching here is load-driven, like Strobe's: whatever has queued up while
the previous delta computation ran is taken as the next batch (bounded by
``batch_max``).  Under light load it degenerates to one update per list;
under heavy load batches grow and the manager keeps up — precisely the
behaviour the Painting Algorithm exists to coordinate.
"""

from __future__ import annotations

from repro.errors import ViewManagerError
from repro.messages import UpdateForView
from repro.viewmgr.base import ViewManager


class StrongViewManager(ViewManager):
    """Batches queued updates into one action list per computation."""

    kind = "strong"
    level = "strong"
    config_args = {**ViewManager.config_args, "batch_max": "batch_max"}

    def __init__(self, *args, batch_max: int | None = None, **kwargs) -> None:
        """``batch_max`` caps a batch; the rest is :class:`ViewManager`'s."""
        super().__init__(*args, **kwargs)
        if batch_max is not None and batch_max < 1:
            raise ViewManagerError(f"batch_max must be >= 1, got {batch_max}")
        self.batch_max = batch_max

    def select_batch(self) -> list[UpdateForView]:
        limit = self.batch_max if self.batch_max is not None else len(self._buffer)
        batch: list[UpdateForView] = []
        while self._buffer and len(batch) < max(limit, 1):
            batch.append(self._buffer.popleft())
        return batch
