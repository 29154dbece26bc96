"""The periodic-refresh view manager (§6.3).

"A view manager may do periodical refreshing instead of incremental
maintenance.  Such a view manager will appear to the MP in our system as
if it were an ordinary strongly consistent view manager.  The action lists
from this view manager will tell the warehouse to delete the entire old
view and insert tuples of the new view."

Implementation: the manager buffers updates as they arrive; every
``period`` of virtual time it recomputes the view from its base replicas
and ships a REPLACE action list covering everything buffered since the
last refresh.  Quiet periods (no relevant updates) ship nothing.
"""

from __future__ import annotations

from repro.errors import ViewManagerError
from repro.messages import UpdateForView
from repro.relational.columnar import evaluate_columnar
from repro.relational.delta import Delta
from repro.viewmgr.actions import ActionList
from repro.viewmgr.base import ViewManager


class PeriodicRefreshManager(ViewManager):
    """Recomputes the whole view on a timer; strong to the merge process."""

    kind = "periodic"
    level = "strong"
    config_args = {"period": "refresh_period"}
    fixed_mode = "cached"

    def __init__(self, *args, period: float, **kwargs) -> None:
        """``period`` is the refresh interval; the rest is
        :class:`ViewManager`'s, minus ``mode``."""
        if period <= 0:
            raise ViewManagerError(f"refresh period must be positive, got {period}")
        # refresh recomputes from the local replica
        super().__init__(*args, mode=self.fixed_mode, **kwargs)
        self.period = period
        self._refresh_due = False
        self._tick_scheduled = False
        self.refreshes = 0

    # Ticks are demand-driven: one is armed whenever updates are buffered
    # and none is pending, so the event queue drains once the stream ends
    # (a free-running timer would keep the simulation alive forever).  The
    # effect is a refresh at most every ``period`` after work arrives.
    def handle(self, message: object, sender: "Process") -> None:  # noqa: F821
        super().handle(message, sender)
        self._ensure_tick()

    def _ensure_tick(self) -> None:
        if not self._tick_scheduled and self._buffer:
            self._tick_scheduled = True
            self.sim.schedule(self.period, self._tick)

    def _tick(self) -> None:
        self._tick_scheduled = False
        self._refresh_due = True
        self._maybe_start()
        self._ensure_tick()

    def extra_durable_state(self) -> dict:
        return {"refresh_due": self._refresh_due}

    def restore_extra_state(self, state: dict) -> None:
        self._refresh_due = state.get("refresh_due", False)
        # The pre-crash tick (if any) still fires — ticks are idempotent —
        # but make sure a restored backlog is never left without one.
        self._ensure_tick()

    def select_batch(self) -> list[UpdateForView]:
        if not self._refresh_due or not self._buffer:
            return []
        self._refresh_due = False
        batch = list(self._buffer)
        self._buffer.clear()
        return batch

    def build_action_list(
        self, covered: tuple[int, ...], view_delta: Delta
    ) -> ActionList:
        """Ship the full recomputed view instead of the delta."""
        self.refreshes += 1
        contents = evaluate_columnar(
            self.definition.expression, self._require_replica()
        )
        return ActionList.replacement(self.view, self.name, covered, contents)
