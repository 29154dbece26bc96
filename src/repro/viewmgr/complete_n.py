"""The complete-N view manager (§6.3).

"A view manager may be complete-N, that is, it may process N source
updates at a time and maintain the view consistently after every N
updates."

Global update ids partition into blocks ``[kN+1, (k+1)N]``.  The manager
emits one action list per block that contains at least one relevant
update, covering exactly its relevant updates in that block.  A block is
known to be over when the integrator's end-of-block marker for it arrives
(the integrator broadcasts markers to complete-N managers), so the
manager never waits indefinitely on a quiet view.
"""

from __future__ import annotations

from repro.errors import ViewManagerError
from repro.messages import EndOfBlock, UpdateForView
from repro.sim.process import Process
from repro.viewmgr.base import ViewManager


class CompleteNViewManager(ViewManager):
    """Processes its relevant updates in global blocks of N."""

    kind = "complete-n"
    level = "complete-n"
    config_args = {**ViewManager.config_args, "n": "block_size"}
    needs_block_markers = True

    def __init__(self, *args, n: int, **kwargs) -> None:
        """``n`` is the block size; the rest is :class:`ViewManager`'s."""
        super().__init__(*args, **kwargs)
        if n < 1:
            raise ViewManagerError(f"block size N must be >= 1, got {n}")
        self.n = n
        self._closed_through = 0  # largest update id in a closed block

    def handle(self, message: object, sender: Process) -> None:
        if isinstance(message, EndOfBlock):
            self._closed_through = max(self._closed_through, message.through)
            self._maybe_start()
        else:
            super().handle(message, sender)

    def flush(self) -> None:
        """Treat the end of the update stream as closing the last block."""
        if self._buffer:
            last = self._buffer[-1].update_id
            block_end = ((last - 1) // self.n + 1) * self.n
            self._closed_through = max(self._closed_through, block_end)
            self._maybe_start()

    def extra_durable_state(self) -> dict:
        return {"closed_through": self._closed_through}

    def restore_extra_state(self, state: dict) -> None:
        self._closed_through = state.get("closed_through", 0)

    def select_batch(self) -> list[UpdateForView]:
        """Take the buffered updates of the oldest fully closed block."""
        if not self._buffer:
            return []
        first = self._buffer[0].update_id
        block_end = ((first - 1) // self.n + 1) * self.n
        if self._closed_through < block_end:
            return []  # the block containing the oldest update is still open
        batch: list[UpdateForView] = []
        while self._buffer and self._buffer[0].update_id <= block_end:
            batch.append(self._buffer.popleft())
        return batch
