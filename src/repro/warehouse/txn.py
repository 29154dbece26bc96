"""Warehouse transactions (``WT_i`` and batched ``BWT`` of §4.3)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import WarehouseError
from repro.viewmgr.actions import ActionList


@dataclass(frozen=True, slots=True)
class WarehouseTransaction:
    """An atomic bundle of action lists for the warehouse.

    ``covered_rows`` are the VUT row numbers (update ids) whose action
    lists this transaction applies; ``view_set`` is ``VS(WT)`` from §4.3 —
    the set of views the transaction updates.  Two transactions are
    *dependent* when their view sets intersect; dependent transactions
    must commit in submission order.
    """

    txn_id: int
    merge_name: str
    action_lists: tuple[ActionList, ...]
    covered_rows: tuple[int, ...]
    # VS(WT), computed once: the submission policies probe it per offer
    # and per commit, and the action lists never change.
    _view_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.covered_rows:
            raise WarehouseError("a warehouse transaction must cover some update")
        if list(self.covered_rows) != sorted(set(self.covered_rows)):
            raise WarehouseError(
                f"covered rows must be strictly increasing: {self.covered_rows}"
            )
        object.__setattr__(
            self, "_view_set", frozenset(al.view for al in self.action_lists)
        )

    @property
    def view_set(self) -> frozenset[str]:
        """``VS(WT)``: the views this transaction carries action lists for.

        Content-empty action lists count: a no-effect transaction still
        advances its views' update bookkeeping, so commit ordering must
        treat it as dependent on (and depended on by) its views' other
        transactions — otherwise a no-op could commit out of order and
        leave the reconstructed application schedule inconsistent.
        """
        return self._view_set

    @property
    def effective_views(self) -> frozenset[str]:
        """Views whose contents this transaction actually changes."""
        return frozenset(al.view for al in self.action_lists if not al.is_empty)

    def depends_on(self, earlier: "WarehouseTransaction") -> bool:
        """§4.3: ``WT_j`` depends on ``WT_i`` iff j > i and view sets meet."""
        if self.txn_id <= earlier.txn_id:
            return False
        return not self._view_set.isdisjoint(earlier._view_set)

    @property
    def is_batch(self) -> bool:
        """True when this bundles several logical WTs (a ``BWT``)."""
        return len(self.covered_rows) > 1

    def __str__(self) -> str:
        rows = ",".join(str(r) for r in self.covered_rows)
        views = ",".join(sorted(self._view_set)) or "-"
        return f"WT{self.txn_id}(rows {{{rows}}} views {{{views}}})"


def batch(
    txn_id: int,
    merge_name: str,
    transactions: list[WarehouseTransaction],
) -> WarehouseTransaction:
    """Combine several ready transactions into one ``BWT`` (§4.3).

    Dependent constituents must be given in submission order; their action
    lists are concatenated in that order so that "if WT_j depends on WT_i,
    all ALs in WT_i appear before all ALs in WT_j".
    """
    if not transactions:
        raise WarehouseError("cannot batch zero transactions")
    lists: list[ActionList] = []
    rows: set[int] = set()
    for txn in transactions:
        lists.extend(txn.action_lists)
        # Convergent managers may split one update across several
        # transactions; the batch covers each update once.
        rows.update(txn.covered_rows)
    return WarehouseTransaction(
        txn_id, merge_name, tuple(lists), tuple(sorted(rows))
    )
