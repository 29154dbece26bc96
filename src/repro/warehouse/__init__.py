"""The warehouse: materialized views plus a transactional applier.

The warehouse applies *warehouse transactions* — bundles of action lists
that must take effect atomically (paper §1.1 Problem 1) — and exposes the
warehouse state sequence ``ws_0 .. ws_q`` that the consistency
definitions of Section 2 are stated over.

Commit ordering is the §4.3 concern: two transactions whose view sets
intersect ("dependent" transactions) must commit in submission order.
:class:`WarehouseProcess` can execute transactions on several parallel
executor slots — which is exactly what lets out-of-order commits happen
when the merge process does *not* sequence dependent transactions, and
what the dependency-aware policies prevent.
"""

from repro.warehouse.txn import WarehouseTransaction
from repro.warehouse.store import CommitRecord, ViewStore, WarehouseState
from repro.warehouse.warehouse import WarehouseProcess

__all__ = [
    "WarehouseTransaction",
    "CommitRecord",
    "ViewStore",
    "WarehouseState",
    "WarehouseProcess",
]
