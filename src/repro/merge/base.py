"""Common machinery for merge algorithms.

A merge algorithm is a deterministic event consumer: it receives ``REL_i``
sets from the integrator and action lists from view managers, and emits
:class:`ReadyUnit` objects — groups of action lists that must be applied
to the warehouse as one atomic transaction.  It never blocks: unprocessable
input is held internally (the white/red discipline of the VUT).

The base class also implements the two protocol rules every algorithm
shares:

* an action list may arrive before its ``REL`` (merge must hold it — §4);
* action lists from one manager must be processed in the order sent.
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter

from repro.errors import MergeError
from repro.record import Record
from repro.viewmgr.actions import ActionList

#: the sort key that puts one row's action lists in view order
by_view = attrgetter("view")


class ReadyUnit(Record):
    """Action lists that must be applied in one warehouse transaction.

    ``rows`` are the VUT rows the unit covers, ascending; ``action_lists``
    are ordered row-by-row so earlier updates' actions precede later ones.
    Read-only once built.
    """

    __slots__ = ("rows", "action_lists")

    def __init__(self, rows: tuple[int, ...],
                 action_lists: tuple[ActionList, ...]) -> None:
        self.rows = rows
        self.action_lists = action_lists

    @property
    def views(self) -> frozenset[str]:
        return frozenset(al.view for al in self.action_lists)

    def __str__(self) -> str:
        rows = ",".join(str(r) for r in self.rows)
        return f"ReadyUnit(rows {{{rows}}}, {len(self.action_lists)} ALs)"


class MergeAlgorithm:
    """Base class: REL/AL intake, ordering checks, pending-AL buffering."""

    #: the single-view consistency level this algorithm requires from the
    #: view managers beneath it ("complete", "strong", or "convergent")
    requires_level = "complete"
    #: the MVC level the algorithm guarantees at the warehouse
    guarantees_level = "complete"
    #: constructor keyword -> ``SystemConfig`` field (on top of views, name)
    config_args: dict[str, str] = {}

    def __init__(self, views: tuple[str, ...], name: str = "merge") -> None:
        if not views:
            raise MergeError("a merge algorithm needs at least one view")
        self.views = tuple(views)
        self._view_set = frozenset(self.views)
        self.name = name
        self._last_rel_id = 0
        self._last_al_id: dict[str, int] = defaultdict(int)
        # ALs whose REL has not arrived yet, keyed by last_update.
        self._pending: dict[int, list[ActionList]] = defaultdict(list)
        self.rels_received = 0
        self.als_received = 0
        self.units_emitted = 0

    # -- public event API ---------------------------------------------------
    def receive_rel(self, update_id: int, views: frozenset[str]) -> list[ReadyUnit]:
        """Process ``REL_update_id``; returns any units that became ready."""
        if update_id <= self._last_rel_id:
            raise MergeError(
                f"REL{update_id} arrived after REL{self._last_rel_id}; the "
                f"integrator must send RELs in increasing order"
            )
        if not views <= self._view_set:
            unknown = sorted(views - self._view_set)
            raise MergeError(f"REL{update_id} names unknown views {unknown}")
        self._last_rel_id = update_id
        self.rels_received += 1
        ready = self._on_rel(update_id, views)
        if self._pending:
            ready.extend(self._release_pending())
        self.units_emitted += len(ready)
        return ready

    def receive_action_list(self, action_list: ActionList) -> list[ReadyUnit]:
        """Process one ``AL^x_j``; returns any units that became ready."""
        if action_list.view not in self._view_set:
            raise MergeError(
                f"{action_list} targets view {action_list.view!r}, which is "
                f"not handled by merge {self.name!r} (views: {self.views})"
            )
        manager = action_list.manager
        if action_list.covered[0] <= self._last_al_id[manager]:
            raise MergeError(
                f"{action_list} overlaps an earlier list from {manager!r} "
                f"(last covered {self._last_al_id[manager]})"
            )
        # Recorded on arrival, so a held list's duplicate is refused now.
        self._last_al_id[manager] = action_list.last_update
        self.als_received += 1
        if action_list.last_update > self._last_rel_id:
            # The REL for (part of) this batch has not arrived; hold the
            # list — RELs arrive in order, so waiting for last_update
            # suffices for every covered id.
            self._pending[action_list.last_update].append(action_list)
            return []
        ready = self._on_action_list(action_list)
        self.units_emitted += len(ready)
        return ready

    def _release_pending(self) -> list[ReadyUnit]:
        ready: list[ReadyUnit] = []
        for last_update in sorted(self._pending):
            if last_update > self._last_rel_id:
                break
            for action_list in self._pending.pop(last_update):
                ready.extend(self._on_action_list(action_list))
        return ready

    # -- inspection ------------------------------------------------------------
    @property
    def pending_action_lists(self) -> int:
        return sum(len(lists) for lists in self._pending.values())

    def idle(self) -> bool:
        """True when nothing is buffered (all received work was emitted)."""
        raise NotImplementedError

    # -- subclass hooks ----------------------------------------------------------
    def _on_rel(self, update_id: int, views: frozenset[str]) -> list[ReadyUnit]:
        raise NotImplementedError

    def _on_action_list(self, action_list: ActionList) -> list[ReadyUnit]:
        raise NotImplementedError
