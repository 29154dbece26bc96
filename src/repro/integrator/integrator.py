"""The integrator process, §3.2.

On each committed-transaction report the integrator

1. numbers the update by arrival order (``U_5`` is the fifth received);
2. determines the relevant view set ``REL_i``;
3. sends ``REL_i`` to the merge process(es) responsible for those views;
4. sends a copy of ``U_i`` to each relevant view manager;

plus, in this implementation, feeds the numbered stream to the base-data
service if the system has one (for managers that query back) and, for
complete-N systems, broadcasts end-of-block markers.

Steps 2-4 depend only on the relations a transaction touches ("the source
relation R that was modified by U_i"), so each tuple of them is routed
once and looked up afterwards; under selection filtering the row test
decides ``REL`` and keys the table too.  A transaction whose ``REL`` spans
merge groups is refused before its route is stored, so on every post.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import IntegratorError
from repro.integrator.relevance import RelevanceFilter
from repro.messages import (
    EndOfBlock,
    NumberedUpdate,
    RelMessage,
    UpdateForView,
    UpdateNotification,
)
from repro.relational.expressions import ViewDefinition
from repro.relational.schema import Schema
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator
    from repro.sources.transactions import SourceTransaction
    from repro.sources.update import Update

_NUMBER_KEYS = ("update_id", "rel", "lineage", "commit_time")


class Integrator(Process):
    """Numbers updates and routes them to merges and view managers."""

    def __init__(
        self,
        sim: "Simulator",
        definitions: Sequence[ViewDefinition],
        base_schemas: Mapping[str, Schema],
        name: str = "integrator",
        merge_groups: Mapping[str, tuple[str, ...]] | None = None,
        view_manager_names: Mapping[str, str] | None = None,
        service_name: str | None = "basedata",
        use_selection_filtering: bool = False,
        send_empty_rels: bool = False,
        block_size: int | None = None,
        per_update_cost: float = 0.0,
    ) -> None:
        super().__init__(sim, name)
        self.definitions = tuple(definitions)
        self.filter = RelevanceFilter(
            self.definitions, base_schemas, use_selections=use_selection_filtering
        )
        view_names = tuple(d.name for d in self.definitions)
        self.merge_groups: dict[str, frozenset[str]] = {
            merge: frozenset(views)
            for merge, views in (merge_groups or {"merge": view_names}).items()
        }
        self._check_groups(view_names)
        self.view_manager_names = dict(
            view_manager_names or {v: f"vm:{v}" for v in view_names}
        )
        self.service_name = service_name
        self.send_empty_rels = send_empty_rels
        self.block_size = block_size
        self.per_update_cost = per_update_cost
        self.updates_numbered = 0
        self.rel_messages_sent = 0
        self.update_copies_sent = 0
        self.filtered_out = 0  # view routings suppressed by selection filtering
        #: (update_id, transaction, source commit time) in numbering order —
        #: the reference schedule the consistency checkers replay.
        self.numbered: list[tuple[int, "SourceTransaction", float]] = []
        # touched relations (and REL, when selecting) -> _route(...)
        self._routes: dict[tuple, tuple] = {}

    def _check_groups(self, view_names: tuple[str, ...]) -> None:
        covered: set[str] = set()
        for merge, views in self.merge_groups.items():
            overlap = covered & views
            if overlap:
                raise IntegratorError(
                    f"views {sorted(overlap)} assigned to several merges"
                )
            covered |= views
        missing = set(view_names) - covered
        if missing:
            raise IntegratorError(f"views {sorted(missing)} have no merge process")

    def check_one_group(
        self, updates: Sequence["Update"], relevant: frozenset[str] | None = None
    ) -> None:
        """Refuse a (§6.2 multi-update) transaction relevant to views of
        several merge groups: no one merge could apply it atomically (§6.1).
        ``relevant`` is its ``REL``, when known."""
        if relevant is None:
            relevant = self.filter.relevant_views(updates)
        touched = [
            merge for merge, group in self.merge_groups.items() if relevant & group
        ]
        if len(touched) > 1:
            raise IntegratorError(
                f"a transaction over {sorted({u.relation for u in updates})} "
                f"is relevant to views in several merge groups "
                f"({sorted(touched)}): no one merge can apply it atomically"
            )

    # -- message handling ------------------------------------------------------
    def service_time(self, message: object) -> float:
        return self.per_update_cost

    def _route(self, key: tuple, updates: Sequence["Update"]) -> tuple:
        """``(sorted REL, (merge, subset) sends, (manager, view, positions
        or None: all) picks, views filtered out)``; raises across groups."""
        relations, relevant = key if self.filter.use_selections else (
            key, self.filter.relevant_views(updates))
        self.check_one_group(updates, relevant)
        reading = [frozenset(self.filter.views_reading(r)) for r in relations]
        sends = tuple((merge, relevant & group)
                      for merge, group in sorted(self.merge_groups.items())
                      if relevant & group or self.send_empty_rels)
        picks = []
        for view in sorted(relevant):
            positions = tuple(i for i, views in enumerate(reading) if view in views)
            picks.append((self.view_manager_names[view], view,
                          None if len(positions) == len(relations) else positions))
        filtered = len(frozenset().union(*reading) - relevant)
        return tuple(sorted(relevant)), sends, tuple(picks), filtered

    def handle(self, message: object, sender: Process) -> None:
        if not isinstance(message, UpdateNotification):
            raise IntegratorError(
                f"integrator cannot handle {type(message).__name__}"
            )
        transaction = message.transaction
        updates = transaction.updates
        key = tuple([update.relation for update in updates])
        selecting = self.filter.use_selections
        if selecting:  # the row test, on top of the same table
            key = (key, self.filter.relevant_views(updates))
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = self._route(key, updates)
        rel, sends, picks, filtered = route
        self.updates_numbered += 1
        update_id = self.updates_numbered
        self.numbered.append((update_id, transaction, message.commit_time))

        # Keep the base-data service's versions aligned with our numbering.
        if self.service_name is not None:
            self.send(self.service_name, NumberedUpdate(update_id, updates))

        self.filtered_out += filtered
        # ``lineage`` links our numbering back to the source world's commit
        # sequence, completing the source->warehouse causal chain
        # (see repro.obs.lineage).
        self.sim.trace.record_fields(
            self.sim.now, "int_number", self.name, _NUMBER_KEYS,
            update_id, rel, message.lineage_id, message.commit_time,
        )

        # Step 3: REL_i to each merge owning some relevant view.
        for merge, subset in sends:
            self.send(merge, RelMessage(update_id, subset))
            self.rel_messages_sent += 1

        # Step 4: a copy of U_i to each relevant view manager, restricted
        # to the updates that view actually reads (matters for §6.2
        # multi-update transactions).
        for manager, view, positions in picks:
            picked = (tuple(updates) if positions is None
                      else tuple([updates[i] for i in positions]))
            if selecting and len(picked) > 1:  # one: REL's row test passed it
                picked = self.filter.relevant_updates_for_view(view, picked)
            self.send(manager, UpdateForView(update_id, view, picked))
            self.update_copies_sent += 1

        # Complete-N support: close blocks as numbering crosses boundaries.
        if self.block_size and update_id % self.block_size == 0:
            marker = EndOfBlock(update_id // self.block_size, update_id)
            for vm_name in sorted(set(self.view_manager_names.values())):
                self.send(vm_name, marker)
