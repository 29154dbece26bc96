"""The materialized view store and the warehouse state sequence.

:class:`ViewStore` holds the current contents of every warehouse view and
appends a :class:`WarehouseState` snapshot after each committed
transaction — the ``ws_0, ws_1, ..., ws_q`` sequence of §2.3, where each
state is "a vector with one element for the state of each view".
The consistency checkers consume this history directly.

Snapshots are structurally shared: a state re-copies only the views its
transaction updated and points at the previous state's relations for the
rest, so a commit costs O(|VS(WT)|) copies however many views the
warehouse holds.  The relations inside a :class:`WarehouseState` are
therefore **read-only** — mutating one would rewrite every state that
shares it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from repro.errors import WarehouseError
from repro.relational.expressions import ViewDefinition
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.warehouse.txn import WarehouseTransaction


@dataclass(frozen=True, slots=True)
class WarehouseState:
    """One element of the warehouse state sequence."""

    index: int
    txn_id: int
    time: float
    covered_rows: tuple[int, ...]
    views: Mapping[str, Relation]
    detail: dict = field(default_factory=dict, compare=False)

    def view(self, name: str) -> Relation:
        try:
            return self.views[name]
        except KeyError:
            raise WarehouseError(f"state has no view {name!r}") from None


class CommitRecord(NamedTuple):
    """One line of the snapshot-free commit log."""

    txn_id: int
    time: float
    covered_rows: tuple[int, ...]


class ViewStore:
    """Current view contents plus the committed-state history."""

    def __init__(
        self,
        definitions: Iterable[ViewDefinition],
        base_schemas: Mapping[str, Schema],
        record_history: bool = True,
    ) -> None:
        self._definitions: dict[str, ViewDefinition] = {}
        self._views: dict[str, Relation] = {}
        self._history: list[WarehouseState] = []
        self._commit_log: list[CommitRecord] = []
        self.record_history = record_history
        for definition in definitions:
            if definition.name in self._definitions:
                raise WarehouseError(f"duplicate view {definition.name!r}")
            schema = definition.expression.infer_schema(base_schemas)
            self._definitions[definition.name] = definition
            self._views[definition.name] = Relation(schema)
        self._record_state(txn_id=-1, time=0.0, covered=())

    # -- contents -----------------------------------------------------------
    @property
    def view_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._views))

    def definition(self, name: str) -> ViewDefinition:
        try:
            return self._definitions[name]
        except KeyError:
            raise WarehouseError(f"unknown view {name!r}") from None

    def view(self, name: str) -> Relation:
        try:
            return self._views[name]
        except KeyError:
            raise WarehouseError(f"unknown view {name!r}") from None

    def initialize_view(self, name: str, contents: Relation) -> None:
        """Set a view's initial materialization (before any transaction)."""
        if self._history and self._history[-1].txn_id != -1:
            raise WarehouseError("views must be initialized before any commit")
        self.view(name).replace_all(iter(contents))
        self._history.clear()
        self._record_state(txn_id=-1, time=0.0, covered=())

    # -- commits -----------------------------------------------------------------
    def apply(self, txn: WarehouseTransaction, time: float) -> WarehouseState:
        """Apply every action list of ``txn`` atomically; snapshot the state."""
        touched = [
            (al, self.view(al.view)) for al in txn.action_lists
        ]  # resolve views first so an unknown view aborts before any change
        undo = {al.view: view.copy() for al, view in touched}
        try:
            for action_list in txn.action_lists:
                target = self._views[action_list.view]
                for action in action_list.actions:
                    action.apply_to(target)
        except Exception:
            for name, saved in undo.items():
                self._views[name] = saved
            raise
        self._commit_log.append(CommitRecord(txn.txn_id, time, txn.covered_rows))
        return self._record_state(txn.txn_id, time, txn.covered_rows, undo.keys())

    def _record_state(
        self,
        txn_id: int,
        time: float,
        covered: tuple[int, ...],
        touched: Iterable[str] | None = None,
    ) -> WarehouseState:
        """Snapshot the store; only ``touched`` views can differ from the
        previous state (``None``: there is none yet, copy every view)."""
        if touched is None:
            views = {name: rel.copy() for name, rel in self._views.items()}
        else:
            views = dict(self._history[-1].views)
            for name in touched:
                views[name] = self._views[name].copy()
        state = WarehouseState(
            index=len(self._history),
            txn_id=txn_id,
            time=time,
            covered_rows=covered,
            views=views,
        )
        if self.record_history or not self._history:
            self._history.append(state)
        else:
            # Keep only the initial and the latest state when history is off.
            if len(self._history) > 1:
                self._history[-1] = state
            else:
                self._history.append(state)
        return state

    # -- history --------------------------------------------------------------
    @property
    def commit_log(self) -> tuple[CommitRecord, ...]:
        """Every commit in order, kept whatever ``record_history`` says."""
        return tuple(self._commit_log)

    @property
    def history(self) -> tuple[WarehouseState, ...]:
        return tuple(self._history)

    @property
    def current_state(self) -> WarehouseState:
        return self._history[-1]

    def states_of_view(self, name: str) -> list[Relation]:
        """The (single-view) warehouse state sequence for one view."""
        return [state.view(name) for state in self._history]
