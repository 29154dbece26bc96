"""The materialized view store and the warehouse state sequence.

:class:`ViewStore` holds the current contents of every warehouse view and
records one :class:`WarehouseState` per committed transaction — the
``ws_0, ws_1, ..., ws_q`` sequence of §2.3, where each state is "a vector
with one element for the state of each view".  The consistency checkers
consume this history directly.

A commit costs O(|delta|): it applies the transaction's action lists to
the live views and logs them; nothing is copied.  The ``views`` of a
state are built the first time they are read, from the nearest earlier
state already built plus the logged action lists in between, and are
structurally shared: a state re-copies only the views touched since that
earlier state and points at its relations for the rest.  The relations
inside a :class:`WarehouseState` are therefore **read-only** — mutating
one would rewrite every state that shares it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from repro.errors import WarehouseError
from repro.relational.expressions import ViewDefinition
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.viewmgr.actions import Action, ActionKind, ActionList
from repro.warehouse.txn import WarehouseTransaction


class WarehouseState:
    """One element of the warehouse state sequence.

    ``index`` is the commit ordinal (0 = the initial state).  A state made
    by a :class:`ViewStore` builds its ``views`` on first read, on the
    reader's thread.
    """

    __slots__ = (
        "index", "txn_id", "time", "covered_rows", "detail", "_views", "_store"
    )

    def __init__(
        self,
        index: int,
        txn_id: int,
        time: float,
        covered_rows: tuple[int, ...],
        views: Mapping[str, Relation] | None = None,
        detail: dict | None = None,
        *,
        store: "ViewStore | None" = None,
    ) -> None:
        if views is None and store is None:
            raise WarehouseError("a warehouse state needs its views")
        self.index = index
        self.txn_id = txn_id
        self.time = time
        self.covered_rows = covered_rows
        self.detail = detail if detail is not None else {}
        self._views = views
        self._store = store

    @property
    def views(self) -> Mapping[str, Relation]:
        if self._views is None:
            self._views = self._store._build_views(self)
        return self._views

    def view(self, name: str) -> Relation:
        try:
            return self.views[name]
        except KeyError:
            raise WarehouseError(f"state has no view {name!r}") from None

    def __repr__(self) -> str:
        return (
            f"WarehouseState(index={self.index}, txn_id={self.txn_id}, "
            f"time={self.time}, covered_rows={self.covered_rows})"
        )


class CommitRecord(NamedTuple):
    """One line of the snapshot-free commit log."""

    txn_id: int
    time: float
    covered_rows: tuple[int, ...]


class ViewStore:
    """Current view contents plus the committed-state history.

    With ``record_history`` every commit's action lists are logged and any
    state of the sequence can be read at any time.  Without it nothing is
    logged but the :class:`CommitRecord` lines; only the initial and the
    latest state are kept, and the latest can only be read (as a copy of
    the live views) until the next commit supersedes it.
    """

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
        # With history on, entry i holds the action lists that led from
        # state i to state i + 1.
        self._action_log: list[tuple[ActionList, ...]] = []
        self.record_history = record_history
        for definition in definitions:
            if definition.name in self._definitions:
                raise WarehouseError(f"duplicate view {definition.name!r}")
            schema = definition.expression.infer_schema(base_schemas)
            self._definitions[definition.name] = definition
            self._views[definition.name] = Relation(schema)
        # ws_0, the one state copied eagerly: every later one is built from
        # an earlier one, so the sequence needs a first.
        views = {name: rel.copy() for name, rel in self._views.items()}
        self._history = [WarehouseState(0, -1, 0.0, (), views)]

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
        if self._commit_log:
            raise WarehouseError("views must be initialized before any commit")
        self.view(name).replace_all(contents)
        views = dict(self._history[0].views)  # ws_0: only this view changed
        views[name] = self.view(name).copy()
        self._history = [WarehouseState(0, -1, 0.0, (), views)]

    # -- commits -----------------------------------------------------------------
    def apply(self, txn: WarehouseTransaction, time: float) -> WarehouseState:
        """Apply every action list of ``txn`` atomically; record the state.

        A failing action undoes the ones before it, last first, on the
        live relations themselves (which keep their identity and their
        stores' indexes), and nothing is recorded.
        """
        targets = [
            self.view(al.view) for al in txn.action_lists
        ]  # resolve views first so an unknown view aborts before any change
        undo: list[tuple[Relation, Action]] = []
        try:
            for action_list, target in zip(txn.action_lists, targets):
                for action in action_list.actions:
                    if action.kind is ActionKind.REPLACE:
                        # Saved before the change: putting the old rows
                        # back is right however far a failing replace got.
                        saved = Action(
                            action.view, ActionKind.REPLACE, replacement=target.copy()
                        )
                        undo.append((target, saved))
                        action.apply_to(target)
                    else:
                        action.apply_to(target)  # all or nothing
                        undo.append((target, action))
        except Exception:
            for target, action in reversed(undo):
                if action.kind is ActionKind.REPLACE:
                    action.apply_to(target)
                else:
                    action.delta.negated().apply_to(target)
            raise
        self._commit_log.append(CommitRecord(txn.txn_id, time, txn.covered_rows))
        state = WarehouseState(
            len(self._commit_log), txn.txn_id, time, txn.covered_rows, store=self
        )
        if self.record_history:
            self._action_log.append(txn.action_lists)
            self._history.append(state)
        else:
            # Keep only the initial and the latest state when history is off.
            self._history[1:] = [state]
        return state

    def _build_views(self, state: WarehouseState) -> dict[str, Relation]:
        """The ``views`` of ``state``, on their first read."""
        current = state.index == len(self._commit_log)
        if not self.record_history:
            if not current:
                raise WarehouseError(
                    f"warehouse state #{state.index} was not read before a "
                    f"later commit and record_history is off: it is gone"
                )
            return {name: rel.copy() for name, rel in self._views.items()}
        base = state.index - 1
        while self._history[base]._views is None:
            base -= 1
        views = dict(self._history[base]._views)
        # A view touched since the base state is copied once — from the
        # live store when the state is the current one, else from the base
        # and rolled forward — and every other view is shared.
        source = self._views if current else views
        fresh: dict[str, Relation] = {}
        for action_lists in self._action_log[base:state.index]:
            for action_list in action_lists:
                name = action_list.view
                if name not in fresh:
                    fresh[name] = source[name].copy()
                if not current:
                    for action in action_list.actions:
                        action.apply_to(fresh[name])
        views.update(fresh)
        return views

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
