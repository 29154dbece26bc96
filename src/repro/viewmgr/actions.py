"""Action lists: the unit of work flowing from view managers to the merge.

``AL^x_j`` (paper §3.3) carries "the operations necessary to make view
V_x consistent with the source state existing after U_j was performed".
Here the operations are a signed-count :class:`Delta` or a full
replacement of the view's contents (for periodic-refresh managers, §6.3).

``covered`` lists every update id the list accounts for: a complete
manager covers exactly ``(j,)``; a strongly consistent manager may cover
``(i_k, ..., i_{k+n})`` with ``last_update == i_{k+n}`` — the subscript of
the action list "identifies the last update that is included in the
batch".
"""

from __future__ import annotations

import enum
from itertools import pairwise

from repro.errors import ViewManagerError
from repro.record import Record
from repro.relational.delta import Delta
from repro.relational.relation import Relation


class ActionKind(enum.Enum):
    APPLY_DELTA = "apply_delta"
    REPLACE = "replace"


class Action(Record):
    """A single operation against one warehouse view; read-only once built.

    ``replacement`` is the new contents of a REPLACE; read-only, being
    shared with every copy of the action.
    """

    __slots__ = ("view", "kind", "delta", "replacement")

    def __init__(self, view: str, kind: ActionKind, delta: Delta = Delta(),
                 replacement: Relation = Relation()) -> None:
        self.view = view
        self.kind = kind
        self.delta = delta
        self.replacement = replacement

    def apply_to(self, relation: Relation) -> None:
        if self.kind is ActionKind.APPLY_DELTA:
            self.delta.apply_to(relation)
        else:
            relation.replace_all(self.replacement)


class ActionList(Record):
    """``AL^x_j``: everything view ``view`` needs for updates ``covered``;
    read-only once built."""

    __slots__ = ("view", "manager", "last_update", "covered", "actions")

    def __init__(self, view: str, manager: str, last_update: int,
                 covered: tuple[int, ...], actions: tuple[Action, ...]) -> None:
        if not covered:
            raise ViewManagerError("an action list must cover at least one update")
        if any(a >= b for a, b in pairwise(covered)):
            raise ViewManagerError(
                f"covered update ids must be strictly increasing: {covered}"
            )
        if covered[-1] != last_update:
            raise ViewManagerError(
                f"last_update {last_update} must be the largest covered id "
                f"{covered}"
            )
        for action in actions:
            if action.view != view:
                raise ViewManagerError(
                    f"action for view {action.view!r} inside list for {view!r}"
                )
        self.view = view
        self.manager = manager
        self.last_update = last_update
        self.covered = covered
        self.actions = actions

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_delta(
        cls,
        view: str,
        manager: str,
        covered: tuple[int, ...],
        delta: Delta,
    ) -> "ActionList":
        """The common case: one delta covering one or more updates.

        An empty delta still produces a (contentless) action list — the
        paper sends empty lists too, because the merge process counts on
        one list per (manager, relevant update) to fill its table.
        """
        actions = (
            (Action(view, ActionKind.APPLY_DELTA, delta),) if delta else ()
        )
        return cls(view, manager, covered[-1], covered, actions)

    @classmethod
    def replacement(
        cls,
        view: str,
        manager: str,
        covered: tuple[int, ...],
        rows: Relation,
    ) -> "ActionList":
        """A full-view replacement (periodic refresh, §6.3); ``rows`` is
        the caller's to give away."""
        action = Action(view, ActionKind.REPLACE, replacement=rows)
        return cls(view, manager, covered[-1], covered, (action,))

    @property
    def is_empty(self) -> bool:
        return not self.actions

    def net_delta(self) -> Delta:
        """The combined delta of all APPLY_DELTA actions (empty for REPLACE)."""
        combined = Delta()
        for action in self.actions:
            if action.kind is ActionKind.APPLY_DELTA:
                combined = combined.combined(action.delta)
        return combined

    def __str__(self) -> str:
        ids = ",".join(str(i) for i in self.covered)
        body = "empty" if self.is_empty else f"{len(self.actions)} action(s)"
        return f"AL[{self.view}/{self.manager} U{{{ids}}}: {body}]"
