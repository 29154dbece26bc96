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
from dataclasses import dataclass

from repro.errors import ViewManagerError
from repro.relational.delta import Delta
from repro.relational.relation import Relation


class ActionKind(enum.Enum):
    APPLY_DELTA = "apply_delta"
    REPLACE = "replace"


@dataclass(frozen=True, slots=True)
class Action:
    """A single operation against one warehouse view."""

    view: str
    kind: ActionKind
    delta: Delta = Delta()
    #: the new contents of a REPLACE; read-only, being shared with every
    #: copy of the action
    replacement: Relation = Relation()

    def apply_to(self, relation: Relation) -> None:
        if self.kind is ActionKind.APPLY_DELTA:
            self.delta.apply_to(relation)
        else:
            relation.replace_all(self.replacement)


@dataclass(frozen=True, slots=True)
class ActionList:
    """``AL^x_j``: everything view ``view`` needs for updates ``covered``."""

    view: str
    manager: str
    last_update: int
    covered: tuple[int, ...]
    actions: tuple[Action, ...]

    def __post_init__(self) -> None:
        if not self.covered:
            raise ViewManagerError("an action list must cover at least one update")
        if list(self.covered) != sorted(set(self.covered)):
            raise ViewManagerError(
                f"covered update ids must be strictly increasing: {self.covered}"
            )
        if self.covered[-1] != self.last_update:
            raise ViewManagerError(
                f"last_update {self.last_update} must be the largest covered id "
                f"{self.covered}"
            )
        for action in self.actions:
            if action.view != self.view:
                raise ViewManagerError(
                    f"action for view {action.view!r} inside list for {self.view!r}"
                )

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
