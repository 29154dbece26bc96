"""Standalone incremental view maintenance.

:class:`MaterializedView` is the library-adopter-friendly wrapper around
the maintenance plan: keep a view's result materialized against a live
:class:`Database` and apply base-table deltas incrementally, with the
recomputation equivalence checkable at any time.  It is independent of the
simulation machinery — useful for embedding the maintenance engine in
other systems.

Maintenance runs through a compiled
:class:`~repro.relational.plan.MaintenancePlan` (indexed join probes,
self-maintained aggregates, columnar batch kernels — O(|delta|) per
update, see ``docs/engine.md``).  The initial contents and ``refresh``
come off a fresh plan (an aggregate root's group states), else from
:func:`~repro.relational.columnar.evaluate_columnar` through the compile's
memo; ``verify`` is the one caller of the row-dict oracle
:func:`~repro.relational.algebra.evaluate`, because it is the check
against it.  An expression built from a node class
the compiler does not know is rejected by the constructor with
:class:`~repro.relational.plan.PlanUnsupported`.

Usage::

    db = Database(); ...create relations...
    view = MaterializedView(parse_view("V = SELECT * FROM R JOIN S"), db)
    delta = {"R": Delta.insert(Row(A=1, B=2))}
    view.apply(delta)          # updates both the base data and the view
    view.contents              # always equals evaluate(expr, db)
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import ConsistencyViolation
from repro.relational.algebra import evaluate
from repro.relational.columnar import evaluate_columnar
from repro.relational.database import Database
from repro.relational.delta import Delta
from repro.relational.expressions import ViewDefinition
from repro.relational.plan import MaintenancePlan
from repro.relational.relation import Relation


class MaterializedView:
    """A view result kept current with its base data."""

    def __init__(self, definition: ViewDefinition, database: Database) -> None:
        self.definition = definition
        self.database = database
        self.refresh()
        self.deltas_applied = 0
        self.rows_changed = 0

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def contents(self) -> Relation:
        return self._contents

    def __len__(self) -> int:
        return len(self._contents)

    def apply(self, base_deltas: Mapping[str, Delta]) -> Delta:
        """Apply ``base_deltas`` to the database *and* the view.

        Returns the view delta that was applied.  The base data is only
        advanced after the view delta has been computed against the
        pre-state, so a failure leaves both untouched.
        """
        view_delta = self.plan.propagate(base_deltas)
        self.database.apply_deltas(base_deltas)
        self.plan.advance()
        view_delta.apply_to(self._contents)
        self.deltas_applied += 1
        self.rows_changed += len(view_delta)
        return view_delta

    def verify(self) -> None:
        """Raise unless the materialization matches recomputation."""
        fresh = evaluate(self.definition.expression, self.database)
        if fresh != self._contents:
            raise ConsistencyViolation(
                f"materialized view {self.name!r} drifted from its "
                f"definition: {len(self._contents)} rows materialized, "
                f"{len(fresh)} recomputed"
            )

    def refresh(self) -> None:
        """Recompute from scratch (periodic-refresh style).

        Compiles a fresh plan, so ``refresh`` is also the recovery handle
        after out-of-band database mutations.
        """
        expression, memo = self.definition.expression, {}
        self.plan = MaintenancePlan(expression, self.database, memo=memo)
        contents = self.plan.contents()
        if contents is None:
            contents = evaluate_columnar(expression, self.database, memo)
        self._contents = contents
