"""Set-up: ws_0 = V(ss_0) for every view, from one columnar evaluation.

Before the first update flows each view manager evaluates its definition
over the initial source state (paper, Section 2.2).  That evaluation runs
on the columnar engine and loads its result in bulk, so the row-dict
recompute oracle (``algebra.evaluate``) is not part of a build and no
per-row work is left in it: the counted calls below do not depend on how
many rows are preloaded.
"""

import sys

import pytest

from repro.relational import algebra, columnar
from repro.relational.algebra import evaluate
from repro.relational.rows import Row
from repro.relational.schema import Schema
from repro.sources.transactions import SourceTransaction
from repro.sources.update import Update
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.schemas import (
    bank_views,
    bank_world,
    clustered_views,
    clustered_world,
    paper_views_example1,
    paper_views_example2,
    paper_world,
    star_views,
)
from tests.conftest import preloaded_star_world


def replace_everywhere(monkeypatch, owner, name, replacement):
    """Set ``owner.name``, in every ``repro`` module that imported the
    function by name as well."""
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, replacement)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro."):
            for alias, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, alias, replacement)


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a counting wrapper; returns the tally."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    replace_everywhere(monkeypatch, owner, name, counted)
    return calls


def build_counts(monkeypatch, fact_rows: int) -> dict[str, int]:
    world = preloaded_star_world(fact_rows)
    with monkeypatch.context() as patch:
        tallies = {
            "evaluate": count_calls(patch, algebra, "evaluate"),
            "join_counts": count_calls(patch, algebra, "join_counts"),
            "validate": count_calls(patch, Schema, "validate"),
            "Row.__init__": count_calls(patch, Row, "__init__"),
        }
        system = WarehouseSystem(
            world, star_views(selective=True, aggregates=True),
            SystemConfig(record_history=False),
        )
    assert len(system.store.view("SaleDetail")) == fact_rows
    return {name: len(calls) for name, calls in tallies.items()}


def test_build_cost_does_not_grow_with_the_preloaded_rows(monkeypatch):
    small = build_counts(monkeypatch, 500)
    large = build_counts(monkeypatch, 2000)
    assert small["evaluate"] == large["evaluate"] == 0
    assert small["join_counts"] == large["join_counts"] == 0
    # Row by row these grew by 2.5 validations and 5 rows per fact row.
    assert small["validate"] == large["validate"]
    assert small["Row.__init__"] == large["Row.__init__"]


def rows_built(monkeypatch, fact_rows: int) -> tuple[int, int]:
    """Rows built from value tuples by the set-up, and by a cached-mode
    drain of updates that read and write the fact table."""
    world = preloaded_star_world(fact_rows)
    original = columnar.compile_row_builder
    built = []

    def counting_builder(layout):
        build = original(layout)
        return lambda values: built.append(layout) or build(values)

    def sale(number, **values):
        return {"sale": number, "prod": 3, "store": 1, "qty": 9, **values}

    updates = [Update.insert("Sales", sale(10**6 + n)) for n in range(8)]
    updates += [
        Update.modify("Sales", sale(10**6 + n), sale(10**6 + n, qty=2, prod=5))
        for n in range(4)
    ]
    updates += [Update.delete("Sales", sale(10**6 + n)) for n in range(4, 8)]
    with monkeypatch.context() as patch:
        replace_everywhere(patch, columnar, "compile_row_builder", counting_builder)
        system = WarehouseSystem(
            world, star_views(selective=True, aggregates=True),
            SystemConfig(record_history=False),
        )
        by_setup = len(built)
        owner = world.owner_of("Sales")
        for time, update in enumerate(updates, start=1):
            system.post(SourceTransaction.single(owner, update), float(time))
        system.run()
        by_drain = len(built) - by_setup
    assert len(system.store.view("SaleDetail")) == fact_rows + 4
    for definition in system.definitions:  # builds rows: after the count
        assert system.store.view(definition.name) == evaluate(
            definition.expression, world.current
        )
    return by_setup, by_drain


def test_stored_tuples_are_not_turned_into_rows(monkeypatch):
    """Neither the set-up nor a cached-mode drain builds a ``Row`` from a
    stored or propagated tuple, over 500 stored fact rows or over 2 000."""
    assert rows_built(monkeypatch, 500) == rows_built(monkeypatch, 2000) == (0, 0)


def _bank():
    return bank_world(customers=12), bank_views()


def _star():
    return preloaded_star_world(60), star_views(selective=True, aggregates=True)


SUITES = {
    "paper-1": lambda: (paper_world(), paper_views_example1()),
    "paper-2": lambda: (paper_world(), paper_views_example2()),
    "bank": _bank,
    "star": _star,
    "clustered": lambda: (clustered_world(3), clustered_views(3, 3)),
}
#: cached, and the three ways a manager can query back for its pre-state
MODES = {
    "cached": dict(manager_mode="cached"),
    "snapshot": dict(manager_kind="strong", manager_mode="snapshot"),
    "compensate": dict(manager_kind="strong", manager_mode="compensate"),
    "naive": dict(manager_kind="naive"),
}


@pytest.mark.parametrize("filtering", [False, True])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("suite", SUITES)
def test_initial_stores_equal_the_oracle(suite, mode, filtering):
    world, views = SUITES[suite]()
    system = WarehouseSystem(
        world, views,
        SystemConfig(use_selection_filtering=filtering, **MODES[mode]),
    )
    for definition in views:
        expected = evaluate(definition.expression, system.initial_state)
        stored = system.store.view(definition.name)
        assert stored == expected and len(stored) == len(expected)
        assert stored.schema == expected.schema
        assert system.history[0].view(definition.name) == expected
