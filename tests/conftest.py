"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.relational.database import Database
from repro.relational.delta import Delta
from repro.relational.rows import Row
from repro.relational.schema import Schema
from repro.sources.world import SourceWorld
from repro.viewmgr.actions import ActionList
from repro.workloads.schemas import star_world


@pytest.fixture
def paper_db() -> Database:
    """The Table-1 initial base state: R={[1,2]}, S={}, T={[3,4]}, Q={}."""
    db = Database()
    db.create_relation("R", Schema(["A", "B"]), [Row(A=1, B=2)])
    db.create_relation("S", Schema(["B", "C"]))
    db.create_relation("T", Schema(["C", "D"]), [Row(C=3, D=4)])
    db.create_relation("Q", Schema(["D", "E"]))
    return db


def make_al(view: str, covered, tag: int = 0, manager: str | None = None) -> ActionList:
    """A non-empty action list for merge-algorithm tests."""
    return ActionList.from_delta(
        view,
        manager or view,
        tuple(covered),
        Delta.insert(Row(x=tag)),
    )


def empty_al(view: str, covered, manager: str | None = None) -> ActionList:
    """A content-empty action list (still a protocol message)."""
    return ActionList.from_delta(view, manager or view, tuple(covered), Delta())


def unit_summary(units):
    """Compact (rows, views) rendering of emitted ready units."""
    return [(u.rows, tuple(al.view for al in u.action_lists)) for u in units]


def preloaded_star_world(fact_rows: int) -> SourceWorld:
    """``star_world`` with ``fact_rows`` sales in place before any commit."""
    template = star_world(products=16, stores=4)
    rng = random.Random(fact_rows)
    world = SourceWorld()
    for name, schema in template.schemas.items():
        rows = list(template.current.relation(name))
        if name == "Sales":
            rows = [
                {"sale": sale, "prod": rng.randrange(16),
                 "store": rng.randrange(4), "qty": rng.randrange(16)}
                for sale in range(fact_rows)
            ]
        world.create_relation(name, schema, template.owner_of(name), rows)
    return world
