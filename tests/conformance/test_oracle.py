"""The oracle over one replay: same verdicts as the per-scope oracle it
replaced, an answer where that one raised, and a bounded cost.

``tests/consistency/reference.py`` keeps the replaced ``check_run``
(every view evaluated at every source state, one schedule replay per
scope) verbatim; the guarantee matrix is the population both are run on.
"""

from __future__ import annotations

import pytest

from repro.conformance.matrix import GUARANTEE_MATRIX
from repro.conformance.oracle import check_run
from repro.errors import ReproError, WarehouseError
from repro.relational import algebra
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import (
    clustered_views,
    clustered_world,
    paper_views_example2,
    paper_world,
)

from tests.consistency import reference

ROWS = {row.name: row for row in GUARANTEE_MATRIX}


def drained(row: str, seed: int) -> WarehouseSystem | None:
    """One explored run of a matrix row; None when the run itself dies
    (the explorer's ``execution`` finding).  A naive fleet's refused
    warehouse transaction ends its run instead: ``warehouse.refused``."""
    system = ROWS[row].spec.build(run_seed=seed)
    try:
        system.run()
    except ReproError:
        system.close()
        return None
    return system


def signature(violations) -> set[tuple[str, str]]:
    return {(v.scope, v.level) for v in violations}


@pytest.mark.parametrize("row", ROWS)
def test_check_run_matches_the_per_scope_oracle(row):
    """14 rows x 20 seeds: the (scope, level) set of every run."""
    violating = 0
    for seed in range(20):
        system = drained(row, seed)
        if system is None:
            continue
        try:
            found = signature(check_run(system))
            assert found == signature(reference.check_run(system)), (row, seed)
            violating += bool(found)
        finally:
            system.close()
    if ROWS[row].expect == "holds":
        assert violating == 0


@pytest.mark.parametrize("seed", [13, 22])
def test_unreplayable_update_is_an_answer_not_a_crash(seed):
    """The pass-through merge never covers an update whose view deltas are
    all empty; a later covered update that modifies the row it inserted
    cannot be applied to the replayed state.  The per-scope checker died
    there with a RelationError."""
    system = drained("mixed-weakest-convergent", seed)
    try:
        assert system.classify() == "convergent"
        report = system.check_mvc("strong")
        assert not report.ok
        assert "cannot be applied" in report.reason
        assert any(
            f"update U{update_id} " in report.reason
            for update_id, _txn, _time in system.integrator.numbered
        )
        assert not system.check_mvc("complete").ok
        assert system.check_mvc("auto").ok  # the row promises convergence
        assert check_run(system) == []
    finally:
        system.close()


def ex2_run(**config) -> WarehouseSystem:
    world = paper_world()
    spec = WorkloadSpec(updates=50, rate=0.2, arrivals="poisson",
                        mix=(0.3, 0.5, 0.2), value_range=40, seed=3)
    system = WarehouseSystem(
        world, paper_views_example2(), SystemConfig(seed=3, **config)
    )
    post_stream(system, UpdateStreamGenerator(world, spec).transactions())
    system.run()
    return system


def test_run_without_history_is_refused_not_misjudged():
    """ws_0 and the latest state cannot show strong or complete either
    way; a correct run used to be reported as violating."""
    system = ex2_run(record_history=False)
    assert len(system.history) == 2 and system.expected_level() == "complete"
    for ask in (
        lambda: system.check_mvc("auto"),
        lambda: system.check_mvc("strong"),
        system.classify,
        lambda: check_run(system),
    ):
        with pytest.raises(WarehouseError, match="record_history=True"):
            ask()
    assert system.check_mvc("convergent").ok


def test_run_without_history_still_answers_what_it_promises():
    system = ex2_run(record_history=False, manager_kind="convergent")
    assert system.expected_level() == "convergent"
    assert system.check_mvc("auto").ok
    assert check_run(system) == []


def test_one_replay_evaluates_touched_views_only(monkeypatch):
    """A count guard, not a wall-clock one.  B0's ``clustered-36``: each
    update touches the 2 of 36 views over its relation, and the whole
    stack (36 views, 630 pairs, the fleet) costs two evaluations per
    touch, one on the schedule and one on the numbering, plus ``ss_0``.
    The per-scope oracle made 935 028 calls here."""
    import repro.consistency.ordered as ordered

    world = clustered_world(12)
    views = clustered_views(12, 3)
    spec = WorkloadSpec(updates=700, rate=40.0, arrivals="poisson", seed=3)
    system = WarehouseSystem(world, views, SystemConfig(seed=3))
    post_stream(system, UpdateStreamGenerator(world, spec).transactions())
    system.run()

    calls = []
    evaluate = algebra.evaluate

    def counted(expression, database):
        calls.append(expression)
        return evaluate(expression, database)

    monkeypatch.setattr(algebra, "evaluate", counted)
    monkeypatch.setattr(ordered, "evaluate", counted)
    assert check_run(system) == []
    touches = sum(
        not txn.relations.isdisjoint(view.base_relations())
        for _id, txn, _time in system.integrator.numbered
        for view in views
    )
    assert len(system.integrator.numbered) == 700
    assert 0 < len(calls) <= 2 * (touches + len(views))
