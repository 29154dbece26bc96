"""A warehouse transaction the store cannot apply ends the run with a verdict.

The store rolls the transaction back, the warehouse names it in a
``WarehouseError`` (``warehouse.refused``) and ``run()`` returns there:
every MVC check fails with that reason, the run classifies as
inconsistent, the oracle reports it when the fleet promised something, and
the system takes no more work.
"""

import pytest

from repro.conformance.oracle import check_run, check_run_at
from repro.conformance.scenario import ScenarioSpec
from repro.errors import ReproError, SimulationError
from repro.sources.update import Update
from repro.system.builder import WarehouseSystem
from repro.workloads.generator import WorkloadSpec
from repro.workloads.schemas import paper_views_example1, paper_world


def naive_run():
    """A naive fleet whose double-applied delta the store refuses (the
    stream of ``repro run --manager naive --updates 60 --seed 1``)."""
    spec = ScenarioSpec(
        workload=WorkloadSpec(updates=60, rate=2.0, seed=1, arrivals="poisson"),
        vary_workload=False,
        config={"manager_kind": "naive"},
        scheduler="fifo",
    )
    return spec.build(1)


def test_refused_transaction_leaves_the_store_at_its_last_commit():
    system = naive_run()
    names = [d.name for d in system.definitions]
    before_each_apply = []
    apply = system.store.apply

    def snapshot_then_apply(txn, time):
        before_each_apply.append({v: system.store.view(v).copy() for v in names})
        return apply(txn, time)

    system.store.apply = snapshot_then_apply
    system.run()
    refused = system.warehouse.refused
    assert refused is not None
    assert str(refused).startswith("warehouse transaction ")
    assert "refused: batch deletes" in str(refused)
    # The refused apply was the last one tried; nothing of it stayed.
    commits = system.store.commit_log
    assert len(before_each_apply) == len(commits) + 1
    assert {v: system.store.view(v) for v in names} == before_each_apply[-1]
    assert system.history[-1].views == before_each_apply[-1]


def test_every_verdict_reads_the_refusal():
    system = naive_run()
    system.run()
    reason = str(system.warehouse.refused)
    for level in ("auto", "complete", "strong", "convergent"):
        report = system.check_mvc(level)
        assert not report and report.reason == reason
    assert system.classify() == "inconsistent"
    assert check_run(system) == []  # a naive fleet promised nothing
    [violation] = check_run_at(system, "convergent")
    assert (violation.scope, violation.level, violation.reason) == (
        "run", "execution", reason)


def test_a_refused_run_does_not_resume():
    system = naive_run()
    system.run()
    with pytest.raises(SimulationError, match="refused transaction"):
        system.run()
    with pytest.raises(SimulationError, match="refused transaction"):
        system.post_update(Update.insert("S", {"B": 2, "C": 3}), at=1000.0)
    system.close()


def test_a_promising_fleet_reports_the_refusal_as_a_run_violation():
    """A complete fleet over a store changed behind its back: the delete
    that follows finds nothing to delete."""
    system = WarehouseSystem(paper_world(), paper_views_example1())
    system.post_update(Update.insert("S", {"B": 2, "C": 3}), at=1.0)
    system.post_update(Update.delete("S", {"B": 2, "C": 3}), at=20.0)
    system.run(until=10.0)
    assert len(system.store.commit_log) == 1
    system.store.view("V1").clear()
    system.run()
    assert system.warehouse.refused is not None
    assert len(system.store.commit_log) == 1
    assert system.expected_level() == "complete"
    [violation] = check_run(system)
    assert (violation.scope, violation.level) == ("run", "execution")
    assert violation.reason == str(system.warehouse.refused)


def test_an_unknown_level_is_still_rejected():
    system = naive_run()
    system.run()
    with pytest.raises(ReproError, match="unknown MVC level"):
        system.check_mvc("eventual")
