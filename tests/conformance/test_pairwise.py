"""The pairwise coverage table: every pair of configuration values.

One row per configuration, each a ``ScenarioSpec(config=...)`` mapping
over the paper-ex3 views (whose groups split across two merge processes
at ``merge_groups=2``).  Together the rows hold every pair of values of
the manager kind and mode, the merge algorithm, the submission policy,
one or three warehouse executors, one or two merge groups, and selection
filtering on or off; a pair only a refused configuration can hold (a
manager below what its algorithm requires) is held by a refused row.

Each row is explored under adversarial schedules: a configuration is
refused at build exactly when its managers' level is below the
algorithm's requirement, and one that builds never has its promise
refuted.  One that promises nothing (a naive fleet, eager submission on
several executors) must still finish every run: a warehouse transaction
the store cannot apply ends it with a verdict, not an exception.  Tier 1
explores 10 seeds a row; CI runs ``keeps_its_promise`` at 200.
"""

import itertools

import pytest

from repro.conformance.explorer import Explorer
from repro.conformance.scenario import SCENARIO_CONFIG, ScenarioSpec
from repro.errors import ReproError
from repro.merge.selection import ALGORITHMS, at_least
from repro.system.config import (
    MANAGER_KINDS,
    MANAGER_MODES,
    MERGE_ALGORITHMS,
    SUBMISSION_POLICIES,
)
from repro.viewmgr import MANAGERS
from repro.workloads.generator import WorkloadSpec

#: the values each field takes across the table
FACTORS = {
    "manager_kind": MANAGER_KINDS,
    "manager_mode": MANAGER_MODES,
    "merge_algorithm": MERGE_ALGORITHMS,
    "submission_policy": SUBMISSION_POLICIES,
    "warehouse_executors": (1, 3),
    "merge_groups": (1, 2),
    "use_selection_filtering": (False, True),
}

PAIRWISE = [
    dict(manager_kind="complete", manager_mode="cached",
         merge_algorithm="auto", submission_policy="eager",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="complete", manager_mode="snapshot",
         merge_algorithm="spa", submission_policy="sequential",
         warehouse_executors=3, merge_groups=2,
         use_selection_filtering=True),
    dict(manager_kind="strong", manager_mode="compensate",
         merge_algorithm="pa", submission_policy="dependency-sequenced",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=True),
    dict(manager_kind="complete-n", manager_mode="compensate",
         merge_algorithm="passthrough", submission_policy="dbms-dependency",
         warehouse_executors=3, merge_groups=2,
         use_selection_filtering=False),
    dict(manager_kind="naive", manager_mode="cached",
         merge_algorithm="complete-n", submission_policy="batching",
         warehouse_executors=1, merge_groups=2,
         use_selection_filtering=True),
    dict(manager_kind="periodic", manager_mode="snapshot",
         merge_algorithm="pa", submission_policy="batching",
         warehouse_executors=3, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="convergent", manager_mode="snapshot",
         merge_algorithm="passthrough", submission_policy="dbms-dependency",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=True),
    dict(manager_kind="convergent", manager_mode="cached",
         merge_algorithm="auto", submission_policy="dependency-sequenced",
         warehouse_executors=3, merge_groups=2,
         use_selection_filtering=False),
    dict(manager_kind="naive", manager_mode="compensate",
         merge_algorithm="spa", submission_policy="sequential",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="complete-n", manager_mode="snapshot",
         merge_algorithm="complete-n", submission_policy="eager",
         warehouse_executors=3, merge_groups=1,
         use_selection_filtering=True),
    dict(manager_kind="periodic", manager_mode="compensate",
         merge_algorithm="auto", submission_policy="eager",
         warehouse_executors=1, merge_groups=2,
         use_selection_filtering=True),
    dict(manager_kind="strong", manager_mode="cached",
         merge_algorithm="pa", submission_policy="sequential",
         warehouse_executors=3, merge_groups=2,
         use_selection_filtering=False),
    dict(manager_kind="complete", manager_mode="compensate",
         merge_algorithm="complete-n", submission_policy="dependency-sequenced",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="naive", manager_mode="snapshot",
         merge_algorithm="auto", submission_policy="dependency-sequenced",
         warehouse_executors=3, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="complete-n", manager_mode="cached",
         merge_algorithm="auto", submission_policy="sequential",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="periodic", manager_mode="cached",
         merge_algorithm="passthrough", submission_policy="sequential",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="complete", manager_mode="cached",
         merge_algorithm="spa", submission_policy="dbms-dependency",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="complete", manager_mode="compensate",
         merge_algorithm="passthrough", submission_policy="batching",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="strong", manager_mode="snapshot",
         merge_algorithm="auto", submission_policy="dbms-dependency",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="strong", manager_mode="cached",
         merge_algorithm="passthrough", submission_policy="eager",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="convergent", manager_mode="compensate",
         merge_algorithm="auto", submission_policy="batching",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="naive", manager_mode="cached",
         merge_algorithm="pa", submission_policy="eager",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="complete", manager_mode="cached",
         merge_algorithm="pa", submission_policy="dbms-dependency",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="complete-n", manager_mode="cached",
         merge_algorithm="pa", submission_policy="dependency-sequenced",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="periodic", manager_mode="cached",
         merge_algorithm="passthrough", submission_policy="dependency-sequenced",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="naive", manager_mode="cached",
         merge_algorithm="passthrough", submission_policy="dbms-dependency",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="complete", manager_mode="cached",
         merge_algorithm="spa", submission_policy="eager",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="complete", manager_mode="cached",
         merge_algorithm="spa", submission_policy="dependency-sequenced",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="complete", manager_mode="cached",
         merge_algorithm="spa", submission_policy="batching",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="complete", manager_mode="cached",
         merge_algorithm="complete-n", submission_policy="sequential",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="complete", manager_mode="cached",
         merge_algorithm="complete-n", submission_policy="dbms-dependency",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="strong", manager_mode="cached",
         merge_algorithm="auto", submission_policy="batching",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="complete-n", manager_mode="cached",
         merge_algorithm="auto", submission_policy="batching",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="periodic", manager_mode="cached",
         merge_algorithm="auto", submission_policy="dbms-dependency",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="convergent", manager_mode="cached",
         merge_algorithm="auto", submission_policy="eager",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="convergent", manager_mode="cached",
         merge_algorithm="auto", submission_policy="sequential",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="strong", manager_mode="cached",
         merge_algorithm="spa", submission_policy="eager",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="strong", manager_mode="cached",
         merge_algorithm="complete-n", submission_policy="eager",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="complete-n", manager_mode="cached",
         merge_algorithm="spa", submission_policy="eager",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="periodic", manager_mode="cached",
         merge_algorithm="spa", submission_policy="eager",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="periodic", manager_mode="cached",
         merge_algorithm="complete-n", submission_policy="eager",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="convergent", manager_mode="cached",
         merge_algorithm="spa", submission_policy="eager",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="convergent", manager_mode="cached",
         merge_algorithm="pa", submission_policy="eager",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
    dict(manager_kind="convergent", manager_mode="cached",
         merge_algorithm="complete-n", submission_policy="eager",
         warehouse_executors=1, merge_groups=1,
         use_selection_filtering=False),
]


def refused(config: dict) -> bool:
    """Whether building ``config`` must raise: a manager below what an
    explicit algorithm requires (naive managers are exempt)."""
    level = MANAGERS[config["manager_kind"]].level
    algorithm = ALGORITHMS[config["merge_algorithm"]]
    return (
        algorithm is not None
        and level != "broken"
        and not at_least(level, algorithm.requires_level)
    )


def keeps_its_promise(config: dict, seeds: int) -> None:
    """Explore ``config`` over ``seeds`` schedules; raise on a refuted promise."""
    spec = ScenarioSpec(
        schema="paper-ex3",
        workload=WorkloadSpec(updates=12, rate=2.0, mix=(0.7, 0.15, 0.15),
                              multi_update_fraction=0.2, arrivals="poisson"),
        config={**SCENARIO_CONFIG, "block_size": 3, **config},
    )
    try:
        system = spec.build()
    except ReproError:
        assert refused(config), f"{config} refused"
        return
    system.close()
    assert not refused(config), f"{config} accepted"
    if system.expected_level() is not None:
        findings = Explorer(spec, seeds=seeds).explore()
        assert findings == [], (config, findings[0].seed,
                                [str(v) for v in findings[0].violations])
        return
    for seed in range(seeds):
        with spec.build(seed) as system:
            system.run()
            assert system.expected_level() is None, (config, seed)


@pytest.mark.parametrize("config", PAIRWISE)
def test_never_refutes_the_promise(config):
    keeps_its_promise(config, seeds=10)


def test_every_pair_of_values_is_in_the_table():
    fields = list(FACTORS)
    wanted = {
        ((a, x), (b, y))
        for a, b in itertools.combinations(fields, 2)
        for x in FACTORS[a]
        for y in FACTORS[b]
    }
    held = {
        ((a, row[a]), (b, row[b]))
        for row in PAIRWISE
        for a, b in itertools.combinations(fields, 2)
        if not refused(row) or {a, b} == {"manager_kind", "merge_algorithm"}
    }
    assert wanted - held == set()
