"""Property suite: random sane fleets never violate their advertised level.

Hypothesis draws a random :class:`ScenarioSpec` — fleet size 1–4 over the
wide paper schema, per-view manager kinds from the non-broken set, both
painting algorithms (via "auto" and explicit choices), faults on or off,
random or delay scheduling — runs it, and asks the oracle whether the
configuration kept its own promise.  Any counterexample Hypothesis finds
is a real conformance bug; the explorer's shrinker then applies on top
(see ``test_explorer.py`` for the ≤10-perturbation bound).
"""

from hypothesis import given, settings, strategies as st

from repro.conformance.explorer import Explorer
from repro.conformance.oracle import check_run
from repro.conformance.scenario import ScenarioSpec
from repro.faults.plan import FaultPlan
from repro.workloads.generator import WorkloadSpec

SAFE_KINDS = ("complete", "strong", "complete-n", "periodic", "convergent")
VIEW_NAMES = ("V1", "V2", "V3", "V4")


@st.composite
def scenario_specs(draw):
    fleet_size = draw(st.integers(min_value=1, max_value=4))
    kinds = {
        VIEW_NAMES[i]: draw(st.sampled_from(SAFE_KINDS))
        for i in range(fleet_size)
    }
    # Explicit algorithms must be compatible with the fleet: SPA accepts
    # only complete managers (one update per action list), PA accepts
    # anything that sends action lists (not convergent/naive refreshers).
    if all(k == "complete" for k in kinds.values()):
        algorithm = draw(st.sampled_from(("auto", "spa", "pa")))
    elif all(k != "convergent" for k in kinds.values()):
        algorithm = draw(st.sampled_from(("auto", "pa")))
    else:
        algorithm = "auto"
    faults = draw(
        st.sampled_from(
            (
                None,
                FaultPlan(seed=1, drop_rate=0.05, duplicate_rate=0.05,
                          reliable=True),
            )
        )
    )
    workload = WorkloadSpec(
        updates=draw(st.integers(min_value=6, max_value=10)),
        rate=draw(st.sampled_from((1.0, 2.0, 4.0))),
        multi_update_fraction=draw(st.sampled_from((0.0, 0.25))),
        arrivals="poisson",
    )
    config = dict(
        manager_kinds=kinds,
        merge_algorithm=algorithm,
        submission_policy=draw(
            st.sampled_from(("dependency-sequenced", "sequential", "batching"))
        ),
        refresh_period=15.0,
    )
    if faults is not None:
        config["fault_plan"] = faults
    return ScenarioSpec(
        schema="paper-wide",
        views=fleet_size,
        workload=workload,
        config=config,
        scheduler=draw(st.sampled_from(("random", "delay"))),
        delay_rate=0.3,
        reorder_rate=0.3,
    )


class TestAdvertisedGuarantees:
    @given(spec=scenario_specs(), run_seed=st.integers(min_value=0, max_value=9))
    @settings(max_examples=15, deadline=None)
    def test_never_violates_advertised_level(self, spec, run_seed):
        system = spec.build(run_seed=run_seed)
        system.run()
        assert system.expected_level() is not None  # sane fleets promise
        violations = check_run(system)
        assert violations == [], [str(v) for v in violations]

    @given(spec=scenario_specs())
    @settings(max_examples=5, deadline=None)
    def test_explorer_agrees_with_direct_checking(self, spec):
        explorer = Explorer(spec, seeds=2, stop_on_first=False)
        assert explorer.explore() == []
