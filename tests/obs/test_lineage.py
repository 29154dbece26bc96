"""Causal lineage reconstruction: completeness, faults, monotonicity.

The acceptance bar for the observability layer: ``Lineage.for_update``
must return the complete source→warehouse hop chain for **every**
reflected update of a b1-style workload — including under an actively
hostile network (drops + duplicates recovered by reliable channels),
where retransmitted frames must not duplicate or lose hops.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan
from repro.obs import Lineage, LineageError
from repro.system.config import SystemConfig

from tests.obs.conftest import run_paper_system

#: the stages every reflected update must pass through, in causal order
EXPECTED_STAGES = (
    "src_commit",
    "int_number",
    "vm_compute",
    "merge_ready",
    "merge_submit",
    "wh_start",
    "wh_commit",
)


def assert_complete_chain(chain) -> None:
    """One reflected update's chain covers every Figure-1 stage, in order."""
    kinds = [hop.kind for hop in chain.hops]
    positions = []
    for stage in EXPECTED_STAGES:
        assert stage in kinds, (
            f"U{chain.update_id} chain is missing {stage!r}: {kinds}"
        )
        positions.append(kinds.index(stage))
    assert positions == sorted(positions), (
        f"U{chain.update_id} stages out of causal order: {kinds}"
    )
    times = [hop.time for hop in chain.hops]
    assert times == sorted(times)


class TestCompleteness:
    def test_every_reflected_update_has_full_chain(self, finished_system):
        lineage = Lineage.from_system(finished_system)
        assert len(lineage) == 25
        assert lineage.unreflected() == ()
        for chain in lineage.all():
            assert_complete_chain(chain)

    def test_chain_endpoints_and_timing(self, finished_system):
        lineage = Lineage.from_system(finished_system)
        for chain in lineage.all():
            assert chain.source is not None
            assert chain.source.startswith(("src", "coordinator"))
            assert chain.hops[0].kind == "src_commit"
            assert chain.hops[-1].kind in ("wh_commit", "proc_msg")
            assert chain.latency is not None and chain.latency > 0
            assert chain.latency >= chain.total_queue_wait
            assert chain.warehouse_txns

    def test_latency_matches_metrics_staleness(self, finished_system):
        """Lineage and the run report measure the same quantity independently."""
        from repro.system.report import staleness_per_update

        staleness = staleness_per_update(finished_system)
        lineage = Lineage.from_system(finished_system)
        for update_id, lag in staleness.items():
            assert lineage.for_update(update_id).latency == pytest.approx(lag)

    def test_unknown_update_raises(self, finished_system):
        lineage = Lineage.from_system(finished_system)
        with pytest.raises(LineageError):
            lineage.for_update(10_000)

    def test_works_under_kind_filtering(self):
        """LINEAGE_KINDS is the documented minimal filter — prove it."""
        from repro.obs.lineage import LINEAGE_KINDS

        system = run_paper_system(
            SystemConfig(seed=21, trace_kinds=LINEAGE_KINDS)
        )
        recorded = {e.kind for e in system.sim.trace}
        assert recorded <= LINEAGE_KINDS
        lineage = Lineage.from_system(system)
        assert lineage.unreflected() == ()
        for chain in lineage.all():
            assert_complete_chain(chain)


class TestUnderFaults:
    """Retransmission must not corrupt causal chains (satellite d)."""

    PLAN = FaultPlan(
        seed=17,
        drop_rate=0.08,
        duplicate_rate=0.04,
        delay_spike_rate=0.02,
        delay_spike=6.0,
    )

    @pytest.fixture(scope="class")
    def faulted(self):
        system = run_paper_system(
            SystemConfig(seed=3, fault_plan=self.PLAN, trace_kinds=None),
            updates=20, seed=3
        )
        # the scenario is vacuous unless the network actually misbehaved
        assert system.sim.trace.of_kind("msg_retransmit")
        assert system.sim.trace.of_kind("msg_drop")
        return system

    def test_chains_complete_despite_retransmits(self, faulted):
        lineage = Lineage.from_system(faulted)
        assert len(lineage) == 20
        assert lineage.unreflected() == ()
        for chain in lineage.all():
            assert_complete_chain(chain)

    def test_no_duplicate_hops_from_duplicate_frames(self, faulted):
        """Exactly-once delivery ⇒ exactly one numbering + one reflection
        hop per update, no matter how many copies crossed the network."""
        lineage = Lineage.from_system(faulted)
        for chain in lineage.all():
            kinds = [hop.kind for hop in chain.hops]
            assert kinds.count("src_commit") == 1
            assert kinds.count("int_number") == 1
            notification_hops = [
                hop for hop in chain.hops
                if hop.kind == "proc_msg"
                and hop.detail.get("message") == "UpdateNotification"
            ]
            assert len(notification_hops) == 1


@given(seed=st.integers(min_value=0, max_value=10_000),
       rate=st.floats(min_value=0.5, max_value=20.0))
@settings(max_examples=20, deadline=None)
def test_hop_timestamps_monotone(seed, rate):
    """Property: for any workload, every chain's hop times are
    non-decreasing, start at the source commit, and end no earlier than
    the warehouse commit that reflects the update."""
    system = run_paper_system(SystemConfig(seed=seed, trace_kinds=None),
                              updates=12, rate=rate, seed=seed)
    lineage = Lineage.from_system(system)
    for chain in lineage.all():
        times = [hop.time for hop in chain.hops]
        assert all(a <= b for a, b in zip(times, times[1:]))
        if chain.reflected:
            assert times[0] == chain.source_commit_time
            assert times[-1] >= chain.reflected_at
