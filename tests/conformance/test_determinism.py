"""Determinism regression: the default schedule is frozen.

The golden digests below were captured from the pristine tree *before*
the scheduler hook landed in the kernel.  The default configuration
(``scheduler=None``) must reproduce them bit-for-bit forever: any change
to event ordering, tie-breaking, or trace content shows up here first.
If a digest moves, that is a determinism regression (or a deliberate
trace-format change — recapture only with justification in the commit).
They were last recaptured when a fleet of cached managers stopped building
the base-data service: each is the earlier trace with that service's
records (``msg_send`` to it, its ``msg_recv`` and ``proc_msg``) removed.
"""

import pytest

from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import paper_views_example2, paper_world

GOLDEN = {
    ("complete", "dependency-sequenced", 13):
        "da2ef4b8916dddbc0eff5965a1a8c597bf1a81df9f5ad4996536d0b160c84edb",
    ("strong", "batching", 7):
        "13f209df5edb3f38e3101c83c1a1ced5f4c39261e726287e11685a0bf0002c94",
    ("convergent", "sequential", 3):
        "03e40b47df12e27a2ebe11c9ec8755757a39883a124fb76d4c906ea7a680c41b",
}


def run_digest(manager, policy, seed):
    world = paper_world()
    config = SystemConfig(
        manager_kind=manager, submission_policy=policy, seed=seed
    )
    system = WarehouseSystem(world, paper_views_example2(), config)
    spec = WorkloadSpec(
        updates=30,
        rate=2.0,
        seed=seed,
        mix=(0.6, 0.2, 0.2),
        arrivals="poisson",
        multi_update_fraction=0.2,
    )
    post_stream(system, UpdateStreamGenerator(world, spec).transactions())
    system.run()
    return system.sim.trace.digest()


class TestGoldenDigests:
    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_default_schedule_unchanged(self, key):
        manager, policy, seed = key
        assert run_digest(manager, policy, seed) == GOLDEN[key]

    def test_digest_is_stable_across_reruns(self):
        key = ("complete", "dependency-sequenced", 13)
        assert run_digest(*key) == run_digest(*key)
