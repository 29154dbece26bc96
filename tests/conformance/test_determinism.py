"""Determinism regression: the default schedule is frozen.

The golden digests below were captured from the pristine tree *before*
the scheduler hook landed in the kernel.  The default configuration
(``scheduler=None``) must reproduce them bit-for-bit forever: any change
to event ordering, tie-breaking, or trace content shows up here first.
If a digest moves, that is a determinism regression (or a deliberate
trace-format change — recapture only with justification in the commit).
They were last recaptured when a message hop became one trace record:
each is the earlier trace with its ``msg_send``, ``msg_recv`` and
``vut_size`` records removed (``proc_msg`` records the hop, and the
``merge_vut_size`` timeline gauge keeps the VUT series).  The runs ask
for every trace kind (``trace_kinds=None``); a default run records only
the freshness endpoints.
"""

import pytest

from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import paper_views_example2, paper_world

GOLDEN = {
    ("complete", "dependency-sequenced", 13):
        "b02d5c51120d20c1c229481c552782e7c8330f3dc1831ec8a73607fe3fa1e212",
    ("strong", "batching", 7):
        "1030f50c60ce45d6269cb01a99c7fdf00c8b22fe764f390edd39af73fcbdbffc",
    ("convergent", "sequential", 3):
        "f5bd19caaffea1960627467f08ca48724b207fdb9e09b62be458e6cd33d13d04",
}


def run_digest(manager, policy, seed):
    world = paper_world()
    config = SystemConfig(
        manager_kind=manager, submission_policy=policy, seed=seed,
        trace_kinds=None,
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
