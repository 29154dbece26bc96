"""One configuration and seed, one run: the DES kernel is bit-for-bit
repeatable.

The golden digests in ``tests/conformance/test_determinism.py`` pin the
absolute values; this pins that two builds of the same configuration
agree with each other on the trace digest, the final stores and the
oracle's verdict.
"""

from __future__ import annotations

from repro.conformance.oracle import check_run
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import paper_views_example2, paper_world


def run_once(updates: int, seed: int):
    world = paper_world()
    system = WarehouseSystem(
        world, paper_views_example2(),
        SystemConfig(seed=seed, trace_kinds=None),  # the digest covers every kind
    )
    spec = WorkloadSpec(
        updates=updates, rate=2.0, seed=seed, mix=(0.6, 0.2, 0.2),
        arrivals="poisson",
    )
    post_stream(system, UpdateStreamGenerator(world, spec).transactions())
    system.run()
    state = system.store.history[-1]
    stores = {
        d.name: sorted(tuple(r.values()) for r in state.view(d.name))
        for d in system.definitions
    }
    result = (system.sim.trace.digest(), system.sim.events_executed,
              stores, check_run(system))
    system.close()
    return result


class TestDesDefaultUnchanged:
    def test_des_remains_bit_for_bit(self):
        a = run_once(25, 42)
        b = run_once(25, 42)
        assert a == b
        assert a[3] == []  # and the oracle accepts the history
