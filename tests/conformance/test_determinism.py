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

``QUERY_BACK`` pins the query-back modes (``snapshot`` / ``compensate`` /
``naive``) the same way, plus a digest of the final warehouse stores:
they were captured while every batch still fetched all of its view's base
relations, and hold now that it fetches only the old sides its delta
rules read.
"""

import hashlib

import pytest

from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import (
    paper_views_example2,
    paper_world,
    star_views,
    star_world,
)

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


#: config name -> (SystemConfig fields, trace digest, final-store digest)
QUERY_BACK = {
    "strong-compensate-pa": (
        dict(manager_kind="strong", manager_mode="compensate",
             merge_algorithm="pa"),
        "68fe0c366671773033620c36c9817638c4609b30c44550b7640ec28def26f0b7",
        "1131ac0cbead9d241c24062be59a96b3365f3dd7553e9f4abe0ffc08d10d5322",
    ),
    "complete-snapshot-spa": (
        dict(manager_kind="complete", manager_mode="snapshot",
             merge_algorithm="spa"),
        "f0de9036ac8b0a784c28b56ea9639dd9934587ae8e334e865071211ad53df93c",
        "1131ac0cbead9d241c24062be59a96b3365f3dd7553e9f4abe0ffc08d10d5322",
    ),
    # V2's naive manager diverges (the anomaly it exists to show): the
    # pin holds its wrong final store too.
    "complete-n-naive": (
        dict(manager_kind="complete-n", manager_mode="compensate",
             manager_kinds={"V2": "naive"}),
        "264f481d75b91524b3b1b1ac58d6c1c39fe9c484b5f9c52c8338e2a1dd7c3842",
        "f5eb43c33781a8be9fdf3d3ea4ed31c7be36c8bfb44eb5d491ded23289a45dc5",
    ),
    "star-compensate-filtering": (
        dict(manager_mode="compensate", use_selection_filtering=True),
        "c536fb67f818f562f53f32f7de562c6df74b38e995b8e9bc79220c26d2c0f304",
        "555a6fc7440f5aee55ce80a18623c060051bef07c68d98a03174d9e63dc829fa",
    ),
}


def run_query_back(name, seed=7):
    """(trace digest, final-store digest) of 40 updates under ``name``."""
    fields = QUERY_BACK[name][0]
    star = name.startswith("star")
    world = star_world() if star else paper_world()
    views = (
        star_views(selective=True, aggregates=True)
        if star else paper_views_example2()
    )
    config = SystemConfig(seed=seed, trace_kinds=None, **fields)
    system = WarehouseSystem(world, views, config)
    spec = WorkloadSpec(
        updates=40, rate=2.0, seed=seed, mix=(0.6, 0.2, 0.2),
        arrivals="poisson", multi_update_fraction=0.2,
    )
    post_stream(system, UpdateStreamGenerator(world, spec).transactions())
    system.run()
    stores = hashlib.sha256()
    for definition in system.definitions:
        store = system.store.view(definition.name).columnar()
        stores.update(repr((
            definition.name, store.layout, sorted(store.counts_view().items())
        )).encode())
    return system.sim.trace.digest(), stores.hexdigest()


class TestGoldenDigests:
    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_default_schedule_unchanged(self, key):
        manager, policy, seed = key
        assert run_digest(manager, policy, seed) == GOLDEN[key]

    def test_digest_is_stable_across_reruns(self):
        key = ("complete", "dependency-sequenced", 13)
        assert run_digest(*key) == run_digest(*key)

    @pytest.mark.parametrize("name", sorted(QUERY_BACK))
    def test_query_back_run_unchanged(self, name):
        assert run_query_back(name) == QUERY_BACK[name][1:]
