"""Tests for workload generation."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.relational.schema import Attribute, AttrType, Schema
from repro.sources.update import UpdateKind
from repro.sources.world import SourceWorld
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec
from repro.workloads.schemas import clustered_world, paper_world, star_world
from tests.workloads.reference import RowMirrorGenerator


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"updates": -1},
            {"rate": 0},
            {"arrivals": "bursty"},
            {"mix": (0, 0, 0)},
            {"mix": (-1, 1, 1)},
            {"multi_update_fraction": 2.0},
            {"relation_weights": {"Q": -1}},
            {"relation_weights": {"R": 1, "Q": float("nan")}},
            {"relation_weights": {"R": float("inf")}},
        ],
    )
    def test_bad_specs(self, kwargs):
        with pytest.raises(ReproError):
            WorkloadSpec(**kwargs)

    @pytest.mark.parametrize(
        "weights",
        [{"Nope": 5}, {"R": 1, "Nope": 0}, {"R": 0, "S": 0, "T": 0, "Q": 0}],
    )
    def test_weights_must_name_the_worlds_relations_and_leave_one(self, weights):
        spec = WorkloadSpec(relation_weights=weights)
        with pytest.raises(ReproError, match="relation_weights"):
            UpdateStreamGenerator(paper_world(), spec)


class TestGeneration:
    def test_deterministic_for_seed(self):
        def gen():
            stream = UpdateStreamGenerator(
                paper_world(), WorkloadSpec(updates=30, seed=9)
            ).transactions()
            return [(t, str(txn)) for t, txn in stream]

        assert gen() == gen()

    def test_different_seeds_differ(self):
        a = UpdateStreamGenerator(
            paper_world(), WorkloadSpec(updates=30, seed=1)
        ).transactions()
        b = UpdateStreamGenerator(
            paper_world(), WorkloadSpec(updates=30, seed=2)
        ).transactions()
        assert [str(t) for _x, t in a] != [str(t) for _x, t in b]

    def test_times_strictly_increase(self):
        stream = UpdateStreamGenerator(
            paper_world(), WorkloadSpec(updates=50, seed=3, arrivals="poisson")
        ).transactions()
        times = [t for t, _txn in stream]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_uniform_rate_spacing(self):
        stream = UpdateStreamGenerator(
            paper_world(), WorkloadSpec(updates=10, rate=4.0)
        ).transactions()
        gaps = [
            stream[i + 1][0] - stream[i][0] for i in range(len(stream) - 1)
        ]
        assert all(gap == pytest.approx(0.25) for gap in gaps)

    def test_deletes_target_live_rows(self):
        """Replaying the stream against the world never underflows."""
        world = paper_world()
        spec = WorkloadSpec(updates=200, seed=13, mix=(0.4, 0.4, 0.2))
        stream = UpdateStreamGenerator(world, spec).transactions()
        for time, txn in stream:
            world.commit(txn, time)  # raises on any bad delete
        assert world.version == 200

    def test_origin_owns_relations(self):
        world = paper_world()
        stream = UpdateStreamGenerator(
            world, WorkloadSpec(updates=50, seed=5)
        ).transactions()
        for _time, txn in stream:
            for update in txn.updates:
                assert world.owner_of(update.relation) == txn.origin

    def test_multi_update_transactions_generated(self):
        world = paper_world(sources=1)  # all relations on one source
        spec = WorkloadSpec(updates=60, seed=5, multi_update_fraction=1.0)
        stream = UpdateStreamGenerator(world, spec).transactions()
        assert any(len(txn.updates) > 1 for _t, txn in stream)

    def test_relation_weights_bias(self):
        world = paper_world()
        spec = WorkloadSpec(
            updates=100, seed=5,
            relation_weights={"R": 100.0, "S": 0.0001, "T": 0.0001, "Q": 0.0001},
        )
        stream = UpdateStreamGenerator(world, spec).transactions()
        r_count = sum(
            1 for _t, txn in stream if txn.updates[0].relation == "R"
        )
        assert r_count > 90

    def test_hot_fraction_skews_values(self):
        world = paper_world()
        spec = WorkloadSpec(
            updates=200, seed=4, mix=(1.0, 0.0, 0.0),
            value_range=100, hot_fraction=0.9, hot_keys=2,
        )
        stream = UpdateStreamGenerator(world, spec).transactions()
        values = [
            v
            for _t, txn in stream
            for u in txn.updates
            for v in u.row.values()
            if isinstance(v, int)
        ]
        hot = sum(1 for v in values if v < 2)
        assert hot / len(values) > 0.75  # ~90% expected

    def test_hot_fraction_validation(self):
        with pytest.raises(ReproError):
            WorkloadSpec(hot_fraction=1.5)
        with pytest.raises(ReproError):
            WorkloadSpec(hot_keys=0)

    def test_mix_all_inserts(self):
        world = paper_world()
        spec = WorkloadSpec(updates=40, seed=2, mix=(1.0, 0.0, 0.0))
        stream = UpdateStreamGenerator(world, spec).transactions()
        kinds = {u.kind for _t, txn in stream for u in txn.updates}
        assert kinds == {UpdateKind.INSERT}


#: three relations over the four attribute types, two on one source
MIXED = {
    "R": (Schema([Attribute("a", AttrType.INT), Attribute("b", AttrType.STR)]), "s0"),
    "S": (Schema([Attribute("b", AttrType.STR), Attribute("c", AttrType.FLOAT)]), "s0"),
    "T": (Schema([Attribute("c", AttrType.FLOAT), Attribute("d", AttrType.BOOL)]), "s1"),
}
#: few values per type, so preloaded rows repeat
FEW = {
    AttrType.INT: st.integers(0, 2),
    AttrType.STR: st.sampled_from(["v0", "v1"]),
    AttrType.FLOAT: st.sampled_from([0.0, 1.0, 1]),
    AttrType.BOOL: st.booleans(),
}


@st.composite
def preloaded_worlds(draw):
    rows = {
        name: draw(st.lists(
            st.fixed_dictionaries({a.name: FEW[a.type] for a in schema}),
            max_size=6,
        ))
        for name, (schema, _owner) in MIXED.items()
    }

    def build():
        world = SourceWorld()
        for name, (schema, owner) in MIXED.items():
            world.create_relation(name, schema, owner, rows[name])
        return world

    return build


specs = st.builds(
    WorkloadSpec,
    updates=st.integers(0, 30),
    rate=st.sampled_from([0.5, 1.0, 4.0]),
    mix=st.tuples(*[st.sampled_from([0.0, 0.2, 1.0])] * 3).filter(any),
    value_range=st.integers(1, 4),
    arrivals=st.sampled_from(["uniform", "poisson"]),
    relation_weights=st.dictionaries(
        st.sampled_from(sorted(MIXED)), st.sampled_from([0, 0.5, 2])
    ).filter(lambda w: sum(w.get(n, 1.0) for n in MIXED) > 0),
    multi_update_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    hot_fraction=st.sampled_from([0.0, 0.5]),
    hot_keys=st.integers(1, 2),
    seed=st.integers(0, 2**16),
)


@settings(deadline=None)
@given(preloaded_worlds(), specs)
def test_streams_equal_the_row_mirror_generators(build, spec):
    """The tuple mirror draws what the ``Row`` mirror drew: the same
    stream, whatever the preloaded rows (duplicates included) and spec."""
    assert (
        UpdateStreamGenerator(build(), spec).transactions()
        == RowMirrorGenerator(build(), spec).transactions()
    )


def mixed_world() -> SourceWorld:
    """``MIXED`` with a few preloaded rows, one of them twice."""
    rows = {
        "R": [{"a": 1, "b": "v0"}, {"a": 1, "b": "v0"}, {"b": "v1", "a": 2}],
        "S": [{"b": "v0", "c": 1.0}],
        "T": [{"c": 0.0, "d": True}, {"c": 1.0, "d": False}],
    }
    world = SourceWorld()
    for name, (schema, owner) in MIXED.items():
        world.create_relation(name, schema, owner, rows[name])
    return world


GOLDEN_WORKLOADS = {
    "paper": lambda: (paper_world(), WorkloadSpec(
        updates=400, seed=7, mix=(0.5, 0.25, 0.25), hot_fraction=0.3, hot_keys=2)),
    # one source: a multi-update transaction shuffles three peers
    "paper-one-source": lambda: (paper_world(sources=1), WorkloadSpec(
        updates=300, seed=8, arrivals="poisson", multi_update_fraction=0.5)),
    "clustered": lambda: (clustered_world(4), WorkloadSpec(
        updates=300, rate=40.0, arrivals="poisson", seed=3,
        multi_update_fraction=0.3)),
    "star": lambda: (star_world(), WorkloadSpec(
        updates=300, seed=5, value_range=16, hot_fraction=0.2, hot_keys=3,
        relation_weights={"Sales": 3, "Product": 1, "Store": 0.5})),
    "mixed": lambda: (mixed_world(), WorkloadSpec(
        updates=300, seed=11, value_range=3, mix=(0.4, 0.3, 0.3),
        hot_fraction=0.5, multi_update_fraction=0.5)),
}

#: sha256 of each stream's ``repr`` lines under ``PYTHONHASHSEED=0``, as the
#: generator that built each ``Row`` from a dict and called ``choices`` drew it
GOLDEN_STREAMS = {
    "paper": "cedb16a20842b477475503535a26cadf7554c1cea16eec8f9e9f998198d95c9b",
    "paper-one-source": "4276c37f370bef515bb16367672ab9f2d681ac632f336301381068262370ca85",
    "clustered": "c348f1fc99e83e7a8a07b93582284083f1bd114df95246e6758bed307f597f57",
    "star": "c78cc0e22ced351bf8dbbc6a6b59bb2c3464889b8f994b1586a710c02fe2d439",
    "mixed": "bf36089651470c121f60ebb78960507d63ea6eec122663f14c30a6d504560c87",
}


def stream_digests() -> dict[str, str]:
    digests = {}
    for name, make in GOLDEN_WORKLOADS.items():
        stream = UpdateStreamGenerator(*make()).transactions()
        text = "\n".join(repr(pair) for pair in stream)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def test_streams_equal_the_golden_digests():
    """Paper, one-source paper, clustered, weighted star and the four-type
    world, under hot keys and multi-update transactions, draw the recorded
    streams (in a fresh interpreter: ``relations_of`` is a set of names)."""
    root = Path(__file__).resolve().parents[2]
    script = ("import json\n"
              "from tests.workloads.test_generator import stream_digests\n"
              "print(json.dumps(stream_digests()))\n")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env=env, cwd=root)
    assert json.loads(out.stdout) == GOLDEN_STREAMS
