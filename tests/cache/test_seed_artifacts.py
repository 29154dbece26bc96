"""Seed artifacts: what a cold run publishes and a warm run decodes.

Both ends now go through the bulk tuple load (the cold run's contents
come out of ``evaluate_columnar``, the warm run's out of
``decode_relation``); the row-dict ``evaluate`` over ss_0 is the
reference for both, and the content addresses are what they were.
"""

import pickle

import pytest

from repro.cache.store import CacheConfig
from repro.errors import RelationError, ReproError, SchemaError
from repro.relational.algebra import evaluate
from repro.relational.columnar import counts_to_rows
from repro.relational.rows import Row
from repro.relational.schema import Attribute, AttrType, Schema
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.viewmgr.base import decode_relation
from repro.workloads.schemas import bank_views, bank_world, star_views
from tests.conftest import preloaded_star_world

#: ``view-seed`` addresses of the bank suite over six customers, as
#: published before set-up moved to the bulk load
BANK_SEED_KEYS = {
    "Portfolio": "abf67b9ef50615f5cf93eaf23d6045992c3647a5",
    "GoldLedger": "282b7ed5c06310143bdef666a6b131e3c479ade5",
    "BranchBook": "ae42979ca3b228ff2f5b2719302308c7c9565eb2",
}


def _bank():
    return bank_world(customers=6), bank_views()


def _star():
    return preloaded_star_world(80), star_views(selective=True, aggregates=True)


def seed_keys(system):
    return {
        name: manager._cache._seed_key
        for name, manager in system.view_managers.items()
    }


@pytest.mark.parametrize("suite", [_bank, _star])
def test_cold_seed_and_warm_contents_equal_the_oracle(suite, tmp_path):
    config = SystemConfig(cache=CacheConfig(root=str(tmp_path)))
    world, views = suite()
    cold = WarehouseSystem(world, views, config)
    oracle = {
        d.name: evaluate(d.expression, cold.initial_state) for d in views
    }
    assert any(oracle.values())
    keys = seed_keys(cold)
    for name, key in keys.items():
        assert cold.view_managers[name]._cache.seed_hits == 0
        layout, counts = pickle.loads(cold.cache_store.get(key))["contents"]
        assert counts_to_rows(layout, counts) == dict(oracle[name].counts())
        assert cold.store.view(name) == oracle[name]
    cold.close()

    world, views = suite()
    warm = WarehouseSystem(world, views, config)
    assert seed_keys(warm) == keys  # a pure function of definition and ss_0
    for name, expected in oracle.items():
        assert warm.view_managers[name]._cache.seed_hits == 1
        stored = warm.store.view(name)
        assert stored == expected and len(stored) == len(expected)
        assert stored.schema == expected.schema
    warm.close()


def test_seed_addresses_are_unchanged(tmp_path):
    world, views = _bank()
    system = WarehouseSystem(
        world, views, SystemConfig(cache=CacheConfig(root=str(tmp_path)))
    )
    assert seed_keys(system) == BANK_SEED_KEYS
    system.close()


class TestDecodeRelation:
    """A malformed artifact relation ends in a typed error, never in a
    truncated row, an ``IndexError`` or a relation of fractional size."""

    SCHEMA = Schema(["A", Attribute("B", AttrType.STR)])
    LAYOUT = ("A", "B")

    def test_round_trip(self):
        decoded = decode_relation(
            (list(self.LAYOUT), {(1, "x"): 2, (2, "y"): 1}), self.SCHEMA
        )
        assert decoded.sorted_rows() == [
            Row(A=1, B="x"), Row(A=1, B="x"), Row(A=2, B="y")
        ]
        assert decoded.schema is self.SCHEMA

    @pytest.mark.parametrize("layout", [("A",), ("A", "B", "C"), ("B", "A"), ()])
    def test_wrong_layout(self, layout):
        with pytest.raises(SchemaError):
            decode_relation((layout, {(1, "x"): 1}), self.SCHEMA)

    @pytest.mark.parametrize("bad", [(1,), (1, "x", "extra")])
    def test_short_or_long_tuple(self, bad):
        with pytest.raises(SchemaError, match="is not a tuple of the 2 values"):
            decode_relation(
                (self.LAYOUT, {(1, "x"): 1, bad: 1}), self.SCHEMA
            )

    @pytest.mark.parametrize("bad", [(True, "x"), (1.0, "x"), (1, 2), (1, None)])
    def test_wrong_value_class(self, bad):
        with pytest.raises(SchemaError, match="expects"):
            decode_relation(
                (self.LAYOUT, {(5, "v"): 1, bad: 1}), self.SCHEMA
            )

    @pytest.mark.parametrize("count", [0, -1, 1.5, 2.0, True])
    def test_bad_multiplicity(self, count):
        with pytest.raises(RelationError, match="multiplicity") as caught:
            decode_relation(
                (self.LAYOUT, {(5, "v"): 1, (6, "w"): count}), self.SCHEMA
            )
        assert "(6, 'w')" in str(caught.value)
        assert isinstance(caught.value, ReproError)
