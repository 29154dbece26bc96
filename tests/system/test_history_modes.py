"""Memory-lean operation: record_history=False.

Long-lived deployments cannot keep a snapshot per warehouse transaction.
With history recording off, the store keeps only the initial and latest
states; runs can still be checked for *convergence* (final state), just
not for the stronger levels.
"""

from repro.relational.algebra import evaluate
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import paper_views_example2, paper_world


def test_history_off_long_run_converges():
    world = paper_world()
    spec = WorkloadSpec(updates=400, rate=4.0, seed=77,
                        mix=(0.5, 0.25, 0.25), arrivals="poisson")
    stream = UpdateStreamGenerator(world, spec).transactions()
    system = WarehouseSystem(
        world, paper_views_example2(),
        SystemConfig(
            manager_kind="strong",
            record_history=False,
            trace_kinds=frozenset(),
            seed=77,
        ),
    )
    post_stream(system, stream)
    system.run()

    # Only two states retained regardless of run length.
    assert len(system.history) == 2
    # The final contents equal the definitions evaluated at the final
    # source state — convergence, checked directly.
    final_source = system.source_states()[-1]
    for definition in system.definitions:
        expected = evaluate(definition.expression, final_source)
        assert system.store.view(definition.name) == expected


def test_history_off_current_state_still_advances():
    world = paper_world()
    system = WarehouseSystem(
        world, paper_views_example2(),
        SystemConfig(record_history=False),
    )
    from repro.sources.update import Update

    system.post_update(Update.insert("S", {"B": 2, "C": 3}), at=1.0)
    system.run()
    assert system.store.current_state.txn_id != -1
    assert len(system.store.view("V1")) == 1


def _star_run(monkeypatch, record_history):
    """A drained star-schema system and the log of whole-relation copies
    (``Relation.copy`` / ``Database.snapshot`` calls) made after its build."""
    from repro.relational.database import Database
    from repro.relational.relation import Relation
    from repro.workloads import star_views, star_world

    world = star_world(products=8, stores=4)
    spec = WorkloadSpec(updates=60, rate=0.5, seed=5, arrivals="uniform")
    stream = UpdateStreamGenerator(world, spec).transactions()
    system = WarehouseSystem(
        world, star_views(selective=True, aggregates=True),
        SystemConfig(record_history=record_history, seed=5),
    )
    copies = []
    for owner, attr in ((Relation, "copy"), (Database, "snapshot")):
        original = getattr(owner, attr)

        def counted(self, _original=original, _attr=attr):
            copies.append(_attr)
            return _original(self)

        monkeypatch.setattr(owner, attr, counted)
    post_stream(system, stream)
    system.run()
    assert system.warehouse.commits > 0 and world.version == 60
    return system, copies


def test_history_off_drain_copies_no_relation(monkeypatch):
    system, copies = _star_run(monkeypatch, record_history=False)
    assert copies == []
    state = system.store.current_state
    assert state.index == system.warehouse.commits
    indexes = [e.detail["state_index"] for e in system.sim.trace.of_kind("wh_commit")]
    assert indexes == list(range(1, len(indexes) + 1))  # the commit ordinal
    # Reading the latest state is what copies, and only then.
    assert state.view("SaleDetail") == system.store.view("SaleDetail")
    assert copies


def test_history_on_copies_nothing_until_the_history_is_read(monkeypatch):
    system, copies = _star_run(monkeypatch, record_history=True)
    assert copies == []
    assert len(system.history) == system.warehouse.commits + 1
    assert copies == []  # the sequence itself is not a read
    system.history[3].views
    after_one_state = len(copies)
    assert after_one_state > 0
    system.world.state_sequence()
    assert len(copies) > after_one_state
    assert system.check_mvc("auto").ok
