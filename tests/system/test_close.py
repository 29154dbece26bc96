"""``WarehouseSystem.close()`` is terminal: one row per entry point.

Every call that would schedule or execute events raises
:class:`SimulationError` saying the system is closed; a second
``close()`` is a no-op; the results stay readable and equal to what they
were just before the close.
"""

import pytest

from repro.cache import CacheConfig
from repro.errors import ReproError, SimulationError
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.generator import (
    UpdateStreamGenerator,
    WorkloadSpec,
    post_stream,
)
from repro.workloads.schemas import paper_views_example1, paper_world


def later(system):
    return system.sim.now + 1.0


def an_update(stream):
    return stream[0][1].updates[0]


def results(system):
    """Everything a closed system still answers, as comparable values."""
    return (
        {d.name: system.store.view(d.name) for d in system.definitions},
        len(system.history),
        system.replay().classify(),
        system.check_mvc().ok,
        repr(system.metrics()),
    )


#: (entry point, call, expected error or None for a no-op/read)
ROWS = [
    ("post", lambda s, stream: s.post(stream[0][1], later(s)), SimulationError),
    ("post_update", lambda s, stream: s.post_update(an_update(stream), later(s)),
     SimulationError),
    ("post_global", lambda s, stream: s.post_global([an_update(stream)], later(s)),
     SimulationError),
    ("post_stream", lambda s, stream: post_stream(s, stream), SimulationError),
    ("run", lambda s, stream: s.run(), SimulationError),
    ("run bounded", lambda s, stream: s.run(max_events=1), SimulationError),
    ("close again", lambda s, stream: s.close(), None),
    ("store", lambda s, stream: s.store.view("V1"), None),
    ("history", lambda s, stream: s.history[-1].views, None),
    ("replay", lambda s, stream: s.replay().check("complete"), None),
    ("check_mvc", lambda s, stream: s.check_mvc("complete"), None),
    ("metrics", lambda s, stream: s.metrics(), None),
]


@pytest.fixture(params=[None, "private-cache"])
def closed_system(request):
    world = paper_world()
    cache = CacheConfig() if request.param else None
    system = WarehouseSystem(
        world, paper_views_example1(),
        SystemConfig(manager_kind="complete", seed=3, cache=cache),
    )
    spec = WorkloadSpec(updates=20, rate=2.0, seed=3, mix=(0.7, 0.15, 0.15))
    stream = list(UpdateStreamGenerator(world, spec).transactions())
    post_stream(system, stream)
    system.run()
    before = results(system)
    system.close()
    return system, stream, before


@pytest.mark.parametrize("name, call, error", ROWS, ids=[row[0] for row in ROWS])
def test_entry_point_after_close(closed_system, name, call, error):
    system, stream, before = closed_system
    events, now = system.sim.events_executed, system.sim.now
    if error is None:
        call(system, stream)
    else:
        assert issubclass(error, ReproError)
        with pytest.raises(error, match="closed"):
            call(system, stream)
    assert (system.sim.events_executed, system.sim.now) == (events, now)
    assert system.sim.pending_events == 0
    assert results(system) == before
