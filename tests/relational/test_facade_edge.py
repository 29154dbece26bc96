"""Where ``Row``s may be built: at the API's edge, nowhere in the pipeline.

A bag is kept, moved and applied as layout-positioned value tuples (the
store of a ``Relation``, the counts of a ``Delta``); a ``Row`` is what the
two build when somebody reads them row-wise (``docs/engine.md``, the
facade contract).  Two checks hold the pipeline to that: a run from the
end of set-up to the end of the drain builds no ``Row`` at all, whether
its managers keep replicas (cached mode) or query the base data back
(snapshot and compensate modes), and nothing in ``src/`` outside the three
modules that own the boundary so much as names the tuple -> ``Row``
builders.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.relational import columnar
from repro.relational.algebra import evaluate
from repro.relational.rows import Row
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.generator import (
    UpdateStreamGenerator,
    WorkloadSpec,
    post_stream,
)
from repro.workloads.schemas import (
    clustered_views,
    clustered_world,
    paper_views_example2,
    paper_world,
)
from tests.system.test_setup import count_calls, replace_everywhere


def ex2_steady():
    spec = WorkloadSpec(updates=300, rate=0.2, arrivals="poisson",
                        mix=(0.3, 0.5, 0.2), value_range=40, seed=3)
    return paper_world(), paper_views_example2(), spec


def clustered_12():
    spec = WorkloadSpec(updates=300, rate=40.0, arrivals="poisson", seed=3)
    return clustered_world(12), clustered_views(12, 3), spec


@pytest.mark.parametrize("build", [ex2_steady, clustered_12])
def test_a_cached_mode_drain_builds_no_row(monkeypatch, build):
    """The generator's ``Update``s carry the only rows there are: posting
    them and draining the system constructs none (``Row(...)``) and builds
    none from a tuple (the products of ``compile_row_builder``)."""
    config = SystemConfig(seed=3, record_history=False, trace_enabled=True)
    assert config.manager_mode == "cached"
    assert_drain_builds_no_row(monkeypatch, build, config)


@pytest.mark.parametrize("kind, mode", [("strong", "compensate"),
                                        ("complete", "snapshot")])
def test_a_query_back_drain_builds_no_row(monkeypatch, kind, mode):
    """The same with managers that keep no base data: the snapshot
    answers, the compensation and the delta rules run on tuples too."""
    config = SystemConfig(seed=3, record_history=False, trace_enabled=True,
                          manager_kind=kind, manager_mode=mode)
    assert_drain_builds_no_row(monkeypatch, ex2_steady, config)


def assert_drain_builds_no_row(monkeypatch, build, config):
    world, views, spec = build()
    system = WarehouseSystem(world, views, config)
    transactions = list(UpdateStreamGenerator(world, spec).transactions())
    original = columnar.compile_row_builder
    built = []

    def counting_builder(layout):
        build_row = original(layout)
        return lambda values: built.append(layout) or build_row(values)

    with monkeypatch.context() as patch:
        constructed = count_calls(patch, Row, "__init__")
        replace_everywhere(patch, columnar, "compile_row_builder", counting_builder)
        post_stream(system, transactions)
        system.run()
        assert (len(constructed), len(built)) == (0, 0)
    assert len(system.store.commit_log) > 0 and len(system.sim.trace) > 0
    for definition in system.definitions:  # builds rows: after the count
        assert system.store.view(definition.name) == evaluate(
            definition.expression, world.current
        )


#: the tuple -> ``Row`` builders, and the modules that may refer to them
BUILDERS = {"compile_row_builder", "counts_to_rows", "to_rows"}
BOUNDARY = {"relational/relation.py", "relational/delta.py", "relational/columnar.py"}


def test_only_the_boundary_modules_name_the_row_builders():
    root = Path(repro.__file__).parent
    strangers = []
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        if module in BOUNDARY:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = {
                getattr(node, "id", None),  # a bare name
                getattr(node, "attr", None),  # ``x.name``
                getattr(node, "name", None),  # ``import name`` / ``def name``
            }
            if names & BUILDERS:
                strangers.append(f"{module}:{node.lineno}")
    assert strangers == []
