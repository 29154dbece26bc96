"""Parameter sweeps: run a family of configurations and tabulate results.

The §7 study and the ablation benchmarks all share one shape — build N
systems that differ in one knob, drive the same seeded workload through
each, and compare metrics.  :func:`sweep` packages that shape as a public
API so downstream users can run their own studies:

    rows = sweep(
        world_factory=paper_world,
        views_factory=paper_views_example2,
        spec=WorkloadSpec(updates=100, rate=2.0, seed=7),
        variants={
            "spa": SystemConfig(manager_kind="complete"),
            "pa":  SystemConfig(manager_kind="strong"),
        },
    )
    print(format_sweep(rows))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.merge.selection import at_least
from repro.relational.expressions import ViewDefinition
from repro.sources.world import SourceWorld
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.system.metrics import RunMetrics
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One variant's outcome."""

    name: str
    metrics: RunMetrics
    mvc_level: str
    expected_level: str

    @property
    def verified(self) -> bool:
        return at_least(self.mvc_level, self.expected_level)


def sweep(
    world_factory: Callable[[], SourceWorld],
    views_factory: Callable[[], Sequence[ViewDefinition]],
    spec: WorkloadSpec,
    variants: Mapping[str, SystemConfig],
    classify: bool = True,
    on_system: Callable[[str, WarehouseSystem], None] | None = None,
) -> list[SweepRow]:
    """Run every variant on an identical workload; returns one row each.

    A fresh world and stream are generated per variant (same seed, so the
    workloads are identical), keeping variants fully independent.
    ``on_system`` (if given) sees each finished system before it is
    discarded — the hook trace/metrics exporters attach to.
    """
    rows: list[SweepRow] = []
    for name, config in variants.items():
        world = world_factory()
        stream = UpdateStreamGenerator(world, spec).transactions()
        system = WarehouseSystem(world, list(views_factory()), config)
        post_stream(system, stream)
        system.run()
        if on_system is not None:
            on_system(name, system)
        level = system.classify() if classify else "unchecked"
        rows.append(
            SweepRow(
                name=name,
                metrics=system.metrics(),
                mvc_level=level,
                expected_level=system.expected_level(),
            )
        )
        system.close()
    return rows


def format_sweep(rows: Sequence[SweepRow]) -> str:
    """Render sweep rows as a fixed-width comparison table."""
    headers = [
        "variant", "MVC", "makespan", "throughput",
        "staleness(mean)", "staleness(p95)", "wh txns",
    ]
    cells = [
        [
            row.name,
            row.mvc_level,
            f"{row.metrics.makespan:.1f}",
            f"{row.metrics.throughput:.3f}",
            f"{row.metrics.mean_staleness:.2f}",
            f"{row.metrics.p95_staleness:.2f}",
            str(row.metrics.warehouse_transactions),
        ]
        for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    def line(values):
        return "  ".join(v.rjust(w) for v, w in zip(values, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in cells)
    return "\n".join(out)
