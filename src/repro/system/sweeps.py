"""Parameter sweeps: run a family of configurations and tabulate results.

The §7 study and the ablation benchmarks all share one shape — build N
systems that differ in one knob, drive the same seeded workload through
each, and compare metrics.  :func:`sweep` packages that shape as a public
API so downstream users can run their own studies:

    rows = sweep(
        ScenarioSpec(workload=WorkloadSpec(updates=100, rate=2.0, seed=7),
                     vary_workload=False, config={}, scheduler="fifo"),
        variants={"spa": {"manager_kind": "complete"},
                  "pa": {"manager_kind": "strong"}},
    )
    print(format_sweep(rows))
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.merge.selection import at_least
from repro.system.builder import WarehouseSystem
from repro.system.metrics import RunMetrics

if TYPE_CHECKING:  # pragma: no cover - the caller passes the spec in
    from repro.conformance.scenario import ScenarioSpec


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One variant's outcome."""

    name: str
    metrics: RunMetrics
    mvc_level: str
    expected_level: str | None

    @property
    def verified(self) -> bool:
        # a run that promises nothing fails, as check_mvc("auto") does
        return bool(self.expected_level) and at_least(self.mvc_level, self.expected_level)


def sweep(
    scenario: ScenarioSpec,
    variants: Mapping[str, Mapping[str, object]],
    run_seed: int = 0,
    classify: bool = True,
    on_system: Callable[[str, WarehouseSystem], None] | None = None,
    **observe: object,
) -> list[SweepRow]:
    """Run every variant on an identical workload; returns one row each.

    A variant is a mapping of ``SystemConfig`` overrides laid over the
    scenario's own; each is built afresh from ``scenario`` at ``run_seed``
    (same workload, so the variants are fully independent), and
    ``observe`` goes to :meth:`ScenarioSpec.build`.  ``on_system`` (if
    given) sees each finished system before it is discarded — the hook
    trace/metrics exporters attach to.
    """
    rows: list[SweepRow] = []
    for name, overrides in variants.items():
        variant = dataclasses.replace(
            scenario, config={**scenario.config, **overrides}
        )
        system = variant.build(run_seed, **observe)
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
