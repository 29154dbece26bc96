"""The conformance oracle: what does a configuration *promise*, and did
a finished run keep that promise?

What each view and the fleet promise is read off
:func:`repro.merge.selection.promise`, the function
``WarehouseSystem.expected_level`` reads too: per view, the weaker of what
a client may rely on from the view's manager and what its merge process
delivers; ``None`` where nothing is promised.

A run that ended at a refused warehouse transaction is one ``run``-scoped
violation when the fleet promised something, and none otherwise.

A finished run is replayed once (:class:`repro.consistency.Replay`) and
every scope is read off that replay, following the §2 definitions: each
view's value sequence against its source value sequence, then every pair
of promising views, every shard and the whole fleet jointly over the
schedule the warehouse applied, which accepts any legal reordering and
rejects the cross-view anomalies single-view checks cannot see.

Violations of levels a configuration never promised are *not* reported:
the oracle answers "did this run break its advertised guarantee", which
is exactly what the explorer hunts for.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.consistency import ConsistencyReport
from repro.merge.selection import promise, weakest_level
from repro.merge.sharding import groups_by_shard
from repro.system.builder import WarehouseSystem


@dataclass(frozen=True)
class Violation:
    """One broken promise observed in a run.

    ``scope`` names what was checked ("view:V1", "pair:V1,V2", "fleet",
    or "run" for an execution error); ``level`` is the promised level
    that failed (or "execution"); ``reason`` is the checker's (or the
    exception's) explanation.
    """

    scope: str
    level: str
    reason: str

    def __str__(self) -> str:
        return f"{self.scope} violates {self.level}: {self.reason}"


def check_run(system: WarehouseSystem) -> list[Violation]:
    """Every broken promise in a finished run (empty = conformant).

    The system must have been run to completion (``system.run()`` with no
    horizon) so the history covers the full update stream.
    """
    view_levels, fleet_level = promise(system)
    if system.warehouse.refused is not None:  # no states past it to judge
        return check_run_at(system, fleet_level) if fleet_level else []
    replay = system.replay()
    violations: list[Violation] = []

    def judge(scope: str, level: str, report: ConsistencyReport) -> None:
        if not report:
            violations.append(Violation(scope, level, report.reason))

    # 1. per-view §2.2 checks on value sequences.
    for view, level in view_levels.items():
        if level is not None:
            judge(f"view:{view}", level, replay.check_view(view, level))

    # 2. every pair of promising views and, with several merge processes,
    # every shard, jointly at the weakest level promised inside it.  §6.1
    # argues shards never interact; a violation scoped ``shard:mergeN``
    # means the partitioning itself leaked consistency.
    checked = [v for v, lvl in view_levels.items() if lvl is not None]
    scopes = [("pair:" + ",".join(pair), pair) for pair in combinations(checked, 2)]
    if len(system.merge_processes) > 1:
        scopes += [
            (f"shard:{merge_name}", views)
            for merge_name, views in groups_by_shard(system.view_to_merge).items()
            if len(views) > 1 and set(views) <= set(checked)
        ]
    for scope, views in scopes:
        level = weakest_level(view_levels[view] for view in views)
        judge(scope, level, replay.check(level, views))

    # 3. fleet-wide at the weakest promised level.
    if fleet_level is not None:
        judge("fleet", fleet_level, replay.check(fleet_level))

    return violations


def check_run_at(system: WarehouseSystem, level: str) -> list[Violation]:
    """Check the whole fleet at an explicit ``level``, whatever the
    configuration promises: how the explorer shows that naive or periodic
    fleets produce detectable violations (negative oracles)."""
    report = system.check_mvc(level)  # rejects an unknown level
    if report:
        return []
    if system.warehouse.refused is not None:
        return [Violation("run", "execution", report.reason)]
    return [Violation("fleet", level, report.reason)]


__all__ = [
    "Violation",
    "check_run",
    "check_run_at",
]
