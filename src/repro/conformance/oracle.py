"""The conformance oracle: what does a configuration *promise*, and did
a finished run keep that promise?

Per view, the effective guarantee is the weaker of what a client may rely
on from the view's manager and what its merge process delivers; both
readings, and the ordering that "weaker" refers to, are
:mod:`repro.merge.selection`'s (``client_level``, ``delivered_level``,
``weakest_level``), the same functions ``WarehouseSystem.expected_level``
is made of.

A run is then checked three ways, strictly following the §2 definitions:

1. **per view** — the view's value sequence against the source state
   sequence (sound for a single view because the painting algorithms
   never reorder updates affecting the same view);
2. **per pair** — every pair of non-broken views via the order-aware
   checker (:mod:`repro.consistency.ordered`), which accepts any legal
   conflict-equivalent reordering but rejects cross-view anomalies the
   single-view checks cannot see;
3. **fleet-wide** — all views together at the fleet's weakest level.

Violations of levels a configuration never promised are *not* reported:
the oracle answers "did this run break its advertised guarantee", which
is exactly what the explorer hunts for.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.consistency.checker import (
    check_complete,
    check_convergent,
    check_strong,
)
from repro.consistency.mvc import check_mvc_convergent
from repro.consistency.ordered import check_mvc_ordered
from repro.consistency.states import source_view_values
from repro.merge.selection import client_level, delivered_level, weakest_level
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


def merge_effective_level(system: WarehouseSystem, merge_name: str) -> str:
    """The level a merge process actually delivers to its views."""
    merge = system._merge_by_name(merge_name)
    return delivered_level(merge.algorithm, merge.policy)


def effective_view_levels(system: WarehouseSystem) -> dict[str, str | None]:
    """Per view: the weaker of its manager's and merge process's promise."""
    levels: dict[str, str | None] = {}
    for view, manager in system.view_managers.items():
        promised = client_level(manager.level)
        if promised is not None:
            merge_level = merge_effective_level(system, system.view_to_merge[view])
            promised = weakest_level((promised, merge_level))
        levels[view] = promised
    return levels


def fleet_expected_level(system: WarehouseSystem) -> str | None:
    """The fleet-wide promise: ``system.expected_level()``, or None if any
    view's manager is broken — a fleet with a naive member promises
    nothing jointly."""
    if None in effective_view_levels(system).values():
        return None
    return system.expected_level()


def _check_single_view(level, warehouse_values, source_values):
    if level == "complete":
        return check_complete(warehouse_values, source_values)
    if level == "strong":
        return check_strong(warehouse_values, source_values)
    return check_convergent(warehouse_values, source_values)


def _joint_violations(
    system: WarehouseSystem, source_states, scope: str, definitions, level: str
) -> list[Violation]:
    """``definitions`` checked together at ``level`` (empty = it holds):
    convergence compares final states, the stronger levels go through the
    order-aware checker."""
    if level == "convergent":
        report = check_mvc_convergent(system.history, source_states, definitions)
    else:
        report = check_mvc_ordered(
            system.history,
            system.initial_state,
            system.integrator.numbered,
            definitions,
            level,
        )
    return [] if report else [Violation(scope, level, report.reason)]


def check_run(system: WarehouseSystem) -> list[Violation]:
    """Every broken promise in a finished run (empty = conformant).

    The system must have been run to completion (``system.run()`` with no
    horizon) so the history covers the full update stream.
    """
    violations: list[Violation] = []
    view_levels = effective_view_levels(system)
    definitions = {d.name: d for d in system.definitions}

    # 1. per-view §2 checks on value sequences.
    source_states = system.source_states()
    per_state = source_view_values(source_states, system.definitions)
    for view, level in view_levels.items():
        if level is None:
            continue
        warehouse_values = [state.view(view) for state in system.history]
        source_values = [values[view] for values in per_state]
        report = _check_single_view(level, warehouse_values, source_values)
        if not report:
            violations.append(Violation(f"view:{view}", level, report.reason))

    # 2. pairwise MVC (order-aware for strong/complete).
    checked = [v for v, lvl in view_levels.items() if lvl is not None]
    for first, second in combinations(checked, 2):
        level = weakest_level((view_levels[first], view_levels[second]))
        pair = [definitions[first], definitions[second]]
        violations += _joint_violations(
            system, source_states, f"pair:{first},{second}", pair, level
        )

    # 2b. per shard: each merge process's views jointly at the shard's
    # weakest promised level.  §6.1 argues shards never interact; this is
    # the executable form of that argument — a violation scoped
    # ``shard:mergeN`` means the partitioning itself leaked consistency.
    if len(system.merge_processes) > 1:
        shards = groups_by_shard(system.view_to_merge)
        for merge_name, shard_views in shards.items():
            promised = [view_levels[view] for view in shard_views]
            if None in promised or len(shard_views) < 2:
                continue  # no joint promise, or covered by the per-view check
            level = weakest_level(promised)
            shard_defs = [definitions[v] for v in sorted(shard_views)]
            violations += _joint_violations(
                system, source_states, f"shard:{merge_name}", shard_defs, level
            )

    # 3. fleet-wide at the weakest promised level.
    fleet_level = fleet_expected_level(system)
    if fleet_level is not None:
        violations += _joint_violations(
            system, source_states, "fleet", system.definitions, fleet_level
        )

    return violations


@dataclass(frozen=True)
class RealRunReport:
    """The conformance verdict on one wall-clock (parallel-runtime) run.

    ``digest`` is the run's observable history reduced to the same
    SHA-256 the explorer pins its reproducers with
    (:meth:`~repro.sim.tracing.Trace.digest`) — two real runs with equal
    digests had byte-for-byte identical observable histories, and a
    digest plus an empty ``violations`` tuple certifies that this
    particular interleaving lies inside the schedule space the oracle
    accepts.
    """

    runtime: str
    digest: str
    events: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        verdict = (
            "conformant"
            if self.ok
            else "; ".join(str(v) for v in self.violations)
        )
        return (
            f"[{self.runtime}] {self.events} events, "
            f"digest {self.digest[:12]}…: {verdict}"
        )


def check_real_run(system: WarehouseSystem) -> RealRunReport:
    """Validate a finished run on *any* runtime with the full oracle.

    The per-view, pairwise, per-shard and fleet checks of
    :func:`check_run` are all history-level — they read the warehouse
    state sequence and the integrator's numbering, never the clock — so
    the same promises are checkable whether the history came from the
    DES kernel or from real threads/processes.  This is the anchor the
    parallel runtimes are held to: every interleaving the hardware
    produces must keep the configuration's advertised MVC level, exactly
    like every schedule the explorer enumerates.
    """
    return RealRunReport(
        runtime=system.config.runtime,
        digest=system.sim.trace.digest(),
        events=system.sim.events_executed,
        violations=tuple(check_run(system)),
    )


def check_run_at(system: WarehouseSystem, level: str) -> list[Violation]:
    """Check the whole fleet at an explicit ``level`` (negative oracles).

    Unlike :func:`check_run` this ignores what the configuration
    promises: it asks whether the run *happens* to satisfy ``level``,
    which is how the explorer demonstrates that naive or periodic fleets
    produce detectable violations.
    """
    report = system.check_mvc(level)  # rejects an unknown level
    if report:
        return []
    return [Violation("fleet", level, report.reason)]


__all__ = [
    "RealRunReport",
    "Violation",
    "check_real_run",
    "check_run",
    "check_run_at",
    "effective_view_levels",
    "fleet_expected_level",
    "merge_effective_level",
]
