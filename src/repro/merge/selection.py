"""The consistency-level lattice and the merge algorithm for a fleet (§2, §6.3).

"When there is a combination of different types of view managers in the
system, it is always possible to use the merge algorithm corresponding to
the view manager guaranteeing the weakest level of consistency.  For
example, if there are both complete and strongly consistent view managers
in a system, a MP can always use PA to guarantee strong consistency."

Everything that compares two levels, or turns what a component declares
into what a warehouse client may rely on, is in this module:
:func:`select_algorithm` gives each merge group its algorithm, and
:func:`promise` gives each view's promise and the fleet's (``None``: no
promise), which the builder, the conformance oracle and the sweep read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from repro.errors import MergeError, ReproError
from repro.merge.base import MergeAlgorithm
from repro.merge.complete_n import CompleteNMerge
from repro.merge.pa import PaintingAlgorithm
from repro.merge.passthrough import PassThroughMerge
from repro.merge.spa import SimplePaintingAlgorithm
from repro.merge.submission import SubmissionPolicy

if TYPE_CHECKING:  # pragma: no cover - both read this module
    from repro.system.builder import WarehouseSystem
    from repro.system.config import SystemConfig

#: the levels a view manager may declare, strongest first; "broken"
#: promises nothing and deliberately maps to the weakest coordination
#: (pass-through) so the anomaly demos can run.
LEVELS = ("complete", "complete-n", "strong", "convergent", "broken")
#: the one ordering: the declared levels and, below them all, what a run
#: that kept none of them achieved (``WarehouseSystem.classify``).
_RANK = {level: rank for rank, level in enumerate((*LEVELS, "inconsistent"))}

#: ``SystemConfig.merge_algorithm`` name -> class; ``None`` stands for the
#: weakest-level rule.  A new algorithm declares ``requires_level`` /
#: ``guarantees_level`` (and ``config_args``) and is added here.
ALGORITHMS: dict[str, type[MergeAlgorithm] | None] = {
    "auto": None,
    "spa": SimplePaintingAlgorithm,
    "pa": PaintingAlgorithm,
    "passthrough": PassThroughMerge,
    "complete-n": CompleteNMerge,
}

#: what ``auto`` picks from, strongest first: the first algorithm whose
#: ``requires_level`` a group's weakest manager meets (§6.3).
AUTO = (SimplePaintingAlgorithm, PaintingAlgorithm, PassThroughMerge)


def at_least(level: str, required: str) -> bool:
    """True when ``level`` is ``required`` or stronger."""
    return _RANK[level] <= _RANK[required]


def weakest_level(levels: Iterable[str]) -> str:
    """The weakest single-view consistency level present in ``levels``."""
    seen = list(levels)
    if not seen:
        raise MergeError("no view-manager levels given")
    for level in seen:
        if level not in LEVELS:
            raise MergeError(
                f"unknown consistency level {level!r}; "
                f"expected one of {LEVELS}"
            )
    return max(seen, key=_RANK.__getitem__)


def client_level(level: str) -> str | None:
    """What a warehouse client may rely on from a declared ``level``.

    Complete-N is complete only at block boundaries, so any one read sees
    strong consistency; a broken manager promises nothing (``None``).
    """
    if level == "broken":
        return None
    return "strong" if level == "complete-n" else level


#: the levels a finished run is checked at, strongest first: the declared
#: ones a client may rely on as they stand.
CHECKED_LEVELS = tuple(level for level in LEVELS if client_level(level) == level)


def achieved_level(holds: Callable[[str], object]) -> str:
    """The strongest checked level for which ``holds(level)`` is true, or
    ``"inconsistent"``, the rank below them all."""
    return next((level for level in CHECKED_LEVELS if holds(level)), "inconsistent")


def delivered_level(
    algorithm: MergeAlgorithm, policy: SubmissionPolicy, executors: int
) -> str | None:
    """The MVC level a merge process delivers to its views over ``executors``
    warehouse executors; none (``None``) where several may reorder the
    commits of a policy that does not order them (§4.3)."""
    if executors > 1 and not policy.orders_commits:
        return None
    level = client_level(algorithm.guarantees_level)
    if level == "complete" and not policy.preserves_completeness:
        level = "strong"  # batching advances several states at once (§4.3)
    return level


def promise(system: WarehouseSystem) -> tuple[dict[str, str | None], str | None]:
    """Each view's promise, the weaker of what its manager declares and
    what its merge process delivers, and the fleet's, the weakest of them;
    ``None`` (no promise) for a naive manager's view, under a merge that
    delivers nothing, and for a fleet with any such view."""
    executors = system.config.warehouse_executors
    delivered = {
        view: delivered_level(merge.algorithm, merge.policy, executors)
        for merge in system.merge_processes
        for view in merge.algorithm.views
    }
    views = {
        view: None if delivered[view] is None
        else client_level(weakest_level((manager.level, delivered[view])))
        for view, manager in system.view_managers.items()
    }
    fleet = None if None in views.values() else weakest_level(views.values())
    return views, fleet


def select_algorithm(
    views: tuple[str, ...], config: SystemConfig, name: str = "merge"
) -> MergeAlgorithm:
    """The merge algorithm ``config`` gives the group ``views``: ``auto``
    follows :data:`AUTO` (complete-N managers alone keep their blocks, a
    naive group meets none and gets pass-through); no algorithm may require
    more than a manager declares, bar a naive one, which promises nothing."""
    levels = config.manager_levels(views)
    algorithm_cls = ALGORITHMS[config.merge_algorithm]
    if algorithm_cls is None:
        weakest = weakest_level(levels)
        algorithm_cls = CompleteNMerge if set(levels) == {"complete-n"} else next(
            (c for c in AUTO if at_least(weakest, c.requires_level)), PassThroughMerge)
    for view, level in zip(views, levels):
        if level != "broken" and not at_least(level, algorithm_cls.requires_level):
            raise ReproError(
                f"view {view!r}: its {config.kind_for(view)!r} manager is "
                f"{level}, below the {algorithm_cls.requires_level} that "
                f"merge_algorithm {config.merge_algorithm!r} requires "
                f"('auto' picks the algorithm by the weakest level)"
            )
    return algorithm_cls(views, name=name, **config.arguments_for(algorithm_cls))
