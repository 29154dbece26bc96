"""The consistency-level lattice and the merge algorithm for a fleet (§2, §6.3).

"When there is a combination of different types of view managers in the
system, it is always possible to use the merge algorithm corresponding to
the view manager guaranteeing the weakest level of consistency.  For
example, if there are both complete and strongly consistent view managers
in a system, a MP can always use PA to guarantee strong consistency."

Everything that compares two levels, or turns what a component declares
into what a warehouse client may rely on, is in this module: the builder
(`WarehouseSystem.expected_level`, the ``requires_level`` check), the
conformance oracle and the sweep all call it.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.errors import MergeError
from repro.merge.base import MergeAlgorithm
from repro.merge.complete_n import CompleteNMerge
from repro.merge.pa import PaintingAlgorithm
from repro.merge.passthrough import PassThroughMerge
from repro.merge.spa import SimplePaintingAlgorithm
from repro.merge.submission import SubmissionPolicy

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
) -> str:
    """The MVC level a merge process delivers to the views beneath it, over
    a warehouse of ``executors`` concurrent executors.

    A policy that does not order commits promises nothing ("broken", as a
    broken manager does) once several executors may reorder them (§4.3).
    """
    if executors > 1 and not policy.orders_commits:
        return "broken"
    level = client_level(algorithm.guarantees_level)
    if level == "complete" and not policy.preserves_completeness:
        level = "strong"  # batching advances several states at once (§4.3)
    return level


def choose_algorithm(
    views: tuple[str, ...],
    levels: Iterable[str],
    name: str = "merge",
) -> MergeAlgorithm:
    """Build the weakest-level-appropriate merge algorithm for ``views``.

    * all managers complete            -> SPA  (MVC-complete)
    * complete-N present               -> PA   (treats blocks as batches)
    * any strongly consistent manager  -> PA   (MVC-strong)
    * any convergent (or broken) one   -> pass-through (convergence only)
    """
    level = weakest_level(levels)
    if level == "complete":
        return SimplePaintingAlgorithm(views, name=name)
    if level in ("strong", "complete-n"):
        return PaintingAlgorithm(views, name=name)
    return PassThroughMerge(views, name=name)
