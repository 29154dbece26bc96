"""View managers: one concurrent process per materialized view.

A view manager receives the sub-sequence of source updates relevant to its
view, computes the incremental changes (its *delta computation*, which
takes time and may require querying base data), and emits action lists
``AL^x_j`` to the merge process (paper §3.3).

Implemented manager classes, by the consistency level they provide:

* :class:`CompleteViewManager` — one action list per update; yields
  *complete* single-view sequences.  Pairs with SPA.
* :class:`StrongViewManager` — batches intertwined updates into one action
  list; yields *strongly consistent* sequences.  Pairs with PA.
* :class:`CompleteNViewManager` — processes updates in fixed groups of N
  (§6.3); pairs with the complete-N merge policy.
* :class:`PeriodicRefreshManager` — periodically replaces the whole view
  (§6.3); appears to the merge process as a strong manager.
* :class:`ConvergentViewManager` — only guarantees eventual correctness
  (§6.3); pairs with the pass-through merge.
* :class:`NaiveViewManager` — deliberately *incorrect*: computes deltas
  against the latest base state without compensation.  Exists to
  demonstrate the intertwined-update anomaly of Example 1 / Problem 3.
"""

from repro.viewmgr.actions import Action, ActionList
from repro.viewmgr.base import ViewManager
from repro.viewmgr.complete import CompleteViewManager
from repro.viewmgr.strong import StrongViewManager
from repro.viewmgr.complete_n import CompleteNViewManager
from repro.viewmgr.periodic import PeriodicRefreshManager
from repro.viewmgr.convergent import ConvergentViewManager
from repro.viewmgr.naive import NaiveViewManager

#: ``SystemConfig.manager_kind`` name -> class, in the order configs and
#: ``--help`` list them.  A new manager declares ``kind`` and ``level`` (and
#: ``config_args``) and is added here; ``SystemConfig`` accepts the name,
#: the builder constructs the class and the merge is chosen from the level.
MANAGERS: dict[str, type[ViewManager]] = {
    cls.kind: cls
    for cls in (
        CompleteViewManager,
        StrongViewManager,
        CompleteNViewManager,
        PeriodicRefreshManager,
        ConvergentViewManager,
        NaiveViewManager,
    )
}

__all__ = [
    "MANAGERS",
    "Action",
    "ActionList",
    "ViewManager",
    "CompleteViewManager",
    "StrongViewManager",
    "CompleteNViewManager",
    "PeriodicRefreshManager",
    "ConvergentViewManager",
    "NaiveViewManager",
]
