"""The merge process: MVC coordination between view managers and warehouse.

This package contains the paper's central contribution:

* :class:`ViewUpdateTable` (VUT) — the two-dimensional table of §4.1 whose
  entries are colored white / red / gray / black (plus the ``state`` field
  added for PA in §5.1).
* :class:`SimplePaintingAlgorithm` (SPA, §4) — merge algorithm for
  *complete* view managers; MVC-complete and prompt.
* :class:`PaintingAlgorithm` (PA, §5) — merge algorithm for *strongly
  consistent* view managers; MVC-strongly-consistent and prompt.
* Pass-through and complete-N merge policies (§6.3), and
  :func:`select_algorithm` implementing the weakest-level rule for mixed
  view-manager fleets, beside :func:`promise`, what a fleet then promises.
* Submission policies (§4.3) controlling warehouse commit order:
  sequential, dependency-sequenced, DBMS-dependency, batching (BWT), and
  the deliberately unsafe eager policy that exhibits the §4.3 hazard.
* :func:`partition_views` (§6.1) — splitting the merge work across several
  merge processes along shared-base-relation boundaries, and
  :class:`ShardRouter` / :func:`shard_view_groups` — consistent-hash,
  cost-balanced placement of those groups on a fixed merge-shard fleet.

The algorithms are plain (simulator-free) classes driven by
``receive_rel`` / ``receive_action_list`` events; :class:`MergeProcess`
wraps one of them as a simulated Figure-1 process.
"""

from importlib import import_module

#: module -> the names the package exports from it, each imported on first
#: use (PEP 562): a run that routes no shards loads no shard router.
_EXPORTS = {
    "repro.merge.vut": ("Color", "Entry", "ViewUpdateTable"),
    "repro.merge.base": ("MergeAlgorithm", "ReadyUnit"),
    "repro.merge.spa": ("SimplePaintingAlgorithm",),
    "repro.merge.pa": ("PaintingAlgorithm",),
    "repro.merge.passthrough": ("PassThroughMerge",),
    "repro.merge.complete_n": ("CompleteNMerge",),
    "repro.merge.selection": ("promise", "select_algorithm", "weakest_level"),
    "repro.merge.submission": (
        "SubmissionPolicy", "EagerPolicy", "SequentialPolicy",
        "DependencySequencedPolicy", "DbmsDependencyPolicy", "BatchingPolicy",
    ),
    "repro.merge.process": ("MergeProcess",),
    "repro.merge.sharding": ("ShardAssignment", "ShardRouter", "shard_view_groups"),
    "repro.merge.distributed": (
        "estimate_plan_cost", "partition_views", "view_to_group_map",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str) -> object:
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
