"""Sharded merge: consistent-hash placement of §6.1 view groups.

:func:`~repro.merge.distributed.partition_views` yields the *finest*
legal split of the merge work — the connected components of the
view/base-relation sharing graph.  At warehouse scale (hundreds of
views) that is far more components than one wants merge processes, so
the components must be packed onto a fixed fleet of N shards.  Any union
of distinct components is still base-relation-disjoint from any other
union, so every packing preserves the §6.1 independence argument and
therefore MVC; the packing only decides *load balance* and *stability*.

:class:`ShardRouter` implements consistent hashing with bounded loads
(Mirrokni et al.): each shard owns ``replicas`` virtual points on a hash
ring, a view group hashes to a point by its anchor (lexicographically
first) view name, and the group walks clockwise to the first shard whose
accumulated *estimated plan cost* stays under ``(1 + load_slack) x`` the
fair share.  Two properties fall out:

* **stability** — adding or removing a group, or placing the same groups
  on a fleet with one shard more or less, moves only the groups whose
  ring interval changed, not an arbitrary re-shuffle the way modulo
  hashing would;
* **cost balance** — the walk is bounded by estimated
  :func:`~repro.merge.distributed.estimate_plan_cost`, not view count,
  so a shard full of three-way-join views is "full" earlier than one
  holding bare selections.

The system builder (``SystemConfig(merge_router="hash")``) uses
:func:`shard_view_groups` to turn N shards into the ``merge_groups``
mapping the integrator already routes by: each shard becomes one merge
process receiving only its own ``REL_i`` restrictions and action lists.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import MergeError
from repro.merge.distributed import estimate_plan_cost, partition_views
from repro.relational.expressions import ViewDefinition


def stable_hash(text: str) -> int:
    """A process-stable 64-bit hash (``hash()`` is salted per process)."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class ShardAssignment:
    """One shard's share of the merge work, as the router placed it."""

    shard: str
    groups: tuple[tuple[str, ...], ...]
    cost: float

    @property
    def views(self) -> tuple[str, ...]:
        return tuple(sorted(v for g in self.groups for v in g))


class ShardRouter:
    """Consistent-hash, cost-bounded placement of view groups on shards.

    The router is deterministic: the same shards, groups and costs always
    produce the same placement, independent of process hash seeds or
    insertion order.
    """

    def __init__(
        self,
        shards: Sequence[str],
        replicas: int = 64,
        load_slack: float = 0.25,
    ) -> None:
        if not shards:
            raise MergeError("a shard router needs at least one shard")
        if len(set(shards)) != len(shards):
            raise MergeError(f"duplicate shard names: {list(shards)}")
        if replicas < 1:
            raise MergeError(f"replicas must be >= 1, got {replicas}")
        if load_slack < 0:
            raise MergeError(f"load_slack must be >= 0, got {load_slack}")
        self.replicas = replicas
        self.load_slack = load_slack
        self._shards = list(shards)
        points = sorted(
            (stable_hash(f"{shard}#{replica}"), shard)
            for shard in self._shards
            for replica in range(replicas)
        )
        self._ring_hashes = [h for h, _ in points]
        self._ring_shards = [s for _, s in points]

    @property
    def shards(self) -> tuple[str, ...]:
        return tuple(self._shards)

    # -- placement ----------------------------------------------------------
    @staticmethod
    def anchor(group: tuple[str, ...]) -> str:
        """The name a group hashes by: its lexicographically first view.

        Anchoring on one member keeps the group's ring position stable
        when *other* members join or leave the component.
        """
        return min(group)

    def _walk(self, key: str):
        """Yield distinct shards ring-clockwise from ``key``'s position."""
        start = bisect.bisect_left(self._ring_hashes, stable_hash(key))
        seen: set[str] = set()
        size = len(self._ring_shards)
        for step in range(size):
            shard = self._ring_shards[(start + step) % size]
            if shard not in seen:
                seen.add(shard)
                yield shard

    def assign(
        self,
        groups: Sequence[tuple[str, ...]],
        costs: Mapping[str, float] | None = None,
    ) -> dict[tuple[str, ...], str]:
        """Place every group on a shard; returns group → shard name.

        ``costs`` maps view name → estimated plan cost (missing views
        count 1.0).  Groups are placed heaviest-first so the bounded-load
        walk sees the hard bin-packing items while every bin is still
        open; each lands on the first ring successor whose load stays
        within ``(1 + load_slack)`` of the fair share.  If every shard is
        at capacity (possible with one giant group), the least-loaded
        shard takes it.
        """
        costs = costs or {}
        group_cost = {
            group: sum(costs.get(view, 1.0) for view in group)
            for group in groups
        }
        total = sum(group_cost.values())
        capacity = (1.0 + self.load_slack) * total / len(self._shards)
        loads: dict[str, float] = {shard: 0.0 for shard in self._shards}
        placement: dict[tuple[str, ...], str] = {}
        ordered = sorted(
            groups, key=lambda g: (-group_cost[g], self.anchor(g))
        )
        for group in ordered:
            cost = group_cost[group]
            chosen = None
            for shard in self._walk(self.anchor(group)):
                if loads[shard] + cost <= capacity:
                    chosen = shard
                    break
            if chosen is None:
                chosen = min(self._shards, key=lambda s: (loads[s], s))
            loads[chosen] += cost
            placement[group] = chosen
        return placement

    def assignments(
        self,
        groups: Sequence[tuple[str, ...]],
        costs: Mapping[str, float] | None = None,
    ) -> list[ShardAssignment]:
        """The placement rolled up per shard (empty shards omitted)."""
        costs = costs or {}
        placement = self.assign(groups, costs)
        per_shard: dict[str, list[tuple[str, ...]]] = {}
        for group, shard in placement.items():
            per_shard.setdefault(shard, []).append(group)
        out = []
        for shard in self._shards:
            owned = sorted(per_shard.get(shard, []))
            if not owned:
                continue
            cost = sum(costs.get(v, 1.0) for g in owned for v in g)
            out.append(ShardAssignment(shard, tuple(owned), cost))
        return out


def groups_by_shard(view_to_merge: Mapping[str, str]) -> dict[str, tuple[str, ...]]:
    """Invert a view → merge-process routing map into per-shard view tuples.

    The canonical grouping every per-shard consumer (the conformance
    oracle's ``shard:`` checks, the MQO report) needs: shard names
    sorted, each shard's views sorted.
    """
    shards: dict[str, list[str]] = {}
    for view, merge_name in view_to_merge.items():
        shards.setdefault(merge_name, []).append(view)
    return {name: tuple(sorted(views)) for name, views in sorted(shards.items())}


def shard_view_groups(
    definitions: Sequence[ViewDefinition],
    shards: int,
    replicas: int = 64,
    load_slack: float = 0.25,
) -> list[tuple[str, ...]]:
    """Pack the finest §6.1 partition onto at most ``shards`` merges.

    Returns merged view groups in the same shape
    :func:`~repro.merge.distributed.partition_views` uses (sorted tuples,
    ordered by first view name) so the system builder can assign one
    merge process per returned group.  Shards that receive no view group
    are dropped — a fleet larger than the number of components simply
    runs fewer merges.
    """
    if shards < 1:
        raise MergeError(f"shards must be >= 1, got {shards}")
    components = partition_views(definitions)
    if shards == 1 or len(components) <= 1:
        return (
            components
            if len(components) <= shards
            else [tuple(sorted(v for g in components for v in g))]
        )
    router = ShardRouter(
        [f"shard{i}" for i in range(shards)],
        replicas=replicas,
        load_slack=load_slack,
    )
    costs = {d.name: estimate_plan_cost(d) for d in definitions}
    merged = [
        tuple(sorted(view for group in a.groups for view in group))
        for a in router.assignments(components, costs)
    ]
    return sorted(merged, key=lambda group: group[0])


__all__ = [
    "ShardAssignment",
    "ShardRouter",
    "groups_by_shard",
    "shard_view_groups",
    "stable_hash",
]
