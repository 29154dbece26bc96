"""Distributing the merge process (§6.1).

"The most straightforward way of splitting is to first partition view
managers into groups such that base relations used in the views of one
group are disjoint with those used in the views of other groups.  Then
each group of views is assigned one merge process."

:func:`partition_views` computes exactly those groups: connected
components of the bipartite view/base-relation sharing graph (union-find —
no external dependency).  The system builder assigns one
:class:`~repro.merge.process.MergeProcess` per group and routes each
``REL_i`` (restricted to the group) plus the group's action lists to it.
Updates touching relations of different groups never interact, so the
groups' warehouse transactions are always independent and MVC is preserved
without cross-merge coordination.

``max_groups`` coalesces the finest partition into at most that many
groups by repeatedly merging the two cheapest groups, where "cheap" is
the summed :func:`estimate_plan_cost` of the member views — a static
proxy for the per-update maintenance work a merge process will carry.
For cost-balanced *placement* of groups onto a fixed shard fleet (stable
under group and shard churn), see :mod:`repro.merge.sharding`.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping, Sequence

from repro.errors import MergeError
from repro.relational.expressions import (
    Aggregate,
    BaseRelation,
    Expression,
    Join,
    Project,
    Select,
    ViewDefinition,
)


class _UnionFind:
    """Minimal union-find over arbitrary hashable items.

    ``find`` is iterative with full path compression: the first pass
    walks to the root, the second re-points every node on the path
    directly at it.  (A recursive find blows Python's recursion limit
    once a single connected component grows past ~1000 members.)
    """

    def __init__(self) -> None:
        self._parent: dict[object, object] = {}

    def find(self, item: object) -> object:
        parent = self._parent
        root = item
        while True:
            above = parent.setdefault(root, root)
            if above == root:
                break
            root = above
        while item != root:
            item, parent[item] = parent[item], root
        return root

    def union(self, a: object, b: object) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self._parent[root_b] = root_a


#: static per-node weights for :func:`estimate_plan_cost`.  A join costs
#: the most (two index probes plus delta×delta work per update), an
#: aggregate keeps group state, selects/projects are per-row filters.
_NODE_COST = {
    BaseRelation: 1.0,
    Select: 0.2,
    Project: 0.2,
    Join: 2.0,
    Aggregate: 1.5,
}


def estimate_plan_cost(definition: ViewDefinition) -> float:
    """A static cost proxy for maintaining ``definition``.

    Walks the expression tree once and sums per-node weights.  The
    absolute scale is meaningless; what matters is that a three-way join
    view weighs more than a bare ``SELECT * FROM Q``, so coalescing and
    shard placement balance *work*, not view counts.
    """
    total = 0.0
    stack: list[Expression] = [definition.expression]
    while stack:
        node = stack.pop()
        total += _NODE_COST.get(type(node), 0.5)
        if isinstance(node, Join):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, (Select, Project, Aggregate)):
            stack.append(node.child)
    return total


def partition_views(
    definitions: Sequence[ViewDefinition],
    max_groups: int | None = None,
) -> list[tuple[str, ...]]:
    """Group views so groups share no base relations.

    Returns groups as tuples of view names, each sorted, the groups
    ordered by their first view name.  ``max_groups`` optionally coalesces
    the finest partition into at most that many groups (merging the
    cheapest groups first, by estimated plan cost) — useful when running
    one merge process per group would be too many processes.
    """
    if not definitions:
        raise MergeError("cannot partition zero views")
    names = [d.name for d in definitions]
    if len(set(names)) != len(names):
        raise MergeError(f"duplicate view names: {names}")
    uf = _UnionFind()
    for definition in definitions:
        view_key = ("view", definition.name)
        uf.find(view_key)
        for relation in definition.base_relations():
            uf.union(view_key, ("rel", relation))
    groups: dict[object, list[str]] = {}
    for definition in definitions:
        root = uf.find(("view", definition.name))
        groups.setdefault(root, []).append(definition.name)
    result = sorted(
        (tuple(sorted(views)) for views in groups.values()),
        key=lambda group: group[0],
    )
    if max_groups is not None and max_groups >= 1 and len(result) > max_groups:
        costs = {d.name: estimate_plan_cost(d) for d in definitions}
        result = _coalesce(result, max_groups, costs)
    return result


def _coalesce(
    groups: list[tuple[str, ...]],
    max_groups: int,
    view_costs: Mapping[str, float],
) -> list[tuple[str, ...]]:
    """Merge the cheapest groups until at most ``max_groups`` remain.

    Repeatedly pops the two lowest-cost groups off a heap and pushes
    their union — O(G log G) overall, versus the old re-sort-per-
    iteration O(G² log G).  Keying the heap by summed estimated plan
    cost (first-view name as tiebreak, for determinism) balances the
    *work* each eventual merge process carries; the old view-count key
    would pair a ten-way-join group with another heavy group just
    because both held few views.
    """
    heap = [
        (sum(view_costs.get(v, 1.0) for v in group), group[0], list(group))
        for group in groups
    ]
    heapq.heapify(heap)
    while len(heap) > max_groups:
        cost_a, _, views_a = heapq.heappop(heap)
        cost_b, _, views_b = heapq.heappop(heap)
        views_a.extend(views_b)
        heapq.heappush(heap, (cost_a + cost_b, min(views_a), views_a))
    return sorted(
        (tuple(sorted(views)) for _cost, _tie, views in heap),
        key=lambda group: group[0],
    )


def view_to_group_map(
    groups: Iterable[tuple[str, ...]],
) -> dict[str, tuple[str, ...]]:
    """Precomputed view → group lookup table.

    Build this once and index it per view: O(V) total, where scanning the
    groups per lookup is O(V·G) in a routing loop.
    """
    mapping: dict[str, tuple[str, ...]] = {}
    for group in groups:
        for view in group:
            mapping[view] = group
    return mapping
