"""Opt-in plan/kernel profiler for compiled maintenance plans.

This profiler says where a plan's propagation *time* goes.  When enabled
on a :class:`~repro.relational.plan.MaintenancePlan`, every columnar
operator node records per call:

* call count,
* **exclusive** nanoseconds (child-delta time excluded — each node times
  only its own kernel work),
* rows in (child delta size) and rows out (emitted delta size).

The hook rides the existing staging-dict protocol: the plan drops the
active profiler under :data:`PROF_KEY` when it stages a batch, and each
node's ``delta`` picks it up with one dict lookup — when profiling is
off, that lookup (against a miss) is the entire overhead.

Results accumulate here and publish into a
:class:`~repro.obs.registry.MetricsRegistry` as monotonic counters
(``plan_node_calls`` / ``plan_node_time_ns`` / ``plan_node_rows_in`` /
``plan_node_rows_out``, labelled by node).  Publishing is *delta-based*:
each call emits only the increment since the previous publish, so the
flush :class:`~repro.system.builder.WarehouseSystem` makes after every
drain and again on close repeats freely without double-counting.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry

#: staging-dict key carrying the active profiler through a plan's nodes.
#: The staging dict otherwise holds only ``id(node)`` keys (aux-store
#: deltas and aggregate states for ``advance``), so a string sentinel
#: can never collide.
PROF_KEY = "__profiler__"

#: registry counter families the profiler publishes (index-matched to
#: the per-node stat vector [calls, ns, rows_in, rows_out])
_NODE_FAMILIES = (
    "plan_node_calls",
    "plan_node_time_ns",
    "plan_node_rows_in",
    "plan_node_rows_out",
)


class PlanProfiler:
    """Accumulates per-node timing for one plan or one plan library."""

    def __init__(self) -> None:
        # id(node) -> [label, calls, ns, rows_in, rows_out]
        self._nodes: dict[int, list] = {}
        self._label_uses: dict[str, int] = {}
        # (family, label) -> cumulative value already published
        self._published: dict[tuple[str, str], float] = {}

    def node(
        self, node: object, ns: int, rows_in: int, rows_out: int
    ) -> None:
        """Record one ``delta`` call on ``node`` (exclusive time)."""
        entry = self._nodes.get(id(node))
        if entry is None:
            head = node.describe(0)[0].strip()
            uses = self._label_uses.get(head, 0)
            self._label_uses[head] = uses + 1
            label = head if not uses else f"{head}#{uses}"
            entry = self._nodes[id(node)] = [label, 0, 0, 0, 0]
        entry[1] += 1
        entry[2] += ns
        entry[3] += rows_in
        entry[4] += rows_out

    @property
    def enabled_nodes(self) -> int:
        """Distinct nodes that have recorded at least one call."""
        return len(self._nodes)

    def stats(self) -> dict[str, dict]:
        """``{node_label: {calls, ns, rows_in, rows_out}}``, heaviest first."""
        out: dict[str, dict] = {}
        for label, calls, ns, rows_in, rows_out in sorted(
            self._nodes.values(), key=lambda e: -e[2]
        ):
            out[label] = {
                "calls": calls,
                "ns": ns,
                "rows_in": rows_in,
                "rows_out": rows_out,
            }
        return out

    # -- publication ---------------------------------------------------------
    def publish_into(self, registry: MetricsRegistry) -> int:
        """Fold accumulated stats into ``registry`` as counters.

        Emits only the delta since the previous publish per (family,
        node) pair — idempotent when nothing new was recorded, safe to
        call after every run *and* at close.  Returns instruments bumped.
        """
        bumped = 0
        for label, calls, ns, rows_in, rows_out in self._nodes.values():
            for family, value in zip(
                _NODE_FAMILIES, (calls, ns, rows_in, rows_out)
            ):
                key = (family, label)
                prior = self._published.get(key, 0.0)
                if value > prior:
                    registry.counter(family, node=label).inc(value - prior)
                    self._published[key] = float(value)
                    bumped += 1
        return bumped


def format_stats(stats: dict[str, dict]) -> str:
    """:meth:`PlanProfiler.stats` as a table, heaviest node first: where
    propagation time goes."""
    if not stats:
        return "plan profiler: no propagations recorded"
    total_ns = sum(entry["ns"] for entry in stats.values()) or 1
    lines = [
        f"{'node':<52} {'calls':>7} {'ms':>9} {'%':>6} "
        f"{'rows_in':>9} {'rows_out':>9}"
    ]
    for label, entry in sorted(stats.items(), key=lambda item: -item[1]["ns"]):
        lines.append(
            f"{label[:52]:<52} {entry['calls']:>7} "
            f"{entry['ns'] / 1e6:>9.3f} "
            f"{100.0 * entry['ns'] / total_ns:>6.1f} "
            f"{entry['rows_in']:>9} {entry['rows_out']:>9}"
        )
    return "\n".join(lines)


__all__ = ["PROF_KEY", "PlanProfiler", "format_stats"]
