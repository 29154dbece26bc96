"""Compiled incremental-maintenance plans (indexed, columnar, vectorized).

``propagate_delta`` (:mod:`repro.relational.delta`) is correct but pays
O(|base|) per update: its join rule evaluates the *entire* opposite side
of every join (``_eval_columnar``) to match it against a delta, and its
aggregate rule folds group state from a full child re-evaluation.  A
:class:`MaintenancePlan` compiles a
:class:`~repro.relational.expressions.ViewDefinition`'s expression once
and keeps auxiliary structures so each update touches only rows matching
the delta:

* **Join inputs are probed, never rebuilt.**  A base-relation input
  probes a lazily-built index on the join attributes; a derived input
  (anything that is not a bare base relation) is materialized once at
  compile time — the self-maintenance style of Aziz & Batool
  (arXiv:1406.7685) — and thereafter maintained incrementally and probed
  through its own index.
* **Aggregates are self-maintained.**  Count/sum group-bys keep a
  per-group state table (row count + running sums), so an update needs
  only the child delta and the touched groups' old states.
* **Schema inference and join attributes are computed once**, at compile
  time, instead of per update.

Per-update cost drops from O(|base|) to O(|delta| x matching rows).

**One node family.**  Deltas flow between nodes as layout-positioned
**value tuples** with signed counts; predicates/projections/join
merges/aggregate folds run as kernels compiled once per (operator,
layout) by :mod:`repro.relational.columnar`; probes read
:class:`~repro.relational.columnar.ColumnIndex` structures on each
relation's columnar store.  A batch comes in and a view delta goes out
as a :class:`~repro.relational.delta.Delta`, which holds that same form:
no ``Row`` is built on either side.
Every node answers ``delta`` / ``advance`` / ``rebuild`` / ``describe``,
join inputs also ``probe`` / ``probe_table``.  ``docs/engine.md`` walks
through the layout; the test suite holds every plan delta equal to both
``propagate_delta`` and a full recompute.

Usage (the pattern :class:`~repro.relational.maintain.MaterializedView`
and the cached view managers follow)::

    plan = MaintenancePlan(definition.expression, db)
    view_delta = plan.propagate(base_deltas)   # pure, reads pre-state
    db.apply_deltas(base_deltas)               # advance the base data
    plan.advance()                             # advance the aux state

``propagate`` never mutates, so a failed batch leaves everything
untouched; ``advance`` consumes the deltas staged by the most recent
``propagate``.  An :class:`~repro.relational.expressions.Expression`
subclass the compiler has no node for raises :class:`PlanUnsupported` at
compile time (the compiler covers all five built-in node classes, so this
only rejects a caller-supplied one).

**Multi-query optimization** (:class:`PlanLibrary`): views that live in
the same merge shard usually share structure — the same join, the same
selected prefix — and compiling each plan in isolation repeats that work
per view per update.  A library compiles plans through a common-
subexpression cache, so equal subexpressions (same expression, same
probe role) become the *same* node object across plans: one delta probe
feeds every view that reads it.  Per-batch node results are memoized in
the shared staging dict and shared stateful nodes advance exactly once
(Mistry/Roy/Ramamritham/Sudarshan, "Materialized View Selection and
Maintenance Using Multi-Query Optimization", PODS/ICDE lineage — see
PAPERS.md).  Library-compiled plans must be driven through
:meth:`PlanLibrary.propagate_all` / :meth:`PlanLibrary.advance_all`; the
library's :meth:`~PlanLibrary.report` gives the compile-time shared-node
counts.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns
from typing import Mapping

from repro.errors import ExpressionError, SchemaError
from repro.obs.profiler import PROF_KEY
from repro.relational.columnar import (
    EMPTY_COUNTS,
    AggregateKernel,
    ColumnarRelation,
    _eval_columnar,
    compile_filter,
    compile_join_probe,
    compile_merge,
    compile_projection,
    join_counts_columnar,
    make_key,
)
from repro.relational.delta import Delta
from repro.relational.expressions import (
    Aggregate,
    BaseRelation,
    Expression,
    Join,
    Project,
    Select,
)
from repro.relational.relation import Relation


class PlanUnsupported(ExpressionError):
    """The expression contains a node the plan compiler cannot handle."""


# ---------------------------------------------------------------------------
# plan nodes (protocol: delta / probe / advance / rebuild / describe)
# ---------------------------------------------------------------------------

class _CBaseNode:
    """A base-relation leaf over the relation's columnar store.

    ``delta`` hands out the tuple bag of the batch's :class:`Delta` for
    this relation as it is (a delta of another layout is a
    :class:`~repro.errors.SchemaError`).  Probes re-fetch the columnar
    store and its :class:`ColumnIndex` per call, so a ``clear``/
    ``replace_all`` (which starts a fresh store) can never leave a stale
    probe structure behind.
    """

    __slots__ = ("name", "relation", "layout", "probe_key", "probes")

    def __init__(self, name: str, relation: Relation, probe_key=None) -> None:
        if relation.schema is None:
            raise PlanUnsupported(
                f"columnar engine needs a schema on base relation {name!r}"
            )
        self.name = name
        self.relation = relation
        self.layout = relation.schema.layout
        self.probe_key = probe_key
        self.probes = 0

    def delta(self, deltas: Mapping[str, Delta], staged: dict) -> Mapping[tuple, int]:
        delta = deltas.get(self.name)
        if not delta:
            return EMPTY_COUNTS
        if delta.layout != self.layout:
            raise SchemaError(
                f"delta for {self.name!r} is laid out as {delta.layout}, "
                f"the relation as {self.layout}"
            )
        return delta._counts

    def probe(self, key) -> Mapping[tuple, int]:
        self.probes += 1
        return self.relation.columnar().index_on(self.probe_key).bucket(key)

    def probe_table(self) -> Mapping[object, Mapping[tuple, int]]:
        """The probe index's raw bucket mapping, for fused probe loops.

        Callers account probes themselves (one per delta tuple driven
        through the loop, matching :meth:`probe`'s per-key counting).
        """
        return self.relation.columnar().index_on(self.probe_key).table()

    def advance(self, staged: dict) -> None:
        pass  # the caller advances the base database itself

    def rebuild(self) -> None:
        pass

    def describe(self, depth: int) -> list[str]:
        probe = f" [indexed on {self.probe_key}]" if self.probe_key is not None else ""
        return ["  " * depth + f"base {self.name}{probe}"]


class _CSelectNode:
    """Vectorized selection: one compiled batch filter, no per-row calls."""

    __slots__ = ("predicate", "child", "layout", "_filter")

    def __init__(self, predicate, child) -> None:
        self.predicate = predicate
        self.child = child
        self.layout = child.layout
        self._filter = compile_filter(predicate, child.layout)

    def delta(self, deltas, staged) -> Mapping[tuple, int]:
        memo = ("delta", id(self))
        if memo in staged:
            return staged[memo]
        child = self.child.delta(deltas, staged)
        prof = staged.get(PROF_KEY)
        t0 = perf_counter_ns() if prof is not None else 0
        out: Mapping[tuple, int] = EMPTY_COUNTS
        if child:
            out = child if self._filter is None else self._filter(child)
        if prof is not None:
            prof.node(self, perf_counter_ns() - t0, len(child), len(out))
        staged[memo] = out
        return out

    def advance(self, staged) -> None:
        self.child.advance(staged)

    def rebuild(self) -> None:
        self.child.rebuild()

    def describe(self, depth: int) -> list[str]:
        return ["  " * depth + f"select[{self.predicate}]"] + self.child.describe(depth + 1)


class _CProjectNode:
    """Vectorized bag projection: positional re-keying, counts folded."""

    __slots__ = ("names", "child", "layout", "_project")

    def __init__(self, names, child) -> None:
        self.names = names
        self.child = child
        self.layout, self._project = compile_projection(child.layout, names)

    def delta(self, deltas, staged) -> Mapping[tuple, int]:
        memo = ("delta", id(self))
        if memo in staged:
            return staged[memo]
        child = self.child.delta(deltas, staged)
        prof = staged.get(PROF_KEY)
        t0 = perf_counter_ns() if prof is not None else 0
        out: Mapping[tuple, int] = EMPTY_COUNTS
        if child:
            out = self._project(child)
        if prof is not None:
            prof.node(self, perf_counter_ns() - t0, len(child), len(out))
        staged[memo] = out
        return out

    def advance(self, staged) -> None:
        self.child.advance(staged)

    def rebuild(self) -> None:
        self.child.rebuild()

    def describe(self, depth: int) -> list[str]:
        names = ", ".join(self.names)
        return ["  " * depth + f"project[{names}]"] + self.child.describe(depth + 1)


class _CMatInput:
    """A join input materialized as an auxiliary columnar relation.

    ``delta`` computes the wrapped subexpression's delta and stages it;
    ``advance`` applies the staged tuple bag to the auxiliary store in
    one validated batch (:meth:`ColumnarRelation.apply_signed`), whose
    :class:`ColumnIndex` on the join attributes is what ``probe`` reads.
    """

    __slots__ = ("expr", "node", "store", "layout", "probe_key", "probes", "_db")

    def __init__(self, expr: Expression, node, db, probe_key, seed=None) -> None:
        self.expr = expr
        self.node = node
        self._db = db
        self.probe_key = probe_key
        self.probes = 0
        # Warm start (a cache artifact or the build's memo, whose provenance
        # is the caller's problem): copy it, skip the cold compile's evaluation.
        layout, counts = seed if seed is not None else _eval_columnar(expr, db)
        self.layout = tuple(layout)
        self.store = ColumnarRelation(self.layout, counts)

    def delta(self, deltas, staged) -> Mapping[tuple, int]:
        if id(self) in staged:
            return staged[id(self)]
        counts = self.node.delta(deltas, staged)
        staged[id(self)] = counts
        return counts

    def probe(self, key) -> Mapping[tuple, int]:
        self.probes += 1
        return self.store.index_on(self.probe_key).bucket(key)

    def probe_table(self) -> Mapping[object, Mapping[tuple, int]]:
        """Raw bucket mapping (see :meth:`_CBaseNode.probe_table`)."""
        return self.store.index_on(self.probe_key).table()

    def advance(self, staged) -> None:
        self.node.advance(staged)
        # ``pop``: when plans share this node (PlanLibrary), the first
        # owner's advance consumes the staged delta and later owners'
        # advances are no-ops — never a double application.
        counts = staged.pop(id(self), None)
        if counts:
            # apply_signed validates deletions — any underflow here means
            # the base data was mutated behind the plan's back.
            self.store.apply_signed(counts)

    def rebuild(self) -> None:
        self.node.rebuild()
        _, counts = _eval_columnar(self.expr, self._db)
        self.store = ColumnarRelation(self.layout, counts)

    def describe(self, depth: int) -> list[str]:
        head = ("  " * depth
                + f"aux materialization [indexed on {self.probe_key}, "
                + f"{len(self.store)} rows] of:")
        return [head] + self.node.describe(depth + 1)


class _CJoinNode:
    """d(L |><| R) = dL |><| R_old + L_old |><| dR + dL |><| dR.

    The old sides are never rebuilt: each single-delta term probes the
    opposite input's column index with only the delta tuples' join keys.
    Key extraction and the output-tuple merge are compiled positionally
    at plan-compile time — no attribute names, no ``Row.merge``.
    """

    __slots__ = ("left", "right", "on", "layout",
                 "_left_key", "_right_key", "_merge",
                 "_probe_left", "_probe_right")

    def __init__(self, left, right, on) -> None:
        self.left = left
        self.right = right
        self.on = on
        self.layout, self._merge = compile_merge(left.layout, right.layout)
        self._left_key = make_key(left.layout, on)
        self._right_key = make_key(right.layout, on)
        self._probe_left = compile_join_probe(left.layout, right.layout, on, True)
        self._probe_right = compile_join_probe(right.layout, left.layout, on, False)

    def delta(self, deltas, staged) -> Mapping[tuple, int]:
        memo = ("delta", id(self))
        if memo in staged:
            return staged[memo]
        d_left = self.left.delta(deltas, staged)
        d_right = self.right.delta(deltas, staged)
        prof = staged.get(PROF_KEY)
        t0 = perf_counter_ns() if prof is not None else 0
        rows_in = len(d_left) + len(d_right)
        if not d_left and not d_right:
            if prof is not None:
                prof.node(self, perf_counter_ns() - t0, 0, 0)
            staged[memo] = EMPTY_COUNTS
            return EMPTY_COUNTS
        if not d_right:
            # single-sided batch (the common case): one fused probe loop,
            # plain stores, provably no zero counts to filter
            result: dict[tuple, int] = {}
            self._probe_left(d_left.items(), self.right.probe_table().get, result)
            self.right.probes += len(d_left)
            if prof is not None:
                prof.node(self, perf_counter_ns() - t0, rows_in, len(result))
            staged[memo] = result
            return result
        if not d_left:
            result = {}
            self._probe_right(d_right.items(), self.left.probe_table().get, result)
            self.left.probes += len(d_right)
            if prof is not None:
                prof.node(self, perf_counter_ns() - t0, rows_in, len(result))
            staged[memo] = result
            return result
        merge = self._merge
        out: dict[tuple, int] = defaultdict(int)
        key_of, probe = self._left_key, self.right.probe
        for t, count in d_left.items():
            for other, other_count in probe(key_of(t)).items():
                out[merge(t, other)] += count * other_count
        key_of, probe = self._right_key, self.left.probe
        for t, count in d_right.items():
            for other, other_count in probe(key_of(t)).items():
                out[merge(other, t)] += count * other_count
        cross = join_counts_columnar(
            d_left, d_right, self._left_key, self._right_key, merge
        )
        for t, count in cross.items():
            out[t] += count
        result = {t: c for t, c in out.items() if c}
        if prof is not None:
            prof.node(self, perf_counter_ns() - t0, rows_in, len(result))
        staged[memo] = result
        return result

    def advance(self, staged) -> None:
        self.left.advance(staged)
        self.right.advance(staged)

    def rebuild(self) -> None:
        self.left.rebuild()
        self.right.rebuild()

    def describe(self, depth: int) -> list[str]:
        head = "  " * depth + f"join[on={self.on}]"
        return ([head] + self.left.describe(depth + 1)
                + self.right.describe(depth + 1))


class _CAggregateNode:
    """Self-maintained count/sum group-by over the compiled fold kernel.

    Keeps one state vector per live group: ``[row_count, agg_1, ...]``.
    An update folds the child delta's per-group contributions into the
    old states (one synthesized loop — see
    :class:`~repro.relational.columnar.AggregateKernel`) and emits
    old-tuple deletions / new-tuple insertions for exactly the touched
    groups.
    """

    __slots__ = ("expr", "child", "layout", "_kernel", "_groups", "_db")

    def __init__(self, expr: Aggregate, child, db, seed_groups=None) -> None:
        self.expr = expr
        self.child = child
        self._db = db
        self._kernel = AggregateKernel(expr, child.layout)
        self.layout = self._kernel.layout
        self._groups: dict[tuple, list] = {}
        if seed_groups is not None:
            # Warm start: adopt a copy of the group states (a seed stays
            # immutable) instead of evaluating the child.
            self._groups = {key: list(state) for key, state in seed_groups.items()}
        else:
            self._kernel.accumulate(self._groups, _eval_columnar(expr.child, db)[1])

    def delta(self, deltas, staged) -> Mapping[tuple, int]:
        memo = ("delta", id(self))
        if memo in staged:
            return staged[memo]
        d_child = self.child.delta(deltas, staged)
        prof = staged.get(PROF_KEY)
        t0 = perf_counter_ns() if prof is not None else 0
        if not d_child:
            if prof is not None:
                prof.node(self, perf_counter_ns() - t0, 0, 0)
            staged[memo] = EMPTY_COUNTS
            return EMPTY_COUNTS
        contributions: dict[tuple, list] = {}
        self._kernel.accumulate(contributions, d_child)
        out, new_states = self._kernel.delta_pass(self._groups, contributions)
        staged[id(self)] = new_states
        result = {t: c for t, c in out.items() if c}
        if prof is not None:
            prof.node(self, perf_counter_ns() - t0, len(d_child), len(result))
        staged[memo] = result
        return result

    def advance(self, staged) -> None:
        self.child.advance(staged)
        # ``pop`` for the same shared-node reason as _CMatInput.advance.
        for key, state in staged.pop(id(self), {}).items():
            if state[0] != 0:
                self._groups[key] = state
            else:
                self._groups.pop(key, None)

    def rebuild(self) -> None:
        self.child.rebuild()
        self._groups = {}
        _, counts = _eval_columnar(self.expr.child, self._db)
        self._kernel.accumulate(self._groups, counts)

    def describe(self, depth: int) -> list[str]:
        aggs = ", ".join(str(a) for a in self.expr.aggregates)
        head = ("  " * depth
                + f"aggregate[by={self.expr.group_by}; {aggs}] "
                + f"[{len(self._groups)} group states]")
        return [head] + self.child.describe(depth + 1)


def _as_deltas(database, batch: Mapping[str, object]) -> dict[str, Delta]:
    """``batch`` with every raw ``{tuple: signed count}`` mapping read as a
    :class:`Delta` in the layout of the relation it names."""
    return {
        name: delta
        if isinstance(delta, Delta)
        else Delta(delta, database.relation(name).schema.layout)
        for name, delta in batch.items()
    }


class MaintenancePlan:
    """An expression compiled for indexed incremental maintenance.

    Compilation evaluates each auxiliary materialization once (O(|base|),
    amortized over the view's lifetime); every subsequent update costs
    O(|delta| x matching rows).  The plan assumes the database advances
    only through the coordinated ``propagate``/``apply_deltas``/
    ``advance`` sequence — after any out-of-band mutation call
    :meth:`rebuild`.
    """

    def __init__(
        self,
        expression: Expression,
        database,
        library: "PlanLibrary | None" = None,
        preload: Mapping[str, object] | None = None,
    ) -> None:
        self.expression = expression
        self._db = database
        self._library = library
        #: every node this plan reads, interned or private (may contain
        #: duplicates when a subexpression occurs twice in the tree).
        self._nodes: list = []
        self._schemas = dict(database.schemas)
        self.schema = expression.infer_schema(self._schemas)
        # Warm-start auxiliary state (see export_aux): only private
        # compiles consume it — interned library nodes may be shared
        # with plans the seed knows nothing about.
        self._preload = dict(preload) if preload and library is None else {}
        self._root = self._compile(expression)
        self._preload = {}
        self._staged: dict = {}
        self.propagations = 0
        #: opt-in per-node profiler (see :mod:`repro.obs.profiler`); when
        #: set, every propagate stages it under ``PROF_KEY`` so the
        #: operator nodes record exclusive timings and row volumes.
        self.profiler = None

    def enable_profiling(self, profiler=None):
        """Attach a :class:`~repro.obs.profiler.PlanProfiler` (made if None).

        Library-compiled plans should enable profiling on the
        :class:`PlanLibrary` instead — the library stages one profiler
        for the whole round.  Returns the active profiler.
        """
        if profiler is None:
            from repro.obs.profiler import PlanProfiler

            profiler = PlanProfiler()
        self.profiler = profiler
        return profiler

    # -- compilation -------------------------------------------------------
    def _intern(self, key: tuple, build):
        """One node per distinct (expression, probe role) across the library.

        Without a library every plan builds private nodes; with one,
        equal keys resolve to the same object so plans share delta
        evaluation, probes and auxiliary state.
        """
        if self._library is None:
            node = build()
        else:
            node = self._library._intern(key, build)
        self._nodes.append(node)
        return node

    def _compile(self, expr: Expression):
        return self._intern(("node", expr), lambda: self._build(expr))

    def _build(self, expr: Expression):
        if isinstance(expr, BaseRelation):
            return _CBaseNode(expr.name, self._db.relation(expr.name))
        if isinstance(expr, Select):
            return _CSelectNode(expr.predicate, self._compile(expr.child))
        if isinstance(expr, Project):
            return _CProjectNode(expr.names, self._compile(expr.child))
        if isinstance(expr, Join):
            on = expr.join_attributes(self._schemas)
            left = self._compile_input(expr.left, on)
            right = self._compile_input(expr.right, on)
            return _CJoinNode(left, right, on)
        if isinstance(expr, Aggregate):
            child = self._compile(expr.child)
            seed_groups = self._preload.get(_preload_key(expr))
            return _CAggregateNode(expr, child, self._db, seed_groups)
        raise PlanUnsupported(
            f"no maintenance plan for {type(expr).__name__} nodes"
        )

    def _compile_input(self, expr: Expression, on: tuple[str, ...]):
        """Compile a join operand: indexed base probe or aux materialization."""
        if isinstance(expr, BaseRelation):
            build = lambda: _CBaseNode(
                expr.name, self._db.relation(expr.name), probe_key=on
            )
        else:
            seed = self._preload.get(_preload_key(expr, on))
            build = lambda: _CMatInput(
                expr, self._compile(expr), self._db, on, seed
            )
        return self._intern(("input", expr, on), build)

    # -- maintenance -------------------------------------------------------
    def propagate(self, base_deltas: Mapping[str, Delta]) -> Delta:
        """The view delta induced by ``base_deltas`` on the pre-state.

        Pure: neither the database nor the plan's auxiliary state is
        mutated.  Stages the per-subexpression deltas that a following
        :meth:`advance` will fold into the auxiliary structures.
        """
        return self._round(_as_deltas(self._db, base_deltas), {}, self.profiler)

    def propagate_counts(
        self, base_counts: Mapping[str, Mapping[tuple, int]]
    ) -> Delta:
        """:meth:`propagate` for a batch that never was a :class:`Delta`:
        ``base_counts`` maps relation names to signed counts keyed by
        value tuples in the relation's layout (attribute names sorted).
        """
        return self._round(_as_deltas(self._db, base_counts), {}, self.profiler)

    def _round(self, deltas: Mapping[str, Delta], staged: dict, profiler) -> Delta:
        """One propagation against ``staged`` (a library shares one
        staging dict, and its profiler, between the plans of a round)."""
        if profiler is not None:
            staged[PROF_KEY] = profiler
        self._staged = staged
        counts = self._root.delta(deltas, staged)
        self.propagations += 1
        # A non-empty result is an operator node's own zero-free dict or,
        # under a pass-through root, the bag of one of the batch's
        # (immutable) deltas: safe to share either way.
        return Delta._adopt(self._root.layout, counts) if counts else Delta()

    def advance(self) -> None:
        """Fold the most recent :meth:`propagate`'s staged deltas in.

        Call exactly once per propagated batch, alongside applying the
        same base deltas to the database.  A propagate whose batch was
        abandoned is simply superseded by the next propagate.
        """
        self._root.advance(self._staged)
        self._staged = {}

    def rebuild(self) -> None:
        """Recompute all auxiliary state from the database (post-drift)."""
        self._staged = {}
        self._root.rebuild()

    def export_aux(self) -> dict[str, object]:
        """The plan's auxiliary state as plain data (for ``repro.cache``).

        Covers the two expensive-to-rebuild node kinds: auxiliary join
        materializations (``input|<on>|<expr>`` → ``(layout, counts)``)
        and aggregate group states (``agg|<expr>`` → ``{key: state}``).
        Feeding the result back as ``preload=`` to a fresh compile of the
        same expression over the same base state skips their evaluation.
        """
        out: dict[str, object] = {}
        for node in self._nodes:
            if isinstance(node, _CMatInput):
                out[_preload_key(node.expr, node.probe_key)] = (
                    tuple(node.layout),
                    dict(node.store.counts_view()),
                )
            elif isinstance(node, _CAggregateNode):
                out[_preload_key(node.expr)] = {
                    key: list(state)
                    for key, state in node._groups.items()
                }
        return out

    def contents(self) -> Relation | None:
        """An aggregate root's output, off its group states (else ``None``)."""
        root = self._root
        if not isinstance(root, _CAggregateNode):
            return None
        counts = {root._kernel._build(k, s): 1 for k, s in root._groups.items()}
        return Relation.from_tuple_counts(root.layout, counts, self.schema)

    # -- inspection ---------------------------------------------------------
    def describe(self) -> str:
        """A textual rendering of the compiled plan tree."""
        return "\n".join(self._root.describe(0))

    def node_count(self) -> int:
        """Distinct node objects this plan reads (shared ones count once)."""
        return len({id(node) for node in self._nodes})

    def probe_count(self) -> int:
        """Total index probes issued by this plan's nodes so far.

        Shared nodes report their library-wide probe totals — by design:
        under MQO one probe serves every plan reading the node.
        """
        seen: dict[int, int] = {}
        for node in self._nodes:
            seen[id(node)] = getattr(node, "probes", 0)
        return sum(seen.values())

    def __repr__(self) -> str:
        return (f"MaintenancePlan({self.expression}, "
                f"propagations={self.propagations})")


def warm_start(
    expression: Expression, database, memo: dict | None, skip: set[str]
) -> dict[str, object]:
    """The ``preload=`` mapping :meth:`MaintenancePlan.export_aux` gives
    after compiling ``expression`` over ``database``, evaluated through
    ``memo``; entries over a relation in ``skip`` are left to the compile."""
    out: dict[str, object] = {}
    pending = [(expression, None)]  # with the join key it is an input on
    while pending:
        expr, on = pending.pop()
        if isinstance(expr, BaseRelation):
            continue
        unfiltered = not expr.base_relations() & skip
        if on is not None and unfiltered:
            out[_preload_key(expr, on)] = _eval_columnar(expr, database, memo)
        if isinstance(expr, Join):
            on = expr.join_attributes(database.schemas)
            pending += [(expr.left, on), (expr.right, on)]
            continue
        pending.append((expr.child, None))
        if isinstance(expr, Aggregate) and unfiltered:
            layout, counts = _eval_columnar(expr.child, database, memo)
            out[_preload_key(expr)] = groups = {}
            AggregateKernel(expr, layout).accumulate(groups, counts)
    return out


def _preload_key(expr: Expression, on: tuple[str, ...] | None = None) -> str:
    """The ``preload=`` key of a join input probed on ``on``, else of a group-by."""
    return f"agg|{expr}" if on is None else f"input|{','.join(on)}|{expr}"


class PlanLibrary:
    """Multi-query optimization across the plans of one merge shard.

    Compiling through a library interns every (subexpression, probe role)
    once, so the compiled :class:`MaintenancePlan`s of same-shard views
    literally share node objects: the join both views read is evaluated
    once per batch, its auxiliary materialization is maintained once, and
    one index probe feeds every reader.

    The library owns the propagation round:

    * :meth:`propagate_all` runs every plan against one shared staging
      dict — per-batch node memoization means each shared node computes
      its delta exactly once per round;
    * :meth:`advance_all` advances every plan; stateful shared nodes
      (aux materializations, aggregate group states) consume their staged
      entry on first advance and no-op after, so shared state moves
      forward exactly once per batch.

    Do **not** drive a library-compiled plan's ``propagate``/``advance``
    individually against different batches: shared stateful nodes can
    only advance in lock-step.  (One batch, many views — that is the
    point of sharing.)
    """

    def __init__(self, database) -> None:
        self._db = database
        self._interned: dict[tuple, object] = {}
        self._uses: dict[tuple, int] = {}
        self.plans: dict[str, MaintenancePlan] = {}
        self.profiler = None

    def enable_profiling(self, profiler=None):
        """Profile every library round (one profiler, shared nodes once)."""
        if profiler is None:
            from repro.obs.profiler import PlanProfiler

            profiler = PlanProfiler()
        self.profiler = profiler
        return profiler

    # -- compilation -------------------------------------------------------
    def _intern(self, key: tuple, build):
        node = self._interned.get(key)
        if node is None:
            node = build()
            self._interned[key] = node
            self._uses[key] = 1
        else:
            self._uses[key] += 1
        return node

    def compile(self, name: str, expression: Expression) -> MaintenancePlan:
        """Compile ``expression`` as view ``name``, sharing where possible."""
        if name in self.plans:
            raise ExpressionError(f"plan {name!r} already in the library")
        plan = MaintenancePlan(expression, self._db, library=self)
        self.plans[name] = plan
        return plan

    # -- maintenance -------------------------------------------------------
    def propagate_all(
        self, base_deltas: Mapping[str, Delta | Mapping[tuple, int]]
    ) -> dict[str, Delta]:
        """Every view's delta for one batch (:class:`Delta`s, or raw signed
        counts keyed by layout-positioned tuples), shared work computed
        once."""
        deltas = _as_deltas(self._db, base_deltas)
        staged: dict = {}
        return {
            name: plan._round(deltas, staged, self.profiler)
            for name, plan in self.plans.items()
        }

    def advance_all(self) -> None:
        """Advance every plan's auxiliary state exactly once for the batch."""
        for plan in self.plans.values():
            plan.advance()

    # -- inspection ---------------------------------------------------------
    def probe_count(self) -> int:
        """Total index probes across all unique nodes in the library."""
        return sum(
            getattr(node, "probes", 0) for node in self._interned.values()
        )

    def report(self) -> dict:
        """Compile-time sharing summary (the MQO report).

        ``total_nodes`` counts node references across all plans (what N
        independent compilations would have built); ``unique_nodes`` is
        what the library actually holds; their difference is the work
        sharing removed.  ``shared`` lists every subexpression with more
        than one reader, heaviest first.
        """
        total = sum(len(plan._nodes) for plan in self.plans.values())
        shared = [
            {
                "key": self._describe_key(key),
                "readers": uses,
            }
            for key, uses in sorted(
                self._uses.items(),
                key=lambda item: (-item[1], self._describe_key(item[0])),
            )
            if uses > 1
        ]
        return {
            "plans": len(self.plans),
            "total_nodes": total,
            "unique_nodes": len(self._interned),
            "nodes_saved": total - len(self._interned),
            "shared_subexpressions": len(shared),
            "shared": shared,
        }

    @staticmethod
    def _describe_key(key: tuple) -> str:
        kind, expr = key[0], key[1]
        suffix = f" probe={key[2]}" if kind == "input" else ""
        return f"{expr}{suffix}"
