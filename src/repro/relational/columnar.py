"""Columnar relation storage and vectorized (compiled) delta kernels.

This module is the raw-speed core underneath the row facade
(:class:`~repro.relational.rows.Row`, which
:class:`~repro.relational.relation.Relation` and
:class:`~repro.relational.delta.Delta` build when read — see
``docs/engine.md`` for the facade contract).  The facade stays the public
API; everything here is position-keyed and batch-oriented:

* a **layout** is a sorted tuple of attribute names.  Because rows
  normalise their attributes the same way (sorted by name), a row with
  exactly the layout's attributes maps to a plain value tuple with *no*
  per-attribute name lookup (:meth:`Row.values_tuple`).
* :class:`ColumnarRelation` stores a bag as ``{value-tuple: multiplicity}``
  plus lazily-maintained :class:`ColumnIndex` probe structures and
  on-demand column vectors (one value list per attribute position,
  aligned with a multiplicity vector).
* a :class:`~repro.relational.delta.Delta` is the signed-count
  (insertions > 0, deletions < 0) tuple bag, applied to a
  :class:`ColumnarRelation` in one validated batch
  (:meth:`ColumnarRelation.apply_signed`).
* predicates, projections and joins are **compiled once per
  (operator, layout)** into position-indexed Python functions
  (:func:`compile_filter`, :func:`compile_projection`,
  :func:`compile_join`): attribute names are resolved to tuple positions
  at compile time, and the batch kernels are synthesized comprehensions/
  loops so the per-row inner work is a few C-level tuple operations
  instead of dict lookups, ``Row`` construction and method dispatch.

:func:`evaluate_columnar` runs a full select-project-join-aggregate
evaluation through these kernels and loads the result in bulk
(:meth:`Relation.from_tuple_counts`: one column-wise schema check, the
tuple bag becomes the result's store).  It is the production recompute: view
managers materialize ``V(ss_0)`` with it, the periodic manager and
``MaterializedView`` refresh with it.  It is property-tested bag-for-bag
equal to the row-dict oracle :func:`~repro.relational.algebra.evaluate`.
The maintenance engine in :mod:`repro.relational.plan` is built from the
same pieces.
"""

from __future__ import annotations

from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from repro.errors import ExpressionError, RelationError
from repro.relational.expressions import (
    Aggregate,
    BaseRelation,
    Expression,
    Join,
    Project,
    Select,
)
from repro.relational.predicates import (
    And,
    Attr,
    Comparison,
    Const,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.relational.rows import Row

#: shared empty tuple-bag — callers iterate it without allocating
EMPTY_COUNTS: Mapping[tuple, int] = MappingProxyType({})

Layout = tuple  # a sorted tuple of attribute names


# ---------------------------------------------------------------------------
# layouts and row/tuple conversion (the facade boundary)
# ---------------------------------------------------------------------------

def layout_of(names: Iterable[str]) -> Layout:
    """The canonical (sorted) attribute layout for ``names``."""
    return tuple(sorted(names))


#: per-layout compiled tuple -> Row builders (see :func:`compile_row_builder`)
_ROW_BUILDER_CACHE: dict[Layout, Callable[[tuple], Row]] = {}


def compile_row_builder(layout: Layout) -> Callable[[tuple], Row]:
    """A compiled tuple -> :class:`Row` constructor for one layout.

    This is the hot half of the facade boundary, so the generated source
    inlines everything ``Row._from_sorted_items`` would do per row: the
    items tuple is a constant-shaped display (no ``zip``), the slots are
    stored directly (no ``object.__setattr__`` calls), and the cached
    sorted-names and positional-values slots are pre-seeded with
    ``layout`` and the tuple itself, so a later ``values_tuple``
    round-trip hands the same tuple back.
    """
    builder = _ROW_BUILDER_CACHE.get(layout)
    if builder is None:
        pairs = "".join(f"({name!r}, t[{i}]), " for i, name in enumerate(layout))
        source = (
            "def _build(t, _new=_new, _Row=_Row, _dict=dict, _hash=hash,"
            " _layout=_layout):\n"
            "    row = _new(_Row)\n"
            f"    items = ({pairs})\n"
            "    row._items = items\n"
            "    row._dict = _dict(items)\n"
            "    row._hash = _hash(items)\n"
            "    row._projections = None\n"
            "    row._names = _layout\n"
            "    row._values = t\n"
            "    return row\n"
        )
        namespace = {"_new": object.__new__, "_Row": Row, "_layout": layout}
        exec(source, namespace)  # noqa: S102 - source built from repr'd names
        builder = _ROW_BUILDER_CACHE[layout] = namespace["_build"]
    return builder


def counts_to_rows(layout: Layout, counts: Mapping[tuple, int]) -> dict[Row, int]:
    """Convert a tuple bag back to the facade's ``Row -> count`` form."""
    build = compile_row_builder(layout)
    return {build(t): c for t, c in counts.items()}


def make_key(layout: Layout, attrs: tuple[str, ...]) -> Callable[[tuple], object]:
    """A key extractor for ``attrs`` over ``layout``-positioned tuples.

    Single-attribute keys are the bare value (cheapest dict key); wider
    keys are value tuples; an empty ``attrs`` keys everything together
    (the cross-product bucket).  Both sides of a join must build their
    keys through this function so the conventions agree.
    """
    positions = tuple(layout.index(a) for a in attrs)
    if not positions:
        return lambda t: ()
    if len(positions) == 1:
        return itemgetter(positions[0])
    return itemgetter(*positions)


# ---------------------------------------------------------------------------
# compiled kernels: predicates, projections, joins
# ---------------------------------------------------------------------------

_OP_SOURCE = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: kernel caches, keyed by (operator AST, layout).  Predicates and
#: expressions are frozen records (``repro.record.Node``), so they hash;
#: unhashable constants simply skip the cache.
_FILTER_CACHE: dict[tuple, Callable] = {}
_PROJECT_CACHE: dict[tuple, Callable] = {}
_AGGREGATE_CACHE: dict[str, dict] = {}  # keyed by the kernel's source


class _TupleRow(Mapping):
    """A tuple presented as the mapping predicates expect (fallback path).

    Only used for :class:`Predicate` subclasses the source compiler does
    not know — evaluation falls back to the interpreted ``evaluate``.
    """

    __slots__ = ("_layout", "_values")

    def __init__(self, layout: Layout, values: tuple) -> None:
        self._layout = layout
        self._values = values

    def __getitem__(self, name: str) -> object:
        try:
            return self._values[self._layout.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def __iter__(self):
        return iter(self._layout)

    def __len__(self) -> int:
        return len(self._layout)

    def __contains__(self, name: object) -> bool:
        return name in self._layout


def _operand_source(operand, layout: Layout, env: dict) -> str:
    if isinstance(operand, Attr):
        try:
            return f"t[{layout.index(operand.name)}]"
        except ValueError:
            raise ExpressionError(
                f"predicate attribute {operand.name!r} not in layout {layout}"
            ) from None
    if isinstance(operand, Const):
        name = f"c{len(env)}"
        env[name] = operand.literal
        return name
    raise _Uncompilable(operand)


class _Uncompilable(Exception):
    """Internal: the predicate contains a node the compiler cannot inline."""


def _predicate_source(predicate: Predicate, layout: Layout, env: dict) -> str:
    if isinstance(predicate, TruePredicate):
        return "True"
    if isinstance(predicate, Comparison):
        lhs = _operand_source(predicate.lhs, layout, env)
        rhs = _operand_source(predicate.rhs, layout, env)
        return f"({lhs} {_OP_SOURCE[predicate.op]} {rhs})"
    if isinstance(predicate, And):
        return (f"({_predicate_source(predicate.left, layout, env)} and "
                f"{_predicate_source(predicate.right, layout, env)})")
    if isinstance(predicate, Or):
        return (f"({_predicate_source(predicate.left, layout, env)} or "
                f"{_predicate_source(predicate.right, layout, env)})")
    if isinstance(predicate, Not):
        return f"(not {_predicate_source(predicate.child, layout, env)})"
    raise _Uncompilable(predicate)


def compile_filter(
    predicate: Predicate, layout: Layout
) -> Callable[[Mapping[tuple, int]], Mapping[tuple, int]] | None:
    """Compile ``predicate`` into a batch filter over a tuple bag.

    Returns ``None`` for the always-true predicate (callers skip the
    filter entirely).  The kernel is a single synthesized dict
    comprehension — the whole batch is filtered without any per-row
    Python function call.  Compiled once per (predicate, layout) and
    cached.  Comparison type errors surface as :class:`ExpressionError`,
    matching the interpreted facade semantics.
    """
    if isinstance(predicate, TruePredicate):
        return None
    key = None
    try:
        key = (predicate, layout)
        cached = _FILTER_CACHE.get(key)
        if cached is not None:
            return cached
    except TypeError:  # unhashable constant: compile uncached
        pass

    env: dict = {}
    try:
        test = _predicate_source(predicate, layout, env)
        source = (
            "def _filter(items):\n"
            f"    return {{t: c for t, c in items if {test}}}\n"
        )
        exec(compile(source, "<columnar-filter>", "exec"), env)
        kernel = env["_filter"]
    except _Uncompilable:
        # Unknown Predicate subclass: interpreted per-row fallback.
        def kernel(items, _p=predicate, _l=layout):
            return {t: c for t, c in items if _p.evaluate(_TupleRow(_l, t))}

    def batch_filter(counts: Mapping[tuple, int]) -> Mapping[tuple, int]:
        try:
            return kernel(counts.items())
        except TypeError as exc:
            raise ExpressionError(
                f"cannot evaluate {predicate} over layout {layout}: {exc}"
            ) from exc

    if key is not None:
        _FILTER_CACHE[key] = batch_filter
    return batch_filter


def compile_projection(
    child_layout: Layout, names: tuple[str, ...]
) -> tuple[Layout, Callable[[Mapping[tuple, int]], dict[tuple, int]]]:
    """Compile a projection onto ``names`` into a batch re-keying kernel.

    Returns ``(output layout, kernel)``.  The kernel folds multiplicities
    of now-identical tuples together (bag projection).  The output tuple
    is built by an inlined tuple display — no per-row calls.
    """
    out_layout = layout_of(names)
    missing = [n for n in out_layout if n not in child_layout]
    if missing:
        raise ExpressionError(
            f"projection attributes {missing} not in layout {child_layout}"
        )
    key = (child_layout, out_layout)
    cached = _PROJECT_CACHE.get(key)
    if cached is not None:
        return out_layout, cached
    take = ", ".join(f"t[{child_layout.index(n)}]" for n in out_layout)
    if len(out_layout) == 1:
        take += ","
    source = (
        "def _project(items):\n"
        "    out = {}\n"
        "    get = out.get\n"
        "    for t, c in items:\n"
        f"        k = ({take})\n"
        "        out[k] = get(k, 0) + c\n"
        "    return out\n"
    )
    env: dict = {}
    exec(compile(source, "<columnar-projection>", "exec"), env)
    kernel_fn = env["_project"]

    def kernel(counts: Mapping[tuple, int]) -> dict[tuple, int]:
        out = kernel_fn(counts.items())
        for k in [k for k, c in out.items() if not c]:
            del out[k]
        return out

    _PROJECT_CACHE[key] = kernel
    return out_layout, kernel


def _key_source(layout: Layout, on: tuple[str, ...], var: str) -> str:
    """The join key of tuple ``var`` as source: a bare value for one
    attribute (:func:`make_key`'s convention), else a value tuple."""
    positions = [layout.index(a) for a in on]
    if len(positions) == 1:
        return f"{var}[{positions[0]}]"
    return "(" + "".join(f"{var}[{p}], " for p in positions) + ")"


def _merge_source(
    left_layout: Layout, right_layout: Layout, left_var: str, right_var: str
) -> tuple[Layout, str]:
    """A join's output layout, and the tuple display building an output
    tuple from a left tuple and a right tuple: a shared attribute is read
    off the left one (the join key makes the two agree)."""
    out_layout = layout_of(set(left_layout) | set(right_layout))
    parts = (
        f"{left_var}[{left_layout.index(name)}], " if name in left_layout
        else f"{right_var}[{right_layout.index(name)}], "
        for name in out_layout
    )
    return out_layout, "(" + "".join(parts) + ")"


#: fused probe-loop kernels, keyed by (delta layout, other layout, on, side)
_PROBE_CACHE: dict[tuple, Callable] = {}


def compile_join_probe(
    delta_layout: Layout,
    other_layout: Layout,
    on: tuple[str, ...],
    delta_is_left: bool,
) -> Callable[[Iterable[tuple], Callable, dict], None]:
    """A fused probe loop for one single-sided join delta term.

    ``_probe(items, bucket_get, out)`` drives ``d_delta |><| other_old``
    with everything inlined in generated source: the join key is a
    positional display over the delta tuple, the bucket lookup is one
    ``dict.get``, and the merged output tuple is a display spliced
    directly into the inner loop — no per-pair function calls at all.

    The output is written with a plain store (``out[k] = c * oc``), which
    is exact for a *single* term (see :func:`compile_join`).  Callers
    mixing several terms into one dict must not use this kernel.
    """
    cache_key = (delta_layout, other_layout, on, delta_is_left)
    probe = _PROBE_CACHE.get(cache_key)
    if probe is not None:
        return probe
    if delta_is_left:
        _, display = _merge_source(delta_layout, other_layout, "t", "o")
    else:
        _, display = _merge_source(other_layout, delta_layout, "o", "t")
    source = (
        "def _probe(items, bucket_get, out):\n"
        "    for t, c in items:\n"
        f"        m = bucket_get({_key_source(delta_layout, on, 't')})\n"
        "        if m:\n"
        "            for o, oc in m.items():\n"
        f"                out[{display}] = c * oc\n"
    )
    env: dict = {}
    exec(compile(source, "<columnar-probe>", "exec"), env)
    probe = _PROBE_CACHE[cache_key] = env["_probe"]
    return probe


#: generated hash joins, keyed by (left layout, right layout, on)
_JOIN_CACHE: dict[tuple, tuple[Layout, Callable]] = {}

#: one half of a generated join: index ``build`` by key, probe with ``scan``
_JOIN_HALF = """\
        table = {{}}
        get = table.get
        for {b}, {b}c in {build}.items():
            k = {build_key}
            m = get(k)
            if m is None:
                table[k] = [({b}, {b}c)]
            else:
                m.append(({b}, {b}c))
        for {s}, {s}c in {scan}.items():
            m = get({scan_key})
            if m is not None:
                for {b}, {b}c in m:
                    out[{display}] = lc * rc
"""


def compile_join(
    left_layout: Layout, right_layout: Layout, on: tuple[str, ...]
) -> tuple[Layout, Callable[[Mapping[tuple, int], Mapping[tuple, int]], dict]]:
    """Compile the hash join of two tuple bags on ``on``.

    Returns ``(output layout, join)``: ``join(left, right)`` indexes the
    smaller bag by its inlined positional key, probes the index with the
    larger one and writes ``out[(display)] = lc * rc`` with plain stores.
    That is exact for one join: the operands share no attribute outside
    ``on``, so distinct pairs merge to distinct output tuples, and nonzero
    counts (signed ones included) multiply to a nonzero count.  Compiled
    once per (layouts, on) and cached.
    """
    cache_key = (left_layout, right_layout, on)
    cached = _JOIN_CACHE.get(cache_key)
    if cached is not None:
        return cached
    if set(on) != set(left_layout) & set(right_layout):
        raise ExpressionError(
            f"a join of {left_layout} with {right_layout} must match on "
            f"their shared attributes, not on {on}"
        )
    out_layout, display = _merge_source(left_layout, right_layout, "l", "r")
    keys = {"l": _key_source(left_layout, on, "l"),
            "r": _key_source(right_layout, on, "r")}
    halves = [
        _JOIN_HALF.format(b=b, s=s, build=build, scan=scan, build_key=keys[b],
                          scan_key=keys[s], display=display)
        for b, s, build, scan in (("l", "r", "left", "right"),
                                  ("r", "l", "right", "left"))
    ]
    source = (
        "def _join(left, right):\n"
        "    out = {}\n"
        "    if not (left and right):\n        return out\n"
        "    if len(left) <= len(right):\n"
        f"{halves[0]}"
        "    else:\n"
        f"{halves[1]}"
        "    return out\n"
    )
    env: dict = {}
    exec(compile(source, "<columnar-join>", "exec"), env)
    compiled = _JOIN_CACHE[cache_key] = out_layout, env["_join"]
    return compiled


def join_counts_columnar(
    left: Mapping[tuple, int],
    right: Mapping[tuple, int],
    join: Callable[[Mapping[tuple, int], Mapping[tuple, int]], dict],
) -> dict[tuple, int]:
    """Hash-join two signed- or unsigned-count tuple bags with ``join``
    from :func:`compile_join`: the one full-join entry point (set-up,
    refresh, the query-back rules, a plan's cross term)."""
    return join(left, right)


# ---------------------------------------------------------------------------
# aggregates over tuple bags
# ---------------------------------------------------------------------------

class AggregateKernel:
    """Compiled fold + output-row builder for a count/sum group-by.

    The whole fold — group-key extraction, state-vector creation and the
    per-spec accumulations — is synthesized into one straight-line loop
    body (positions inlined, no inner loop over specs, no per-row
    function calls), as is the builder from ``(group key, state vector)``
    to the output tuple in layout order.
    """

    __slots__ = ("layout", "group_by", "width", "_fold", "_build", "_delta_pass")

    def __init__(self, expr: Aggregate, child_layout: Layout) -> None:
        self.group_by = expr.group_by
        self.width = len(expr.aggregates)
        self.layout = layout_of(
            tuple(expr.group_by) + tuple(s.alias for s in expr.aggregates)
        )
        # the fold: group key is always a tuple so states index uniformly
        key_positions = tuple(child_layout.index(a) for a in expr.group_by)
        key_expr = "(" + "".join(f"t[{p}], " for p in key_positions) + ")"
        lines = [
            "def _fold(groups, items):",
            "    get = groups.get",
            "    for t, c in items:",
            f"        k = {key_expr}",
            "        s = get(k)",
            "        if s is None:",
            f"            s = groups[k] = [0] * {self.width + 1}",
            "        s[0] += c",
        ]
        for index, spec in enumerate(expr.aggregates, start=1):
            if spec.fn == "count":
                lines.append(f"        s[{index}] += c")
            else:
                pos = child_layout.index(spec.attr)
                lines.append(f"        s[{index}] += c * t[{pos}]")
        # the output builder: (key, state) -> layout-ordered tuple.  Kept
        # as a template over the state variable name so the delta pass
        # below can splice the same display in for old and new states.
        aliases = tuple(s.alias for s in expr.aggregates)
        parts = []
        for name in self.layout:
            if name in expr.group_by:
                parts.append(f"k[{expr.group_by.index(name)}]")
            else:
                parts.append("{state}[" + str(aliases.index(name) + 1) + "]")
        template = ", ".join(parts)
        if len(self.layout) == 1:
            template += ","
        lines += ["def _build(k, s):", f"    return ({template.format(state='s')})"]
        # the delta pass: merge per-group contributions into the old
        # states and emit old-row deletions / new-row insertions, all in
        # one synthesized loop (state addition unrolled, output displays
        # inlined).  Accumulation via ``get`` is still needed: a
        # value-only change can make the old and new output rows collide
        # (and cancel).
        merged = ", ".join(f"s[{i}] + d[{i}]" for i in range(self.width + 1))
        source = "\n".join(lines) + (
            "\ndef _delta_pass(groups, contributions):\n"
            "    out = {}\n"
            "    out_get = out.get\n"
            "    group_get = groups.get\n"
            "    new_states = {}\n"
            "    for k, d in contributions.items():\n"
            "        s = group_get(k)\n"
            "        if s is None:\n"
            "            n = d\n"
            "        else:\n"
            f"            n = [{merged}]\n"
            f"            t = ({template.format(state='s')})\n"
            "            out[t] = out_get(t, 0) - 1\n"
            "        if n[0] != 0:\n"
            f"            t = ({template.format(state='n')})\n"
            "            out[t] = out_get(t, 0) + 1\n"
            "        new_states[k] = n\n"
            "    return out, new_states\n"
        )
        # One compile per kernel shape: views of one shape share the code.
        env = _AGGREGATE_CACHE.get(source)
        if env is None:
            env = _AGGREGATE_CACHE[source] = {}
            exec(compile(source, "<columnar-aggregate>", "exec"), env)
        self._fold, self._build = env["_fold"], env["_build"]
        self._delta_pass = env["_delta_pass"]

    def accumulate(self, groups: dict[tuple, list], counts: Mapping[tuple, int]) -> None:
        """Fold a (signed) tuple bag into per-group state vectors.

        State vector: ``[row_count, agg_1, ..., agg_n]``.
        """
        self._fold(groups, counts.items())

    def delta_pass(
        self, groups: Mapping[tuple, list], contributions: Mapping[tuple, list]
    ) -> tuple[dict[tuple, int], dict[tuple, list]]:
        """Merge contribution vectors into old states; emit the row delta.

        Returns ``(out, new_states)``: ``out`` maps output tuples to
        signed counts (-1 old row, +1 new row, possibly cancelling to 0
        on a no-op change — callers filter zeros), and ``new_states``
        holds the post-batch state vector per touched group (row count 0
        means the group died).  ``groups`` is not mutated.
        """
        return self._delta_pass(groups, contributions)

    def aggregate(self, counts: Mapping[tuple, int]) -> dict[tuple, int]:
        """Full grouping of a bag: one output tuple per non-empty group."""
        groups: dict[tuple, list] = {}
        self.accumulate(groups, counts)
        build = self._build
        return {build(k, s): 1 for k, s in groups.items() if s[0] != 0}


# ---------------------------------------------------------------------------
# columnar storage
# ---------------------------------------------------------------------------

class ColumnIndex:
    """A bag index over layout-positioned tuples: key -> {tuple: count}.

    The one index type: every probe, on a base relation's store or on a
    plan's auxiliary materialization, reads one of these.  Buckets
    are zero-copy views and key extraction is positional
    (:func:`make_key`), so probes never touch attribute names.
    """

    __slots__ = ("attrs", "_key", "_buckets")

    def __init__(self, layout: Layout, attrs: tuple[str, ...]) -> None:
        self.attrs = tuple(attrs)
        self._key = make_key(layout, self.attrs)
        self._buckets: dict = {}

    def build(self, counts: Mapping[tuple, int]) -> None:
        self._buckets.clear()
        for t, c in counts.items():
            self.add(t, c)

    def table(self) -> Mapping[object, Mapping[tuple, int]]:
        """The whole key -> bucket mapping, zero-copy.

        For bulk probe loops (:func:`compile_join_probe`) that want one
        ``dict.get`` per probe instead of a :meth:`bucket` call.  Callers
        must treat it as read-only.
        """
        return self._buckets

    def apply_signed(self, counts: Mapping[tuple, int]) -> None:
        """Fold a signed tuple bag in as one bulk pass.

        The index half of :meth:`ColumnarRelation.apply_signed` — the
        caller has already validated that no bucket entry underflows.
        Emptied buckets are dropped so probe misses stay dict misses.
        """
        key_of = self._key
        buckets = self._buckets
        for t, c in counts.items():
            if not c:
                continue
            k = key_of(t)
            bucket = buckets.get(k)
            if bucket is None:
                if c > 0:
                    buckets[k] = {t: c}
                continue
            n = bucket.get(t, 0) + c
            if n:
                bucket[t] = n
            else:
                del bucket[t]
                if not bucket:
                    del buckets[k]

    def add(self, t: tuple, count: int) -> None:
        bucket = self._buckets.setdefault(self._key(t), {})
        bucket[t] = bucket.get(t, 0) + count

    def remove(self, t: tuple, count: int) -> None:
        key = self._key(t)
        bucket = self._buckets[key]
        remaining = bucket[t] - count
        if remaining:
            bucket[t] = remaining
        else:
            del bucket[t]
            if not bucket:
                del self._buckets[key]

    def bucket(self, key: object) -> Mapping[tuple, int]:
        """Rows matching ``key`` (zero-copy; do not hold across mutations)."""
        found = self._buckets.get(key)
        return found if found is not None else EMPTY_COUNTS

    def __len__(self) -> int:
        return len(self._buckets)

    def __repr__(self) -> str:
        return f"ColumnIndex(on={self.attrs!r}, keys={len(self._buckets)})"


class ColumnarRelation:
    """A bag of layout-positioned value tuples with a multiplicity vector.

    The storage is ``{value-tuple: multiplicity}`` — attribute names
    appear only in the layout, never per row.  Every mutation also
    updates the :class:`ColumnIndex` probe structures built so far.
    This is the one store of a :class:`~repro.relational.relation.Relation`,
    which checks rows against its schema before they land here.
    :meth:`column_vectors` decomposes the bag into per-position
    value vectors aligned with the multiplicity vector — the scan-order
    view vectorized full evaluation and index rebuilds read.
    """

    __slots__ = ("layout", "_counts", "_size", "_indexes")

    def __init__(
        self, layout: Iterable[str], counts: Mapping[tuple, int] | None = None
    ) -> None:
        self.layout: Layout = layout_of(layout)
        self._counts: dict[tuple, int] = {}
        self._size = 0
        self._indexes: dict[tuple[str, ...], ColumnIndex] = {}
        if counts:
            for t, c in counts.items():
                if c < 0:
                    raise RelationError(f"negative multiplicity {c} for {t}")
                if c:
                    self._counts[t] = c
                    self._size += c

    @classmethod
    def _adopt(
        cls, layout: Layout, counts: dict[tuple, int], size: int
    ) -> "ColumnarRelation":
        """Wrap an already-validated counts dict without copying.

        Internal: ``layout`` must be sorted, ``counts`` an owned dict of
        positive multiplicities and ``size`` their sum.
        """
        table = object.__new__(cls)
        table.layout = layout
        table._counts = counts
        table._size = size
        table._indexes = {}
        return table

    def copy(self) -> "ColumnarRelation":
        """An independent copy of the bag (tuples are shared, indexes are
        not carried)."""
        return self._adopt(self.layout, dict(self._counts), self._size)

    # -- facade conversions -------------------------------------------------
    def to_rows(self) -> dict[Row, int]:
        """The facade view: ``Row -> count`` (a fresh dict)."""
        return counts_to_rows(self.layout, self._counts)

    # -- reads ---------------------------------------------------------------
    def counts_view(self) -> Mapping[tuple, int]:
        """Zero-copy read-only view of the tuple -> multiplicity mapping."""
        return MappingProxyType(self._counts)

    def multiplicity(self, t: tuple) -> int:
        return self._counts.get(t, 0)

    def __len__(self) -> int:
        """Total number of rows, counting multiplicity."""
        return self._size

    def distinct_count(self) -> int:
        return len(self._counts)

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, t: object) -> bool:
        return t in self._counts

    def column_vectors(self) -> tuple[list[list], list[int]]:
        """Per-position value vectors plus the aligned multiplicity vector.

        A snapshot (fresh lists) in distinct-row order: ``columns[i][j]``
        is the value of attribute ``layout[i]`` on the j-th distinct row,
        whose multiplicity is ``mults[j]``.
        """
        columns: list[list] = [[] for _ in self.layout]
        mults: list[int] = []
        for t, c in self._counts.items():
            for i, v in enumerate(t):
                columns[i].append(v)
            mults.append(c)
        return columns, mults

    def index_on(self, attrs: Iterable[str]) -> ColumnIndex:
        """The column index keyed on ``attrs``: built on first use, kept
        current by every mutation after."""
        key = tuple(attrs)
        index = self._indexes.get(key)
        if index is None:
            index = ColumnIndex(self.layout, key)
            index.build(self._counts)
            self._indexes[key] = index
        return index

    # -- mutation ------------------------------------------------------------
    def insert(self, t: tuple, count: int = 1) -> None:
        if count <= 0:
            raise RelationError(f"insert count must be positive, got {count}")
        self._counts[t] = self._counts.get(t, 0) + count
        self._size += count
        if self._indexes:
            for index in self._indexes.values():
                index.add(t, count)

    def delete(self, t: tuple, count: int = 1) -> None:
        if count <= 0:
            raise RelationError(f"delete count must be positive, got {count}")
        present = self._counts.get(t, 0)
        if present < count:
            raise RelationError(
                f"cannot delete {count} copies of {t}: only {present} present"
            )
        if present == count:
            del self._counts[t]
        else:
            self._counts[t] = present - count
        self._size -= count
        if self._indexes:
            for index in self._indexes.values():
                index.remove(t, count)

    def apply_signed(self, counts: Mapping[tuple, int]) -> None:
        """Apply a signed tuple bag as one validated batch.

        Each tuple carries one *net* count, so application order between
        tuples cannot matter (a modify never spuriously underflows), and
        the whole batch lands as one vectorized pass over the
        counts dict plus one bulk pass per live index — no per-row
        :meth:`insert`/:meth:`delete` calls.  Underflow still raises
        with the relation untouched, but the check rides the application
        pass itself: a violation rolls back what the pass already wrote,
        so the common (valid) case never pays for a separate validation
        sweep.
        """
        own = self._counts
        get = own.get
        for t, c in counts.items():
            if not c:
                continue
            n = get(t, 0) + c
            if n > 0:
                own[t] = n
            elif n:
                self._rollback(counts, t)
                raise RelationError(
                    f"batch deletes {-c} copies of {t} but relation "
                    f"holds {n - c}"
                )
            else:
                del own[t]
        self._size += sum(counts.values())
        for index in self._indexes.values():
            index.apply_signed(counts)

    def _rollback(self, counts: Mapping[tuple, int], failed: tuple) -> None:
        """Undo a partially-applied batch, stopping at the failing tuple
        (which was never written).  Dict iteration order is stable, so
        re-walking ``counts`` revisits exactly the applied prefix."""
        own = self._counts
        get = own.get
        for t, c in counts.items():
            if t == failed:
                return
            if not c:
                continue
            n = get(t, 0) - c
            if n:
                own[t] = n
            else:
                del own[t]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarRelation):
            return NotImplemented
        return self.layout == other.layout and self._counts == other._counts

    def __repr__(self) -> str:
        return (f"ColumnarRelation({'|'.join(self.layout)} "
                f"|{self._size}| {self.distinct_count()} distinct)")


# ---------------------------------------------------------------------------
# vectorized full evaluation
# ---------------------------------------------------------------------------

def evaluate_columnar(expr: Expression, db, memo: dict | None = None) -> "Relation":
    """Evaluate ``expr`` through the columnar kernels; returns a Relation.

    Bag-for-bag equal to the row-dict reference
    :func:`repro.relational.algebra.evaluate` (property-tested in
    ``tests/relational/test_columnar_properties.py``).  Base relations
    are read straight off their stores (:meth:`Relation.columnar`) and the
    result is loaded in bulk: no ``Row`` is built on either side.
    """
    from repro.relational.relation import Relation

    schema = expr.infer_schema(db.schemas)
    layout, counts = _eval_columnar(expr, db, memo)
    return Relation.from_tuple_counts(layout, counts, schema)


def _eval_columnar(
    expr: Expression, db, memo: dict | None = None
) -> tuple[Layout, Mapping[tuple, int]]:
    """``expr`` over ``db`` as ``(layout, tuple bag)``.  ``memo`` maps the
    subexpressions evaluated over ``db`` so far to their (shared, read-only)
    results and gains each one computed here."""
    memo = {} if memo is None else memo
    if expr in memo:
        return memo[expr]
    if isinstance(expr, BaseRelation):
        store = db.relation(expr.name).columnar()
        result = store.layout, store.counts_view()
    elif isinstance(expr, Select):
        layout, counts = _eval_columnar(expr.child, db, memo)
        kernel = compile_filter(expr.predicate, layout)
        result = layout, (counts if kernel is None else kernel(counts))
    elif isinstance(expr, Project):
        layout, counts = _eval_columnar(expr.child, db, memo)
        out_layout, kernel = compile_projection(layout, expr.names)
        result = out_layout, kernel(counts)
    elif isinstance(expr, Join):
        left_layout, left = _eval_columnar(expr.left, db, memo)
        right_layout, right = _eval_columnar(expr.right, db, memo)
        on = expr.join_attributes(db.schemas)
        out_layout, kernel = compile_join(left_layout, right_layout, on)
        result = out_layout, join_counts_columnar(left, right, kernel)
    elif isinstance(expr, Aggregate):
        layout, counts = _eval_columnar(expr.child, db, memo)
        kernel = AggregateKernel(expr, layout)
        result = kernel.layout, kernel.aggregate(counts)
    else:
        raise ExpressionError(
            f"cannot evaluate expression of type {type(expr).__name__}"
        )
    memo[expr] = result
    return result
