"""Seeded update-stream generation.

A :class:`WorkloadSpec` describes rates and mixes; an
:class:`UpdateStreamGenerator` turns it into a list of
``(time, SourceTransaction)`` pairs ready for
:meth:`WarehouseSystem.post`.  Generation maintains a planning mirror of
every relation so deletes and modifies always target rows that will be
live at execution time (per-relation streams are generated in time order
and each relation belongs to exactly one source, so the mirror order
matches the commit order).  It holds the world's stored rows as value
tuples and the rows it generates as emitted: a stored victim is built.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from repro.errors import ReproError
from repro.relational.rows import Row
from repro.relational.schema import AttrType
from repro.sources.transactions import SourceTransaction
from repro.sources.update import Update, UpdateKind
from repro.sources.world import SourceWorld

if TYPE_CHECKING:  # pragma: no cover
    from repro.system.builder import WarehouseSystem

_KINDS = ("insert", "delete", "modify")


@dataclass
class WorkloadSpec:
    """Shape of a synthetic update stream.

    ``mix`` gives (insert, delete, modify) weights.  ``value_range`` bounds
    generated integer attribute values — small ranges produce hot keys and
    join fan-out, large ranges produce sparse joins.  ``arrivals`` is
    "uniform" (evenly spaced) or "poisson" (exponential gaps).
    ``relation_weights`` biases which relation each update touches.
    """

    updates: int = 100
    rate: float = 1.0  # mean updates per unit time, across all sources
    mix: tuple[float, float, float] = (0.6, 0.2, 0.2)
    value_range: int = 10
    arrivals: str = "uniform"
    relation_weights: Mapping[str, float] = field(default_factory=dict)
    multi_update_fraction: float = 0.0  # §6.2 transactions with 2-3 updates
    #: fraction of generated integer values drawn from the hot-key set
    #: [0, hot_keys) instead of [0, value_range) — skewed join fan-out
    hot_fraction: float = 0.0
    hot_keys: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.updates < 0:
            raise ReproError(f"updates must be >= 0, got {self.updates}")
        if self.rate <= 0:
            raise ReproError(f"rate must be positive, got {self.rate}")
        if self.arrivals not in ("uniform", "poisson"):
            raise ReproError(f"unknown arrival process {self.arrivals!r}")
        if len(self.mix) != 3 or min(self.mix) < 0 or sum(self.mix) == 0:
            raise ReproError(f"bad insert/delete/modify mix {self.mix}")
        if not 0 <= self.multi_update_fraction <= 1:
            raise ReproError(
                f"multi_update_fraction must be in [0,1], "
                f"got {self.multi_update_fraction}"
            )
        if not 0 <= self.hot_fraction <= 1:
            raise ReproError(
                f"hot_fraction must be in [0,1], got {self.hot_fraction}"
            )
        if self.hot_keys < 1:
            raise ReproError(f"hot_keys must be >= 1, got {self.hot_keys}")
        for name, weight in self.relation_weights.items():
            if not 0 <= weight < float("inf"):
                raise ReproError(f"relation weight {name!r}={weight!r} not in [0, inf)")


class UpdateStreamGenerator:
    """Generates schedulable transactions against a source world."""

    def __init__(self, world: SourceWorld, spec: WorkloadSpec) -> None:
        self.world = world
        self.spec = spec
        self._rng = random.Random(spec.seed)
        schemas = world.schemas
        self._mirror: dict[str, list[tuple | Row]] = {}
        for name in schemas:
            counts = world.current.relation(name).columnar().counts_view()
            self._mirror[name] = [t for t, c in counts.items() for _ in range(c)]
        self._relations = sorted(schemas)
        # per relation: its layout, and its attributes' types and layout
        # positions in schema order (the order values are drawn in)
        self._shapes = {
            name: (schema.layout, [(a.type, schema.layout.index(a.name))
                                   for a in schema])
            for name, schema in schemas.items()
        }
        self._owners = {name: world.owner_of(name) for name in schemas}
        self._peers = {owner: list(world.relations_of(owner))
                       for owner in set(self._owners.values())}
        # ``choices`` draws the same given the weights or their sums, made once.
        weights = [spec.relation_weights.get(name, 1.0) for name in self._relations]
        self._relation_sums = list(accumulate(weights))
        self._kind_sums = list(accumulate(spec.mix))
        if set(spec.relation_weights) - set(self._relations) or not sum(weights):
            raise ReproError(
                f"relation_weights {dict(spec.relation_weights)} name relations "
                f"not in {self._relations} or are all 0"
            )

    # -- row synthesis -------------------------------------------------------
    def _random_value(self, attr_type: AttrType) -> object:
        if attr_type is AttrType.INT:
            if (
                self.spec.hot_fraction
                and self._rng.random() < self.spec.hot_fraction
            ):
                return self._rng.randrange(self.spec.hot_keys)
            return self._rng.randrange(self.spec.value_range)
        if attr_type is AttrType.FLOAT:
            return float(self._rng.randrange(self.spec.value_range))
        if attr_type is AttrType.BOOL:
            return bool(self._rng.getrandbits(1))
        return f"v{self._rng.randrange(self.spec.value_range)}"

    def _random_row(self, relation: str) -> Row:
        """Values drawn in schema order, the row built in layout order."""
        layout, draws = self._shapes[relation]
        values = [None] * len(layout)
        for attr_type, position in draws:
            values[position] = self._random_value(attr_type)
        return Row._from_sorted_items(tuple(zip(layout, values)))

    # -- update synthesis -------------------------------------------------------
    def _make_update(self, relation: str) -> Update:
        mirror = self._mirror[relation]
        # ``choices(_KINDS, cum_weights=sums)[0]``'s own body: the same draws
        sums = self._kind_sums
        kind = _KINDS[bisect(sums, self._rng.random() * (sums[-1] + 0.0), 0, 2)]
        if kind != "insert" and not mirror:
            kind = "insert"  # nothing to delete/modify yet
        if kind == "insert":
            row = self._random_row(relation)
            mirror.append(row)
            return Update(relation, UpdateKind.INSERT, row)
        victim_index = self._rng.randrange(len(mirror))
        victim = mirror[victim_index]
        if not isinstance(victim, Row):
            victim = Row._from_sorted_items(
                tuple(zip(self._shapes[relation][0], victim))
            )
        if kind == "delete":
            mirror.pop(victim_index)
            return Update(relation, UpdateKind.DELETE, victim)
        replacement = self._random_row(relation)
        mirror[victim_index] = replacement
        return Update(relation, UpdateKind.MODIFY, victim, replacement)

    def _make_transaction(self) -> SourceTransaction:
        sums = self._relation_sums  # as in ``_make_update``
        relation = self._relations[
            bisect(sums, self._rng.random() * (sums[-1] + 0.0), 0, len(sums) - 1)]
        first = self._make_update(relation)
        origin = self._owners[relation]
        if self._rng.random() < self.spec.multi_update_fraction:
            # §6.2: a transaction touching 2-3 relations of one source.
            updates = [first]
            candidates = [r for r in self._peers[origin] if r != relation]
            self._rng.shuffle(candidates)
            for other in candidates[: self._rng.randrange(1, 3)]:
                updates.append(self._make_update(other))
            return SourceTransaction(origin, tuple(updates))
        return SourceTransaction(origin, (first,))

    # -- stream assembly -------------------------------------------------------
    def transactions(self) -> list[tuple[float, SourceTransaction]]:
        """The full stream as ``(time, transaction)`` pairs, time-ordered.

        Transactions from different sources may interleave; transactions
        from the same source are strictly ordered (distinct times), which
        is all the §2.1 model requires.
        """
        gap = 1.0 / self.spec.rate
        stream: list[tuple[float, SourceTransaction]] = []
        time = 0.0
        for _ in range(self.spec.updates):
            if self.spec.arrivals == "uniform":
                time += gap
            else:
                time += self._rng.expovariate(self.spec.rate)
            stream.append((time, self._make_transaction()))
        return stream

    def __iter__(self) -> Iterator[tuple[float, SourceTransaction]]:
        return iter(self.transactions())


def post_stream(
    system: "WarehouseSystem",
    stream: Sequence[tuple[float, SourceTransaction]],
) -> int:
    """Post a generated stream onto a built system; returns its length."""
    for time, transaction in stream:
        system.post(transaction, time)
    return len(stream)
