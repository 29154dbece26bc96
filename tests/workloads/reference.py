"""The update-stream generator as it was before the mirror held value
tuples, standalone: ``__init__``, ``_make_update`` and ``_pick_relation``
(``choices`` over plain weights, before the generator summed them once),
``_random_value``, ``_random_row``, ``_make_transaction`` and
``transactions`` kept verbatim (a ``Row`` built from a dict per drawn row,
the world's schemas and owners read per update), so the property tests
can hold streams equal to it."""

import random

from repro.relational.rows import Row
from repro.relational.schema import AttrType, Schema
from repro.sources.transactions import SourceTransaction
from repro.sources.update import Update
from repro.sources.world import SourceWorld
from repro.workloads.generator import WorkloadSpec


class RowMirrorGenerator:
    def __init__(self, world: SourceWorld, spec: WorkloadSpec) -> None:
        self.world = world
        self.spec = spec
        self._rng = random.Random(spec.seed)
        self._mirror: dict[str, list[Row]] = {
            name: list(world.current.relation(name))
            for name in world.schemas
        }
        self._relations = sorted(world.schemas)
        self._weights = [
            spec.relation_weights.get(name, 1.0) for name in self._relations
        ]
        self._next_key = 1000  # distinct tail for generated key values

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

    def _random_row(self, schema: Schema) -> Row:
        return Row({a.name: self._random_value(a.type) for a in schema})

    # -- update synthesis -------------------------------------------------------
    def _make_update(self, relation: str) -> Update:
        schema = self.world.schemas[relation]
        mirror = self._mirror[relation]
        kind = self._rng.choices(("insert", "delete", "modify"), self.spec.mix)[0]
        if kind != "insert" and not mirror:
            kind = "insert"  # nothing to delete/modify yet
        if kind == "insert":
            row = self._random_row(schema)
            mirror.append(row)
            return Update.insert(relation, row)
        victim_index = self._rng.randrange(len(mirror))
        victim = mirror[victim_index]
        if kind == "delete":
            mirror.pop(victim_index)
            return Update.delete(relation, victim)
        replacement = self._random_row(schema)
        mirror[victim_index] = replacement
        return Update.modify(relation, victim, replacement)

    def _pick_relation(self) -> str:
        return self._rng.choices(self._relations, self._weights)[0]

    def _make_transaction(self) -> SourceTransaction:
        first = self._make_update(self._pick_relation())
        updates = [first]
        if self._rng.random() < self.spec.multi_update_fraction:
            # §6.2: a transaction touching 2-3 relations of one source.
            origin = self.world.owner_of(first.relation)
            candidates = [
                r
                for r in sorted(self.world.relations_of(origin))
                if r != first.relation
            ]
            self._rng.shuffle(candidates)
            for relation in candidates[: self._rng.randrange(1, 3)]:
                updates.append(self._make_update(relation))
            return SourceTransaction(origin, tuple(updates))
        return SourceTransaction.single(self.world.owner_of(first.relation), first)

    # -- stream assembly -------------------------------------------------------
    def transactions(self) -> list[tuple[float, SourceTransaction]]:
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
