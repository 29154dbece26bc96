"""The update-stream generator with the ``Row`` planning mirror it had
before the mirror held value tuples: ``__init__``, ``_make_update`` and
``_pick_relation`` kept verbatim (``choices`` over plain weights, before
the generator summed them once), so the property tests can hold streams
equal to it."""

import random

from repro.relational.rows import Row
from repro.sources.update import Update
from repro.sources.world import SourceWorld
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec


class RowMirrorGenerator(UpdateStreamGenerator):
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
