"""Database states: named relations, snapshots and version histories.

Two classes:

* :class:`Database` — a mutable mapping from relation name to
  :class:`~repro.relational.relation.Relation`, with schema registry and
  cheap snapshotting.  Snapshots are themselves (frozen) databases, so the
  algebra evaluator works on either.
* :class:`VersionedDatabase` — a database that retains a snapshot per
  committed version.  This is the multiversion capability our simulated
  sources expose so *complete* view managers can ask for "the state as of
  update j" (the paper's sources are queried live and compensated instead;
  both manager styles are implemented in :mod:`repro.viewmgr`).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import SourceError
from repro.relational.delta import Delta
from repro.relational.relation import Relation
from repro.relational.rows import Row
from repro.relational.schema import Schema


class Database:
    """A set of named relations with registered schemas."""

    __slots__ = ("_relations", "_schemas", "_frozen")

    def __init__(self) -> None:
        self._relations: dict[str, Relation] = {}
        self._schemas: dict[str, Schema] = {}
        self._frozen = False

    # -- registry ---------------------------------------------------------
    def create_relation(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[Row | Mapping[str, object]] = (),
    ) -> Relation:
        """Register and return a new relation."""
        self._check_mutable()
        if name in self._relations:
            raise SourceError(f"relation {name!r} already exists")
        relation = Relation(schema, rows)
        self._relations[name] = relation
        self._schemas[name] = schema
        return relation

    @property
    def schemas(self) -> Mapping[str, Schema]:
        return dict(self._schemas)

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SourceError(f"unknown relation {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    # -- mutation -----------------------------------------------------------
    def _check_mutable(self) -> None:
        if self._frozen:
            raise SourceError("cannot mutate a database snapshot")

    def apply_delta(self, name: str, delta: Delta) -> None:
        self._check_mutable()
        delta.apply_to(self.relation(name))

    def apply_deltas(self, deltas: Mapping[str, Delta]) -> None:
        """Apply several deltas atomically.

        Every delta is validated against its relation before anything is
        mutated, so a bad delta raises with the database untouched —
        callers never see a half-applied batch.
        """
        self._check_mutable()
        for name, delta in deltas.items():
            delta.check_applicable(self.relation(name))
        for name, delta in deltas.items():
            delta._apply_unchecked(self.relation(name))

    # -- snapshots ------------------------------------------------------------
    def snapshot(self) -> "Database":
        """Return an immutable copy of the current state."""
        snap = Database()
        snap._schemas = dict(self._schemas)
        snap._relations = {n: r.copy() for n, r in self._relations.items()}
        snap._frozen = True
        return snap

    def snapshot_after(
        self, previous: "Database", changed: Iterable[str]
    ) -> "Database":
        """An immutable copy of the current state that shares with
        ``previous`` — a snapshot taken when only the ``changed`` relations
        differed from now — every other relation, instead of copying it."""
        snap = Database()
        snap._schemas = previous._schemas
        snap._relations = dict(previous._relations)
        for name in changed:
            snap._relations[name] = self._relations[name].copy()
        snap._frozen = True
        return snap

    def state_fingerprint(self) -> int:
        """A hash of the full contents — handy for fast state comparison."""
        return hash(
            tuple(
                (name, frozenset(self._relations[name].counts()))
                for name in sorted(self._relations)
            )
        )

    def same_state_as(self, other: "Database") -> bool:
        if set(self._relations) != set(other._relations):
            return False
        return all(
            self._relations[n] == other._relations[n] for n in self._relations
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{n}[{len(r)}]" for n, r in sorted(self._relations.items())
        )
        return f"Database({inner})"


class VersionedDatabase:
    """A database retaining an immutable snapshot per committed version.

    Version 0 is the initial state; committing advances the version by one
    and records a snapshot.  ``as_of(v)`` returns the snapshot for version
    ``v``.  Old versions can be pruned once no reader needs them.

    Consecutive snapshots share the relations a commit did not touch, so a
    commit copies only the relations named in its deltas.  The base state
    must change through :meth:`commit` only (relations are created before
    the first one); ``as_of`` relations are read-only.
    """

    __slots__ = ("_current", "_versions", "_version", "_pruned_below")

    def __init__(self, initial: Database | None = None) -> None:
        self._current = initial if initial is not None else Database()
        self._version = 0
        self._versions: dict[int, Database] = {0: self._current.snapshot()}
        self._pruned_below = 0

    # -- registry passthrough -------------------------------------------------
    def create_relation(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[Row | Mapping[str, object]] = (),
    ) -> Relation:
        if self._version != 0:
            raise SourceError("relations must be created before any commit")
        relation = self._current.create_relation(name, schema, rows)
        self._versions[0] = self._current.snapshot()
        return relation

    @property
    def schemas(self) -> Mapping[str, Schema]:
        return self._current.schemas

    @property
    def version(self) -> int:
        return self._version

    @property
    def current(self) -> Database:
        return self._current

    def relation(self, name: str) -> Relation:
        return self._current.relation(name)

    # -- versioned commits ------------------------------------------------------
    def commit(self, deltas: Mapping[str, Delta]) -> int:
        """Apply ``deltas`` atomically and record a new version.

        Returns the new version number.  If applying any delta fails, the
        database is left at the previous version — ``apply_deltas``
        validates every delta before mutating anything, so no full-state
        dry-run copy is needed per commit.
        """
        self._current.apply_deltas(deltas)
        previous = self._versions.get(self._version)
        self._version += 1
        self._versions[self._version] = (
            self._current.snapshot_after(previous, deltas)
            if previous is not None
            else self._current.snapshot()  # the previous version was pruned
        )
        return self._version

    def as_of(self, version: int) -> Database:
        """The snapshot at ``version`` (0 = initial state)."""
        if version in self._versions:
            return self._versions[version]
        if version < self._pruned_below:
            raise SourceError(f"version {version} has been pruned")
        raise SourceError(
            f"no version {version} (current version is {self._version})"
        )

    def prune_below(self, version: int) -> None:
        """Drop snapshots strictly older than ``version``."""
        for v in [v for v in self._versions if v < version]:
            del self._versions[v]
        self._pruned_below = max(self._pruned_below, version)

    def retained_versions(self) -> tuple[int, ...]:
        return tuple(sorted(self._versions))
