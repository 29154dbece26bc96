"""Database states: named relations, snapshots and version histories.

Two classes:

* :class:`Database` — a mutable mapping from relation name to
  :class:`~repro.relational.relation.Relation`, with schema registry and
  cheap snapshotting.  Snapshots are themselves (frozen) databases, so the
  algebra evaluator works on either.
* :class:`VersionedDatabase` — a database that logs the deltas of every
  commit and builds the snapshot of a version when it is first read.  This
  is the multiversion capability our simulated sources expose so
  *complete* view managers can ask for "the state as of update j" (the
  paper's sources are queried live and compensated instead; both manager
  styles are implemented in :mod:`repro.viewmgr`).
"""

from __future__ import annotations

from bisect import bisect_left
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

        Each delta applies all or nothing, and when one fails the ones
        applied before it are taken back: a bad delta raises with the
        database untouched, callers never see a half-applied batch.
        """
        self._check_mutable()
        applied: list[tuple[Delta, Relation]] = []
        try:
            for name, delta in deltas.items():
                relation = self.relation(name)
                delta.apply_to(relation)
                applied.append((delta, relation))
        except Exception:
            for delta, relation in reversed(applied):
                delta.negated()._apply_unchecked(relation)
            raise

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
    """A database that can show any committed version of itself.

    Version 0 is the initial state; committing advances the version by one
    and logs the commit's deltas, nothing else: a commit costs O(|delta|).
    ``as_of(v)`` builds the immutable snapshot of version ``v`` the first
    time it is asked for and keeps it.  Old versions can be pruned once no
    reader needs them.

    A snapshot shares with the nearest earlier snapshot every relation no
    delta in between names, so reading all versions in order copies, in
    total, one relation per (commit, named relation).  The base state
    must change through :meth:`commit` only (relations are created before
    the first one); ``as_of`` relations are read-only.
    """

    __slots__ = (
        "_current", "_version", "_log", "_log_floor", "_built", "_snapshots",
        "_pruned_below",
    )

    def __init__(self, initial: Database | None = None) -> None:
        self._current = initial if initial is not None else Database()
        self._version = 0
        # The deltas of the commits that led from version _log_floor to
        # the current one, oldest first.
        self._log: list[Mapping[str, Delta]] = []
        self._log_floor = 0
        # The snapshots built so far: ascending versions and, in step,
        # their states, so the nearest earlier one is a bisect away.
        self._built: list[int] = []
        self._snapshots: list[Database] = []
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
        self._built.clear()  # a version 0 read before this relation existed
        self._snapshots.clear()
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
        """Apply ``deltas`` atomically and log them as a new version.

        Returns the new version number.  If any delta cannot be applied,
        the database is left at the previous version — ``apply_deltas``
        validates every delta before mutating anything.
        """
        self._current.apply_deltas(deltas)
        self._version += 1
        self._log.append(dict(deltas))
        return self._version

    def as_of(self, version: int) -> Database:
        """The snapshot at ``version`` (0 = initial state)."""
        at = bisect_left(self._built, version)
        if at < len(self._built) and self._built[at] == version:
            return self._snapshots[at]
        if version < self._pruned_below:
            raise SourceError(f"version {version} has been pruned")
        if not 0 <= version <= self._version:
            raise SourceError(
                f"no version {version} (current version is {self._version})"
            )
        replay: list[tuple[str, Delta]] = []
        if at:
            base = self._snapshots[at - 1]
            between = self._logged(self._built[at - 1], version)
            changed = {name for deltas in between for name in deltas}
            # Every relation no delta in between names is the base's own;
            # a named one is copied once, from the live state when that is
            # the version asked for, else from the base and rolled forward.
            if version == self._version:
                snap = self._current.snapshot_after(base, changed)
            else:
                snap = base.snapshot_after(base, changed)
                replay = [item for deltas in between for item in deltas.items()]
        else:
            # Nothing earlier survives: undo the later commits on a copy
            # of the live state.
            snap = self._current.snapshot()
            replay = [
                (name, delta.negated())
                for deltas in reversed(self._logged(version, self._version))
                for name, delta in deltas.items()
            ]
        for name, delta in replay:
            delta._apply_unchecked(snap._relations[name])
        self._built.insert(at, version)
        self._snapshots.insert(at, snap)
        return snap

    def _logged(self, after: int, through: int) -> list[Mapping[str, Delta]]:
        """The deltas of the commits that led from ``after`` to ``through``."""
        return self._log[after - self._log_floor:through - self._log_floor]

    def prune_below(self, version: int) -> None:
        """Forget every version strictly older than ``version``."""
        if version <= self._pruned_below:
            return
        if version <= self._version:
            self.as_of(version)  # later versions are built from this one
        keep = bisect_left(self._built, version)
        del self._built[:keep]
        del self._snapshots[:keep]
        dropped = min(version, self._version) - self._log_floor
        del self._log[:dropped]
        self._log_floor += dropped
        self._pruned_below = version

    def retained_versions(self) -> tuple[int, ...]:
        """The versions ``as_of`` can still show."""
        return tuple(range(self._pruned_below, self._version + 1))
