"""Tests for database states and versioning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RelationError, SchemaError, SourceError
from repro.relational.database import Database, VersionedDatabase
from repro.relational.delta import Delta
from repro.relational.relation import Relation
from repro.relational.rows import Row
from repro.relational.schema import Schema


class TestDatabase:
    def test_create_and_lookup(self):
        db = Database()
        db.create_relation("R", Schema(["a"]), [Row(a=1)])
        assert len(db.relation("R")) == 1
        assert "R" in db

    def test_duplicate_relation_rejected(self):
        db = Database()
        db.create_relation("R", Schema(["a"]))
        with pytest.raises(SourceError):
            db.create_relation("R", Schema(["a"]))

    def test_unknown_relation(self):
        with pytest.raises(SourceError):
            Database().relation("Z")

    def test_apply_deltas(self):
        db = Database()
        db.create_relation("R", Schema(["a"]))
        db.apply_deltas({"R": Delta.insert(Row(a=1))})
        assert Row(a=1) in db.relation("R")

    def test_a_row_that_does_not_fit_fails_before_anything_changes(self):
        vdb = two_relations()
        fine = Delta({Row(a=0): -1, Row(a=5): 1})
        with pytest.raises(SchemaError):  # no delta holds two headings
            vdb.commit({
                "R": fine,
                "S": Delta({Row(b=0): -1, Row(b=1): 1, Row(zzz=1): 1}),
            })
        misfits = [
            Delta({(0,): -1, (1,): 1, ("1",): 1}, ("b",)),  # a value's class
            Delta({(0,): -1, (1, 2): 1}, ("b",)),  # a tuple's arity
            Delta({(0,): -1, (1,): 1}, ("zzz",)),  # the layout
            Delta.insert(Row(zzz=1)),
        ]
        for bad in misfits:
            with pytest.raises(SchemaError):
                vdb.commit({"R": fine, "S": bad})
        with pytest.raises(RelationError):  # found while applying: taken back
            vdb.commit({"R": fine, "S": Delta({Row(b=1): 1, Row(b=7): -1})})
        assert vdb.version == 0
        assert db_contents(vdb.current) == db_contents(vdb.as_of(0))
        assert db_contents(vdb.current)["S"] == {Row(b=0): 1}
        assert db_contents(vdb.current)["R"] == {Row(a=0): 1}

    def test_snapshot_is_frozen(self):
        db = Database()
        db.create_relation("R", Schema(["a"]))
        snap = db.snapshot()
        with pytest.raises(SourceError):
            snap.apply_deltas({"R": Delta.insert(Row(a=1))})

    def test_snapshot_is_independent(self):
        db = Database()
        db.create_relation("R", Schema(["a"]))
        snap = db.snapshot()
        db.apply_deltas({"R": Delta.insert(Row(a=1))})
        assert len(snap.relation("R")) == 0
        assert len(db.relation("R")) == 1

    def test_same_state_as(self):
        db1, db2 = Database(), Database()
        for db in (db1, db2):
            db.create_relation("R", Schema(["a"]), [Row(a=1)])
        assert db1.same_state_as(db2)
        db2.apply_deltas({"R": Delta.insert(Row(a=2))})
        assert not db1.same_state_as(db2)


class TestVersionedDatabase:
    def test_initial_version_zero(self):
        vdb = VersionedDatabase()
        vdb.create_relation("R", Schema(["a"]))
        assert vdb.version == 0
        assert len(vdb.as_of(0).relation("R")) == 0

    def test_commit_advances_version(self):
        vdb = VersionedDatabase()
        vdb.create_relation("R", Schema(["a"]))
        v = vdb.commit({"R": Delta.insert(Row(a=1))})
        assert v == 1
        assert vdb.version == 1

    def test_as_of_returns_historical_state(self):
        vdb = VersionedDatabase()
        vdb.create_relation("R", Schema(["a"]))
        vdb.commit({"R": Delta.insert(Row(a=1))})
        vdb.commit({"R": Delta.insert(Row(a=2))})
        assert len(vdb.as_of(0).relation("R")) == 0
        assert len(vdb.as_of(1).relation("R")) == 1
        assert len(vdb.as_of(2).relation("R")) == 2

    def test_as_of_future_version_raises(self):
        vdb = VersionedDatabase()
        vdb.create_relation("R", Schema(["a"]))
        with pytest.raises(SourceError):
            vdb.as_of(3)

    def test_failed_commit_leaves_state_unchanged(self):
        vdb = VersionedDatabase()
        vdb.create_relation("R", Schema(["a"]))
        with pytest.raises(Exception):
            vdb.commit({"R": Delta.delete(Row(a=99))})
        assert vdb.version == 0
        assert len(vdb.current.relation("R")) == 0

    def test_create_after_commit_rejected(self):
        vdb = VersionedDatabase()
        vdb.create_relation("R", Schema(["a"]))
        vdb.commit({"R": Delta.insert(Row(a=1))})
        with pytest.raises(SourceError):
            vdb.create_relation("S", Schema(["b"]))

    def test_prune(self):
        vdb = VersionedDatabase()
        vdb.create_relation("R", Schema(["a"]))
        for i in range(4):
            vdb.commit({"R": Delta.insert(Row(a=i))})
        vdb.prune_below(3)
        assert vdb.retained_versions() == (3, 4)
        with pytest.raises(SourceError, match="pruned"):
            vdb.as_of(1)
        assert len(vdb.as_of(3).relation("R")) == 3


def two_relations() -> VersionedDatabase:
    vdb = VersionedDatabase()
    vdb.create_relation("R", Schema(["a"]), [Row(a=0)])
    vdb.create_relation("S", Schema(["b"]), [Row(b=0)])
    vdb.create_relation("T", Schema(["c"]))
    return vdb


def db_contents(db: Database) -> dict:
    return {name: dict(db.relation(name).counts()) for name in db.relation_names}


class TestSharedVersions:
    """A commit re-copies the relations its deltas name and shares the rest."""

    COMMITS = [
        {"R": Delta.insert(Row(a=1))},
        {"S": Delta.insert(Row(b=1)), "T": Delta.insert(Row(c=1))},
        {"R": Delta.delete(Row(a=0))},
        {"T": Delta()},
    ]

    def test_untouched_relations_are_shared_touched_ones_copied(self):
        vdb = two_relations()
        for deltas in self.COMMITS:
            previous = vdb.as_of(vdb.version)
            version = vdb.commit(deltas)
            snap = vdb.as_of(version)
            for name in snap.relation_names:
                if name in deltas:
                    assert snap.relation(name) is not previous.relation(name)
                    assert snap.relation(name) is not vdb.relation(name)
                else:
                    assert snap.relation(name) is previous.relation(name)
            # The full-copy oracle.
            assert snap.same_state_as(vdb.current.snapshot())
            assert snap.schemas == vdb.schemas

    def test_earlier_versions_do_not_change_after_later_commits(self):
        vdb = two_relations()
        frozen = [db_contents(vdb.as_of(0))]
        for deltas in self.COMMITS:
            vdb.commit(deltas)
            frozen.append(db_contents(vdb.current))
            assert [
                db_contents(vdb.as_of(v)) for v in range(vdb.version + 1)
            ] == frozen

    def test_shared_snapshots_stay_frozen(self):
        vdb = two_relations()
        vdb.commit(self.COMMITS[0])
        with pytest.raises(SourceError):
            vdb.as_of(1).apply_delta("S", Delta.insert(Row(b=5)))
        with pytest.raises(SourceError):
            vdb.as_of(1).create_relation("U", Schema(["u"]))

    def test_failed_commit_records_nothing(self):
        vdb = two_relations()
        vdb.commit(self.COMMITS[0])
        before = vdb.as_of(1)
        with pytest.raises(Exception):
            vdb.commit({"S": Delta.insert(Row(b=7)), "R": Delta.delete(Row(a=99))})
        assert vdb.version == 1 and vdb.as_of(1) is before
        assert db_contents(before) == db_contents(vdb.current)

    def test_commit_after_prune_yields_a_complete_snapshot(self):
        vdb = two_relations()
        for deltas in self.COMMITS[:2]:
            vdb.commit(deltas)
        vdb.prune_below(3)  # drops every retained version, the newest too
        assert vdb.retained_versions() == ()
        version = vdb.commit(self.COMMITS[2])
        snap = vdb.as_of(version)
        assert set(snap.relation_names) == {"R", "S", "T"}
        assert snap.same_state_as(vdb.current.snapshot())
        assert all(
            snap.relation(n) is not vdb.relation(n) for n in snap.relation_names
        )
        # ... and sharing resumes from it.
        snap2 = vdb.as_of(vdb.commit(self.COMMITS[3]))
        assert snap2.relation("R") is snap.relation("R")
        assert snap2.same_state_as(vdb.current.snapshot())


class EagerOracle:
    """The deleted eager path: a full copy of every relation per commit,
    plus which versions ``as_of`` has built (to predict what is shared)."""

    def __init__(self, vdb: VersionedDatabase) -> None:
        self.vdb = vdb
        self.contents = [db_contents(vdb.current)]
        self.deltas: list[dict] = [{}]  # deltas[v] led to version v
        self.built: dict[int, Database] = {}
        self.floor = 0

    def commit(self, deltas: dict) -> None:
        self.vdb.commit(deltas)
        self.contents.append(db_contents(self.vdb.current))
        self.deltas.append(deltas)

    def read(self, version: int) -> None:
        if version < self.floor:
            with pytest.raises(SourceError, match="pruned"):
                self.vdb.as_of(version)
            return
        snap = self.vdb.as_of(version)
        assert db_contents(snap) == self.contents[version]
        assert snap.schemas == self.vdb.schemas
        if version in self.built:
            assert snap is self.built[version]
            return
        live = self.vdb.current
        earlier = [v for v in self.built if v < version]
        if earlier:
            base = self.built[max(earlier)]
            named = {
                n for d in self.deltas[max(earlier) + 1:version + 1] for n in d
            }
            for name in snap.relation_names:
                if name in named:
                    assert snap.relation(name) is not base.relation(name)
                else:
                    assert snap.relation(name) is base.relation(name)
        assert all(
            snap.relation(n) is not live.relation(n) for n in snap.relation_names
        )
        self.built[version] = snap

    def prune(self, floor: int) -> None:
        self.vdb.prune_below(floor)
        self.floor = max(self.floor, floor)
        self.built = {v: s for v, s in self.built.items() if v >= self.floor}
        if self.floor <= self.vdb.version:
            # The floor was built by the prune: later versions start there.
            self.built.setdefault(self.floor, self.vdb.as_of(self.floor))

    def check(self) -> None:
        """No snapshot, however late it was built, changes afterwards."""
        for version, snap in self.built.items():
            assert db_contents(snap) == self.contents[version]
        assert self.vdb.retained_versions() == tuple(
            range(self.floor, self.vdb.version + 1)
        )


@st.composite
def version_scripts(draw):
    return draw(st.lists(
        st.tuples(
            st.sampled_from(["commit", "commit", "read", "read", "prune"]),
            st.integers(0, 10_000),
            st.lists(st.tuples(st.sampled_from("RST"), st.integers(-3, 3)),
                     max_size=3),
        ),
        max_size=30,
    ))


@given(script=version_scripts())
@settings(max_examples=150, deadline=None)
def test_any_interleaving_of_commit_prune_and_read_matches_eager_copies(script):
    oracle = EagerOracle(two_relations())
    attr = {"R": "a", "S": "b", "T": "c"}
    for op, number, changes in script:
        version = oracle.vdb.version
        if op == "commit":
            deltas = {}
            for name, value in changes:
                # value < 0 deletes a row when one is there, 0 names the
                # relation with an empty delta, > 0 inserts.
                present = sorted(oracle.contents[-1][name])
                if value > 0:
                    delta = Delta.insert(Row(**{attr[name]: value}))
                elif value < 0 and present and name not in deltas:
                    delta = Delta.delete(present[number % len(present)])
                else:
                    delta = Delta()
                deltas[name] = deltas.get(name, Delta()).combined(delta)
            oracle.commit(deltas)
        elif op == "read":
            oracle.read(number % (version + 1))
        else:
            oracle.prune(number % (version + 3))
        oracle.check()
    for version in range(oracle.vdb.version, -1, -1):  # newest first
        oracle.read(version)
    oracle.check()


def test_version_zero_is_not_recopied_per_created_relation(monkeypatch):
    copies = []
    original = Relation.copy
    monkeypatch.setattr(
        Relation, "copy", lambda self: copies.append(self) or original(self)
    )
    vdb = two_relations()
    for deltas in TestSharedVersions.COMMITS:
        vdb.commit(deltas)
    assert copies == []  # neither set-up nor a commit copies a relation
    assert db_contents(vdb.as_of(0)) == {
        "R": {Row(a=0): 1}, "S": {Row(b=0): 1}, "T": {}
    }
    assert len(copies) == 3  # the live state, rolled back through the log


def test_version_zero_read_early_is_rebuilt_after_a_later_create():
    vdb = VersionedDatabase()
    vdb.create_relation("R", Schema(["a"]), [Row(a=0)])
    assert vdb.as_of(0).relation_names == ("R",)
    vdb.create_relation("S", Schema(["b"]))
    assert vdb.as_of(0).relation_names == ("R", "S")
