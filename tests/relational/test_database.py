"""Tests for database states and versioning."""

import pytest

from repro.errors import SourceError
from repro.relational.database import Database, VersionedDatabase
from repro.relational.delta import Delta
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

    def test_fingerprint_changes_with_content(self):
        db = Database()
        db.create_relation("R", Schema(["a"]))
        before = db.state_fingerprint()
        db.apply_deltas({"R": Delta.insert(Row(a=1))})
        assert db.state_fingerprint() != before


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
