"""Value semantics of the run path's records (``repro.record``).

The records were frozen dataclasses; each sample here is checked against a
dataclass twin built from the field names the table lists, so ``==``,
``hash`` and ``repr`` must behave as the dataclass's did: equal only within
one class, the hash of the compared fields' tuple, ``Name(field=value,
...)`` without the cache slots.  Pickle and ``deepcopy`` round-trip, and the
AST nodes (expressions, predicates, ``Attribute``, ``ViewDefinition``)
refuse assignment.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.merge.base import ReadyUnit
from repro.merge.process import MergeCheckpoint
from repro.merge.vut import Color, Entry
from repro.messages import (
    AckFrame,
    ActionListMessage,
    CommitNotification,
    EndOfBlock,
    NumberedUpdate,
    RelMessage,
    SequencedFrame,
    SnapshotQuery,
    SnapshotResponse,
    UpdateForView,
    UpdateNotification,
    WarehouseTransactionMsg,
)
from repro.record import Node, Record
from repro.relational.delta import Delta
from repro.relational.expressions import (
    Aggregate,
    AggregateSpec,
    BaseRelation,
    Join,
    Project,
    Select,
    ViewDefinition,
)
from repro.relational.parser import _Token
from repro.relational.predicates import (
    TRUE,
    And,
    Attr,
    Comparison,
    Const,
    Not,
    Or,
    TruePredicate,
)
from repro.relational.relation import Relation
from repro.relational.rows import Row
from repro.relational.schema import Attribute, AttrType
from repro.sim.network import Transmission
from repro.sim.tracing import TraceEvent
from repro.sources.transactions import CommittedTransaction, SourceTransaction
from repro.sources.update import Update
from repro.viewmgr.actions import Action, ActionKind, ActionList
from repro.viewmgr.base import ViewCheckpoint
from repro.warehouse.txn import WarehouseTransaction

R, S = BaseRelation("R"), BaseRelation("S")
CMP = Comparison(Attr("A"), "<", Const(6))
UPDATE = Update.modify("R", {"A": 1, "B": 2}, {"A": 1, "B": 3})
TXN = SourceTransaction.single("src0", UPDATE)
ACTION = Action("V1", ActionKind.APPLY_DELTA, Delta.insert(Row(A=1)))
AL = ActionList("V1", "vm:V1", 3, (2, 3), (ACTION,))
WT = WarehouseTransaction(1, "merge", (AL,), (2, 3))

#: one sample per record class, with its fields in constructor order
SAMPLES: list[tuple[Record, str]] = [
    (UpdateNotification(TXN, 1.5, 7), "transaction commit_time lineage_id"),
    (NumberedUpdate(1, (UPDATE,)), "update_id updates"),
    (RelMessage(1, frozenset({"V1", "V2"})), "update_id views"),
    (UpdateForView(1, "V1", (UPDATE,)), "update_id view updates"),
    (EndOfBlock(0, 4), "block through"),
    (SnapshotQuery(1, "vm:V1", frozenset({"R"}), 2, 1),
     "query_id requester relations version undo_from"),
    (SnapshotResponse(1, 2, {"R": (("A", "B"), {(1, 2): 1})}, ((2, UPDATE),)),
     "query_id version contents undo_updates"),
    (ActionListMessage(AL), "action_list"),
    (WarehouseTransactionMsg(WT, (1,)), "txn sequenced_after"),
    (CommitNotification(1, 2.5, "merge"), "txn_id commit_time merge_name"),
    (SequencedFrame(4, RelMessage(1, frozenset({"V1"}))), "seq payload"),
    (AckFrame(4), "ack"),
    (Attr("A"), "name"),
    (Const(6), "literal"),
    (TruePredicate(), ""),
    (CMP, "lhs op rhs"),
    (And(CMP, TRUE), "left right"),
    (Or(CMP, TRUE), "left right"),
    (Not(CMP), "child"),
    (R, "name"),
    (Select(CMP, R), "predicate child"),
    (Project(("A",), R), "names child"),
    (Join(R, S, ("B",)), "left right on"),
    (AggregateSpec("sum", "tot", "A"), "fn alias attr"),
    (Aggregate(("B",), (AggregateSpec("count", "n"),), R),
     "group_by aggregates child"),
    (ViewDefinition("V1", Join(R, S)), "name expression"),
    (Attribute("A", AttrType.STR), "name type"),
    (_Token("name", "R", 14), "kind text position"),
    (UPDATE, "relation kind row new_row"),
    (TXN, "origin updates"),
    (CommittedTransaction(3, 1.5, TXN, {"note": 1}),
     "sequence commit_time transaction detail"),
    (ACTION, "view kind delta replacement"),
    (AL, "view manager last_update covered actions"),
    (WT, "txn_id merge_name action_lists covered_rows"),
    (ReadyUnit((2, 3), (AL,)), "rows action_lists"),
    (Entry(Color.RED, 4), "color state"),
    # record semantics only: the recovery tests restore real checkpoints
    (MergeCheckpoint("algorithm", "policy", 5, 4, {"warehouse": (1, ())}),
     "algorithm policy next_txn_id transactions_formed channel_states"),
    (ViewCheckpoint({"R": (("A", "B"), {(1, 2): 1})}, {}, (), (),
                    ((3,), (("A",), {(1,): -1})), True, 2, 2, 2,
                    {"closed_through": 3}),
     "replica aux buffer current_batch pending_emit computing applied_version"
     " action_lists_sent updates_processed extra"),
    (TraceEvent(1.0, "wh_commit", "warehouse", {"txn": 1}),
     "time kind process detail"),
    (Transmission(True, 1, 0.5), "drop duplicates extra_delay"),
]
#: fields the dataclass kept outside ``==`` and ``hash``
NOT_COMPARED = {CommittedTransaction: {"detail"}, TraceEvent: {"detail"}}
#: the dataclass was not frozen, so it was unhashable
MUTABLE = {Entry}

IDS = [type(sample).__name__ for sample, _ in SAMPLES]


def twin(sample: Record, names: str) -> object:
    """The frozen dataclass the record class replaced, holding its values."""
    cls = type(sample)
    fields = [
        (name, object, dataclasses.field(
            compare=name not in NOT_COMPARED.get(cls, ())))
        for name in names.split()
    ]
    made = dataclasses.make_dataclass(
        cls.__name__, fields, frozen=cls not in MUTABLE)
    return made(*(getattr(sample, name) for name in names.split()))


def compared(sample: Record, names: str) -> tuple:
    skip = NOT_COMPARED.get(type(sample), ())
    return tuple(getattr(sample, n) for n in names.split() if n not in skip)


def test_every_record_class_has_a_sample():
    def subclasses(cls: type) -> set[type]:
        return {c for sub in cls.__subclasses__() for c in {sub, *subclasses(sub)}}

    defined = {c for c in subclasses(Record) - {Node}
               if c.__module__.startswith("repro.")}
    assert defined - {type(sample) for sample, _ in SAMPLES} == set()


@pytest.mark.parametrize("sample, names", SAMPLES, ids=IDS)
class TestValueSemantics:
    def test_repr_is_the_dataclass_repr(self, sample, names):
        assert repr(sample) == repr(twin(sample, names))
        for cache in ("_delta", "_view_set", "_hash"):
            assert f"{cache}=" not in repr(sample)

    def test_hash_is_the_hash_of_the_field_tuple(self, sample, names):
        if type(sample) in MUTABLE:
            with pytest.raises(TypeError):
                hash(sample)
            return
        try:
            expected = hash(compared(sample, names))
        except TypeError:  # an unhashable field: so was the dataclass
            with pytest.raises(TypeError):
                hash(sample)
            return
        assert hash(sample) == expected == hash(twin(sample, names))

    def test_equal_only_within_one_class(self, sample, names):
        rebuilt = type(sample)(*(getattr(sample, n) for n in names.split()))
        assert rebuilt == sample and not rebuilt != sample
        assert sample != twin(sample, names) and twin(sample, names) != sample
        others = [other for other, _ in SAMPLES if type(other) is not type(sample)]
        assert all(sample != other for other in others)

    def test_pickle_and_deepcopy_round_trip(self, sample, names):
        def typed_fields(record):
            # not the repr: a rebuilt set may iterate in another order
            return [(type(v), v) for v in map(record.__getattribute__,
                                               names.split())]

        for loaded in (pickle.loads(pickle.dumps(sample)), copy.deepcopy(sample)):
            assert type(loaded) is type(sample) and loaded == sample
            assert typed_fields(loaded) == typed_fields(sample)
            if isinstance(sample, Node):  # the hash is computed again
                assert hash(loaded) == hash(sample)

    def test_ast_nodes_refuse_assignment(self, sample, names):
        if not isinstance(sample, Node):
            return
        for name in names.split() + ["_hash"]:
            with pytest.raises(AttributeError):
                setattr(sample, name, None)
            with pytest.raises(AttributeError):
                delattr(sample, name)


def test_same_fields_in_another_class_are_unequal():
    assert And(CMP, TRUE) != Or(CMP, TRUE)
    assert hash(And(CMP, TRUE)) == hash(Or(CMP, TRUE))  # the field tuple's
    assert Attr("A") != BaseRelation("A")


def test_an_unhashable_field_raises_on_hash_not_on_build():
    node = Comparison(Attr("A"), "=", Const([1, 2]))
    assert node == Comparison(Attr("A"), "=", Const([1, 2]))
    with pytest.raises(TypeError, match="unhashable"):
        hash(node)


def test_compare_narrows_eq_and_hash_but_not_repr():
    a = TraceEvent(1.0, "k", "p", {"x": 1})
    b = TraceEvent(1.0, "k", "p", {"x": 2})
    assert a == b and hash(a) == hash(b) and repr(a) != repr(b)


def test_node_hashes_repeat_across_processes():
    """Before Python 3.12 ``hash(None)`` is the address of ``None``: a node
    with a ``None`` field (a natural join, a ``count`` spec) hashes it as a
    constant, so two interpreters under one ``PYTHONHASHSEED`` agree; a
    node without one still hashes as its field tuple."""
    script = (
        "from repro.relational.expressions import AggregateSpec, BaseRelation, Join\n"
        "from repro.relational.predicates import Const\n"
        "R, S = BaseRelation('R'), BaseRelation('S')\n"
        "print([hash(n) for n in (Join(R, S), Join(R, S, ('B',)),"
        " AggregateSpec('count', 'n'), Const(None), R)])\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"))
    first, second = (
        subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, check=True, env=env).stdout
        for _ in range(2)
    )
    assert first == second
    assert hash(BaseRelation("R")) == hash(("R",))
