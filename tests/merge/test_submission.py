"""Tests for the §4.3 submission policies."""

import copy
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MergeError
from repro.merge.submission import (
    BatchingPolicy,
    DbmsDependencyPolicy,
    DependencySequencedPolicy,
    EagerPolicy,
    SequentialPolicy,
    SubmissionPolicy,
)
from repro.messages import WarehouseTransactionMsg
from repro.relational.delta import Delta
from repro.relational.rows import Row
from repro.viewmgr.actions import ActionList
from repro.warehouse.txn import WarehouseTransaction, batch


def make_txn(txn_id: int, views: tuple[str, ...], row: int) -> WarehouseTransaction:
    lists = tuple(
        ActionList.from_delta(v, v, (row,), Delta.insert(Row(x=txn_id)))
        for v in views
    )
    return WarehouseTransaction(txn_id, "merge", lists, (row,))


class Harness:
    """Captures submissions; drives commits manually."""

    def __init__(self, policy, sent=()):
        self.policy = policy
        self.sent = list(sent)
        self._ids = iter(range(100, 200))
        policy.bind(self.sent.append, lambda: next(self._ids))

    def commit(self, txn_id):
        self.policy.on_commit(txn_id)

    @property
    def sent_ids(self):
        return [m.txn.txn_id for m in self.sent]


class TestEager:
    def test_submits_immediately(self):
        h = Harness(EagerPolicy())
        h.policy.offer(make_txn(1, ("V1",), 1))
        h.policy.offer(make_txn(2, ("V1",), 2))
        assert h.sent_ids == [1, 2]
        assert h.sent[0].sequenced_after == ()

    def test_unbound_policy_raises(self):
        with pytest.raises(MergeError, match="never bound"):
            EagerPolicy().offer(make_txn(1, ("V1",), 1))


class TestSequential:
    def test_one_outstanding_at_a_time(self):
        h = Harness(SequentialPolicy())
        h.policy.offer(make_txn(1, ("V1",), 1))
        h.policy.offer(make_txn(2, ("V2",), 2))
        assert h.sent_ids == [1]
        assert h.policy.pending == 1
        h.commit(1)
        assert h.sent_ids == [1, 2]

    def test_commit_of_unknown_txn_is_ignored(self):
        h = Harness(SequentialPolicy())
        h.policy.offer(make_txn(1, ("V1",), 1))
        h.commit(999)
        assert h.sent_ids == [1]


class TestDependencySequenced:
    def test_independent_txns_overlap(self):
        h = Harness(DependencySequencedPolicy())
        h.policy.offer(make_txn(1, ("V1",), 1))
        h.policy.offer(make_txn(2, ("V2",), 2))
        assert h.sent_ids == [1, 2]

    def test_dependent_txn_waits(self):
        h = Harness(DependencySequencedPolicy())
        h.policy.offer(make_txn(1, ("V1", "V2"), 1))
        h.policy.offer(make_txn(2, ("V2",), 2))
        assert h.sent_ids == [1]
        h.commit(1)
        assert h.sent_ids == [1, 2]

    def test_queued_dependents_keep_order(self):
        h = Harness(DependencySequencedPolicy())
        h.policy.offer(make_txn(1, ("V1",), 1))
        h.policy.offer(make_txn(2, ("V1",), 2))
        h.policy.offer(make_txn(3, ("V1",), 3))
        assert h.sent_ids == [1]
        h.commit(1)
        assert h.sent_ids == [1, 2]
        h.commit(2)
        assert h.sent_ids == [1, 2, 3]

    def test_independent_jumps_past_blocked(self):
        h = Harness(DependencySequencedPolicy())
        h.policy.offer(make_txn(1, ("V1",), 1))
        h.policy.offer(make_txn(2, ("V1",), 2))  # blocked on 1
        h.policy.offer(make_txn(3, ("V3",), 3))  # independent
        assert h.sent_ids == [1, 3]


class TestDbmsDependency:
    def test_annotates_dependencies(self):
        h = Harness(DbmsDependencyPolicy())
        h.policy.offer(make_txn(1, ("V1",), 1))
        h.policy.offer(make_txn(2, ("V1", "V2"), 2))
        h.policy.offer(make_txn(3, ("V2",), 3))
        assert h.sent_ids == [1, 2, 3]
        assert h.sent[0].sequenced_after == ()
        assert h.sent[1].sequenced_after == (1,)
        assert h.sent[2].sequenced_after == (2,)

    def test_committed_deps_not_listed(self):
        h = Harness(DbmsDependencyPolicy())
        h.policy.offer(make_txn(1, ("V1",), 1))
        h.commit(1)
        h.policy.offer(make_txn(2, ("V1",), 2))
        assert h.sent[1].sequenced_after == ()


class TestBatching:
    def test_batches_of_configured_size(self):
        h = Harness(BatchingPolicy(batch_size=2))
        h.policy.offer(make_txn(1, ("V1",), 1))
        assert h.sent == []
        h.policy.offer(make_txn(2, ("V2",), 2))
        assert len(h.sent) == 1
        bwt = h.sent[0].txn
        assert bwt.covered_rows == (1, 2)
        assert bwt.is_batch
        assert bwt.txn_id == 100  # freshly allocated id

    def test_flush_releases_partial_batch(self):
        h = Harness(BatchingPolicy(batch_size=10))
        h.policy.offer(make_txn(1, ("V1",), 1))
        h.policy.flush()
        assert len(h.sent) == 1
        assert h.policy.pending == 0

    def test_inner_policy_sequences_batches(self):
        h = Harness(BatchingPolicy(batch_size=1))
        h.policy.offer(make_txn(1, ("V1",), 1))
        h.policy.offer(make_txn(2, ("V1",), 2))
        assert len(h.sent) == 1  # second batch waits for first commit
        h.commit(h.sent[0].txn.txn_id)
        assert len(h.sent) == 2

    def test_does_not_preserve_completeness(self):
        assert not BatchingPolicy().preserves_completeness
        assert SequentialPolicy().preserves_completeness

    def test_bad_batch_size(self):
        with pytest.raises(MergeError):
            BatchingPolicy(batch_size=0)


# -- the indexed DependencySequencedPolicy against the scan it replaced --------


class ScanReference(SubmissionPolicy):
    """The policy as it was before the per-view wait lines: a
    restart-from-zero scan of the whole queue per event.  Quadratic, and
    by construction "send iff no earlier queued or uncommitted transaction
    shares a view, lowest queue position first" — the oracle for the
    indexed policy's send order."""

    def __init__(self):
        super().__init__()
        self._queue = []
        self._uncommitted = {}

    def offer(self, txn):
        self._queue.append(txn)
        self._pump()

    def on_commit(self, txn_id):
        self._uncommitted.pop(txn_id, None)
        self._pump()

    def _blocked(self, txn, queued_before):
        views = txn.view_set
        if any(views & vs for vs in self._uncommitted.values()):
            return True
        return any(views & earlier.view_set for earlier in queued_before)

    def _pump(self):
        progressed = True
        while progressed:
            progressed = False
            for index, txn in enumerate(self._queue):
                if not self._blocked(txn, self._queue[:index]):
                    del self._queue[index]
                    self._uncommitted[txn.txn_id] = txn.view_set
                    self._send(WarehouseTransactionMsg(txn))
                    progressed = True
                    break

    @property
    def pending(self):
        return len(self._queue)


VIEW_POOL = ("V1", "V2", "V3", "V4", "V5")
view_sets = st.frozensets(st.sampled_from(VIEW_POOL), max_size=4)
# commit targets: an in-flight id, a held one, a committed one, an unknown one
COMMIT_POOLS = ("in-flight", "in-flight", "in-flight", "held", "committed", "unknown")
commit_steps = st.tuples(
    st.just("commit"), st.sampled_from(COMMIT_POOLS), st.integers(0, 50)
)


@st.composite
def interleavings(draw):
    """Steps for :class:`Lockstep`: offers with unordered unique ids (plain
    or ``batch()``-built), commits of every kind of id, flushes."""
    count = draw(st.integers(min_value=1, max_value=14))
    ids = draw(
        st.lists(st.integers(1, 10_000), min_size=count, max_size=count, unique=True)
    )
    steps = []
    for txn_id in ids:
        steps.extend(draw(st.lists(commit_steps, max_size=2)))
        parts = draw(st.lists(view_sets, min_size=1, max_size=3))
        steps.append(("offer", txn_id, parts))
        if draw(st.integers(0, 9)) == 0:
            steps.append(("flush",))
    steps.extend(draw(st.lists(commit_steps, max_size=2 * count)))
    return steps


def build_txn(txn_id, parts, row):
    """One WT for a single view set, a ``batch()``-built BWT for several."""
    if len(parts) == 1:
        return make_txn(txn_id, tuple(sorted(parts[0])), row)
    members = [
        make_txn(20_000 + 10 * row + k, tuple(sorted(views)), 10 * row + k)
        for k, views in enumerate(parts)
    ]
    return batch(txn_id, "merge", members)


class Lockstep:
    """Drives the same steps through policies and their reference twin."""

    def __init__(self, reference, *policies):
        self.ref = Harness(reference)
        self.reals = [Harness(policy) for policy in policies]
        self.committed = []
        self.offers = 0

    def step(self, step):
        harnesses = [self.ref, *self.reals]
        if step[0] == "offer":
            self.offers += 1
            txn = build_txn(step[1], step[2], self.offers)
            for h in harnesses:
                h.policy.offer(txn)
        elif step[0] == "flush":
            for h in harnesses:
                h.policy.flush()
        else:
            txn_id = self._target(step[1], step[2])
            for h in harnesses:
                h.commit(txn_id)
            self.committed.append(txn_id)
        for real in self.reals:
            assert real.sent_ids == self.ref.sent_ids
            assert real.policy.pending == self.ref.policy.pending

    def _target(self, pool, pick):
        scan = getattr(self.ref.policy, "inner", self.ref.policy)
        candidates = {
            "in-flight": [
                i for i in self.ref.sent_ids if i not in self.committed
            ],
            "held": [txn.txn_id for txn in scan._queue],
            "committed": self.committed,
            "unknown": [],
        }[pool]
        return candidates[pick % len(candidates)] if candidates else 999_999


class TestIndexedAgainstScan:
    @given(steps=interleavings())
    @settings(max_examples=300, deadline=None)
    def test_same_sends_and_pending_after_every_step(self, steps):
        run = Lockstep(ScanReference(), DependencySequencedPolicy())
        for step in steps:
            run.step(step)

    @given(steps=interleavings(), batch_size=st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_same_through_batching(self, steps, batch_size):
        run = Lockstep(
            BatchingPolicy(batch_size, inner=ScanReference()),
            BatchingPolicy(batch_size, inner=DependencySequencedPolicy()),
        )
        for step in steps:
            run.step(step)

    @given(steps=interleavings(), cut=st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    def test_deepcopy_mid_queue_continues_identically(self, steps, cut):
        """What a merge checkpoint does: unbind, deep-copy, rebind.  The
        original and the restored copy must both carry on like the scan."""
        run = Lockstep(ScanReference(), DependencySequencedPolicy())
        for step in steps[:cut]:
            run.step(step)
        original = run.reals[0]
        original.policy.unbind()
        restored = copy.deepcopy(original.policy)
        assert restored._submit is None and restored._allocate is None
        original.policy.bind(original.sent.append, lambda: next(original._ids))
        run.reals.append(Harness(restored, sent=original.sent))
        for step in steps[cut:]:
            run.step(step)

    def test_cost_does_not_grow_with_queue_depth(self, monkeypatch):
        """600 dependents queued behind one transaction: the policy reads
        ``view_set`` a bounded number of times per transaction (the scan
        read it once per queue position per probe)."""
        reads = itertools.count()
        view_set = vars(WarehouseTransaction)["view_set"].fget

        def counted(txn):
            next(reads)
            return view_set(txn)

        monkeypatch.setattr(WarehouseTransaction, "view_set", property(counted))
        h = Harness(DependencySequencedPolicy())
        total = 601
        for n in range(1, total + 1):
            h.policy.offer(make_txn(n, ("V1", f"W{n % 7}"), n))
        assert h.policy.pending == total - 1
        for n in range(1, total + 1):
            assert h.sent_ids[-1] == n
            h.commit(n)
        assert h.sent_ids == list(range(1, total + 1))
        assert h.policy.pending == 0
        assert next(reads) <= 3 * total

    def test_commit_of_held_or_unknown_txn_is_ignored(self):
        h = Harness(DependencySequencedPolicy())
        h.policy.offer(make_txn(1, ("V1",), 1))
        h.policy.offer(make_txn(2, ("V1",), 2))
        h.commit(2)  # held, not yet submitted
        h.commit(77)  # unknown
        assert h.sent_ids == [1] and h.policy.pending == 1
        h.commit(1)
        h.commit(1)  # repeated
        assert h.sent_ids == [1, 2] and h.policy.pending == 0

    def test_release_order_is_offer_order_not_id_order(self):
        h = Harness(DependencySequencedPolicy())
        h.policy.offer(make_txn(50, ("V1", "V2"), 1))
        h.policy.offer(make_txn(40, ("V2",), 2))  # offered before 30
        h.policy.offer(make_txn(30, ("V1",), 3))
        h.commit(50)
        assert h.sent_ids == [50, 40, 30]
