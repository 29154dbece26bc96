"""Structured trace recording for simulation runs.

Every interesting occurrence — a message handled at the end of its hop
(``proc_msg``, the one record per hop), a warehouse commit, a network
fault — can be appended to the simulator's :class:`Trace`.  Benchmarks
and the consistency checkers read traces back to compute metrics
(freshness, throughput) and to reconstruct state sequences; the
observability layer (:mod:`repro.obs`) reconstructs causal lineage and
exports traces to external viewers.

Recording can be restricted to a set of event kinds (:attr:`Trace.kinds`)
so high-rate runs only pay for the events they keep: a rejected event
stores nothing.  Its arguments are built by the caller before the filter
runs (``record``'s ``**detail`` dict included), so every per-update call
site of a kind a default run drops guards with :meth:`Trace.wants` first
and a dropped kind builds nothing::

    if sim.trace.wants("proc_msg"):
        sim.trace.record(now, "proc_msg", name, ids=expensive_ids(msg))

Per-message call sites use :meth:`Trace.record_fields`, which takes the
detail's keys as a tuple (a module-level constant) and its values
positionally, so no dict is built at all.
"""

from __future__ import annotations

from array import array
from itertools import compress, starmap
from typing import Collection, Iterable, Iterator

from repro.errors import SimulationError
from repro.record import Record

#: the freshness endpoints (an update's numbering, its warehouse commit):
#: what a default run records, and all the staleness derivation consumes
STALENESS_KINDS = frozenset({"int_number", "wh_commit"})


class TraceEvent(Record, compare=("time", "kind", "process")):
    """One timestamped occurrence in a run; ``detail`` is outside ``==``
    and ``hash``.  Read-only once built."""

    __slots__ = ("time", "kind", "process", "detail")

    def __init__(self, time: float, kind: str, process: str,
                 detail: dict | None = None) -> None:
        self.time = time
        self.kind = kind
        self.process = process
        self.detail = {} if detail is None else detail

    def __str__(self) -> str:
        line = f"[{self.time:10.3f}] {self.process:<16} {self.kind}"
        if not self.detail:
            return line
        return line + " " + ", ".join(f"{k}={v}" for k, v in self.detail.items())


def _unflatten(raw: list) -> tuple[float, str, str, dict]:
    """``(time, kind, process, detail)`` from one stored record."""
    n = (len(raw) - 3) // 2
    return raw[0], raw[1], raw[2], dict(zip(raw[3:3 + n], raw[3 + n:]))


class Trace:
    """An append-only list of :class:`TraceEvent`: iterate it, pick one
    kind with :meth:`of_kind`, read what is new with
    :meth:`raw_events_since`, render it with :meth:`format`.

    :meth:`record_fields` sits on the simulator's hot path, so a record is
    one ``extend`` of a flat list: its fields ``(time, kind, process,
    *keys, *values)`` are laid end to end in ``_pending``, its start offset
    goes in an ``array('q')`` and its kind in a parallel list.  The detail
    dict and the :class:`TraceEvent` are built on the first read.  No
    object survives a record call, so recording adds nothing to the cyclic
    collector's lists, and a record of atoms carries no object header.
    """

    __slots__ = ("_events", "_pending", "_starts", "_pending_kinds", "_kinds")

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        self._drop_pending()
        self._kinds: frozenset[str] | None = None

    def _drop_pending(self) -> None:
        self._pending: list = []  # records end to end, see _unflatten
        self._starts = array("q")  # each pending record's offset
        self._pending_kinds: list[str] = []  # each pending record's kind

    # -- filtering ---------------------------------------------------------
    @property
    def kinds(self) -> frozenset[str] | None:
        """The recorded event kinds (``None``: every kind; empty: none)."""
        return self._kinds

    @kinds.setter
    def kinds(self, kinds: Iterable[str] | None) -> None:
        if isinstance(kinds, str):
            raise SimulationError(
                f"trace kinds must be a collection of kinds, not the "
                f"string {kinds!r}"
            )
        self._kinds = None if kinds is None else frozenset(kinds)

    def wants(self, kind: str) -> bool:
        """Would :meth:`record` keep an event of this kind right now?"""
        return self._kinds is None or kind in self._kinds

    def record(self, time: float, kind: str, process: str, **detail: object) -> None:
        self.record_fields(time, kind, process, tuple(detail), *detail.values())

    def record_fields(
        self, time: float, kind: str, process: str, keys: tuple, *values: object
    ) -> None:
        """Record an event whose detail is ``dict(zip(keys, values))``."""
        if self._kinds is not None and kind not in self._kinds:
            return
        pending = self._pending
        self._starts.append(len(pending))
        self._pending_kinds.append(kind)
        pending.extend((time, kind, process, *keys, *values))

    def _records(
        self, first: int = 0, kinds: Collection[str] | None = None
    ) -> Iterator[list]:
        """Pending records ``first`` onward (of ``kinds``), each as a list.

        The kind is tested on ``_pending_kinds`` before a record is sliced
        out; the pass runs in C, costs what it reads (a cursor near the end
        reads little), and yields one record at a time.
        """
        pending = self._pending
        ends = self._starts[first + 1:]
        ends.append(len(pending))
        bounds = zip(self._starts[first:], ends)
        if kinds is not None:
            if type(kinds) is not frozenset:
                kinds = frozenset(kinds)
            wanted = map(kinds.__contains__, self._pending_kinds[first:])
            bounds = compress(bounds, wanted)
        return map(pending.__getitem__, starmap(slice, bounds))

    def _materialise(self) -> list[TraceEvent]:
        if self._starts:
            self._events.extend(
                TraceEvent(*_unflatten(raw)) for raw in self._records()
            )
            self._drop_pending()
        return self._events

    def __len__(self) -> int:
        return len(self._events) + len(self._starts)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._materialise())

    def __getitem__(self, index: int) -> TraceEvent:
        return self._materialise()[index]

    def raw_events_since(
        self, start: int, kinds: Collection[str] | None = None
    ) -> tuple[int, list[tuple[float, str, str, dict]]]:
        """``(time, kind, process, detail)`` tuples at ``start`` onward,
        plus the new cursor.

        The one incremental reader: call with the cursor from the previous
        call and process only what is new.  It serves consumers inside the
        simulation hot loop (the freshness monitor): no :class:`TraceEvent`
        is constructed and a pending record's detail dict is rebuilt only
        if its kind is wanted, so sampling mid-run does not force the
        materialisation that :meth:`record` deliberately defers.  A cursor
        stays valid across a materialisation, which moves entries from
        pending to built without renumbering them.  ``kinds`` drops
        non-matching events *after* the cursor advances past them, so a
        filtered consumer never revisits what it skipped.
        """
        built = self._events
        cursor = len(built) + len(self._starts)
        fresh: list[tuple[float, str, str, dict]] = [
            (e.time, e.kind, e.process, e.detail)
            for e in built[start:]
            if kinds is None or e.kind in kinds
        ]
        fresh.extend(map(_unflatten,
                         self._records(max(start - len(built), 0), kinds)))
        return cursor, fresh

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self._materialise() if e.kind == kind]

    def clear(self) -> None:
        self._events.clear()
        self._drop_pending()

    def digest(self) -> str:
        """A stable SHA-256 over every recorded event.

        Two runs are "byte-for-byte identical" for our purposes iff their
        digests match: the hash covers each event's time, kind, process
        and (sorted) detail payload.  The conformance engine uses this to
        pin determinism regressions and to verify that a shrunk
        reproducer replays to exactly the run that was shrunk.
        """
        import hashlib

        h = hashlib.sha256()
        for event in self._materialise():
            h.update(
                repr(
                    (event.time, event.kind, event.process,
                     sorted(event.detail.items()))
                ).encode("utf-8")
            )
        return h.hexdigest()

    def format(self, *kinds: str) -> str:
        """The trace as text, one :class:`TraceEvent` line per event
        (optionally only some kinds); a ``.txt`` trace file holds this."""
        wanted = set(kinds)
        lines = [
            str(e) for e in self._materialise() if not wanted or e.kind in wanted
        ]
        return "\n".join(lines)
