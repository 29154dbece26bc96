"""Structured trace recording for simulation runs.

Every interesting occurrence — a message send/delivery, a warehouse
commit, a VUT transition — can be appended to the simulator's
:class:`Trace`.  Benchmarks and the consistency checkers read traces back
to compute metrics (freshness, throughput) and to reconstruct state
sequences; the observability layer (:mod:`repro.obs`) reconstructs causal
lineage and exports traces to external viewers.

Recording can be restricted to a set of event kinds (:attr:`Trace.kinds`)
so high-rate runs only pay for the events they keep.  The filter is
checked *before* any allocation, and callers that must build expensive
``detail`` payloads should guard with :meth:`Trace.wants` first::

    if sim.trace.wants("proc_msg"):
        sim.trace.record(now, "proc_msg", name, ids=expensive_ids(msg))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Iterator


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One timestamped occurrence in a run."""

    time: float
    kind: str
    process: str
    detail: dict = field(default_factory=dict, compare=False)

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:10.3f}] {self.process:<16} {self.kind} {inner}"


def _unflatten(raw: tuple) -> tuple[float, str, str, dict]:
    """``(time, kind, process, detail)`` from a stored flat record."""
    n = (len(raw) - 3) // 2
    return raw[0], raw[1], raw[2], dict(zip(raw[3:3 + n], raw[3 + n:]))


class Trace:
    """An append-only list of :class:`TraceEvent` with query helpers.

    :meth:`record` sits on the simulator's hot path, so it appends one
    flat tuple ``(time, kind, process, *keys, *values)`` and defers the
    detail dict and the :class:`TraceEvent` to the first read: the cyclic
    collector stops tracking a tuple of atomic values at its first pass,
    but would re-walk a tuple that holds a dict in every full collection.
    """

    __slots__ = ("_events", "_pending", "enabled", "_kinds")

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        self._pending: list[tuple] = []  # flat records, see _unflatten
        self.enabled = True
        self._kinds: frozenset[str] | None = None

    # -- filtering ---------------------------------------------------------
    @property
    def kinds(self) -> frozenset[str] | None:
        """The recorded event kinds, or ``None`` for "record everything"."""
        return self._kinds

    @kinds.setter
    def kinds(self, kinds: Iterable[str] | None) -> None:
        self._kinds = None if kinds is None else frozenset(kinds)

    def wants(self, kind: str) -> bool:
        """Would :meth:`record` keep an event of this kind right now?"""
        return self.enabled and (self._kinds is None or kind in self._kinds)

    def record(self, time: float, kind: str, process: str, **detail: object) -> None:
        # Filter before any allocation: a rejected event must cost nothing
        # beyond this check (the **detail dict is built by the call itself).
        if not self.enabled:
            return
        if self._kinds is not None and kind not in self._kinds:
            return
        self._pending.append((time, kind, process, *detail, *detail.values()))

    def _materialise(self) -> list[TraceEvent]:
        if self._pending:
            self._events.extend(
                TraceEvent(*_unflatten(raw)) for raw in self._pending
            )
            self._pending.clear()
        return self._events

    def __len__(self) -> int:
        return len(self._events) + len(self._pending)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._materialise())

    def __getitem__(self, index: int) -> TraceEvent:
        return self._materialise()[index]

    def events_since(self, start: int) -> tuple[int, list[TraceEvent]]:
        """Events recorded at index ``start`` onward, plus the new cursor.

        Incremental-consumer protocol: call with the cursor from the
        previous call and process only what is new.
        """
        events = self._materialise()
        fresh = events[start:]
        return start + len(fresh), fresh

    def raw_events_since(
        self, start: int, kinds: Collection[str] | None = None
    ) -> tuple[int, list[tuple[float, str, str, dict]]]:
        """``(time, kind, process, detail)`` tuples at ``start`` onward.

        The zero-materialisation twin of :meth:`events_since` for
        consumers inside the simulation hot loop (the freshness
        monitor): no :class:`TraceEvent` is constructed and a pending
        record's detail dict is rebuilt only if its kind is wanted, so
        sampling mid-run does not force the materialisation that
        :meth:`record` deliberately defers.  Cursors are interchangeable
        with :meth:`events_since` — materialisation moves entries from
        pending to built without renumbering them.  ``kinds`` drops
        non-matching events *after* the cursor advances past them, so a
        filtered consumer never revisits what it skipped.
        """
        built = self._events
        cursor = len(built) + len(self._pending)
        fresh: list[tuple[float, str, str, dict]] = [
            (e.time, e.kind, e.process, e.detail)
            for e in built[start:]
            if kinds is None or e.kind in kinds
        ]
        fresh.extend(
            _unflatten(raw)
            for raw in self._pending[max(start - len(built), 0):]
            if kinds is None or raw[1] in kinds
        )
        return cursor, fresh

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self._materialise() if e.kind == kind]

    def by_process(self, process: str) -> list[TraceEvent]:
        return [e for e in self._materialise() if e.process == process]

    def where(self, condition: Callable[[TraceEvent], bool]) -> list[TraceEvent]:
        return [e for e in self._materialise() if condition(e)]

    def first(self, kind: str) -> TraceEvent | None:
        for event in self._materialise():
            if event.kind == kind:
                return event
        return None

    def last(self, kind: str) -> TraceEvent | None:
        for event in reversed(self._materialise()):
            if event.kind == kind:
                return event
        return None

    def clear(self) -> None:
        self._events.clear()
        self._pending.clear()

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

    def to_records(self, *kinds: str) -> list[dict]:
        """JSON-serialisable event records (optionally filtered by kind)."""
        wanted = set(kinds)
        return [
            {
                "time": event.time,
                "kind": event.kind,
                "process": event.process,
                **event.detail,
            }
            for event in self._materialise()
            if not wanted or event.kind in wanted
        ]

    def format(self, *kinds: str) -> str:
        """Pretty-print the trace (optionally filtered to some kinds)."""
        wanted = set(kinds)
        lines = [
            str(e) for e in self._materialise() if not wanted or e.kind in wanted
        ]
        return "\n".join(lines)


class ThreadSafeTrace(Trace):
    """A :class:`Trace` whose mutators are serialised by a lock.

    The wall-clock runtimes (:mod:`repro.runtime`) record events from
    many worker threads at once; ``list.append`` alone would keep the
    pending list intact under the GIL, but materialisation racing a
    recording worker could observe a half-drained pending list.  The DES
    kernel keeps the lock-free base class — its hot loop is
    single-threaded by construction.
    """

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        super().__init__()
        import threading

        self._lock = threading.RLock()

    def record(self, time: float, kind: str, process: str, **detail: object) -> None:
        if self.wants(kind):
            raw = (time, kind, process, *detail, *detail.values())
            with self._lock:
                self._pending.append(raw)

    def _materialise(self) -> list[TraceEvent]:
        with self._lock:
            return super()._materialise()

    def events_since(self, start: int) -> tuple[int, list[TraceEvent]]:
        # Hold the lock across materialise + slice: a recording worker
        # could otherwise extend the list between the two reads and the
        # cursor would skip its events.
        with self._lock:
            return super().events_since(start)

    def raw_events_since(
        self, start: int, kinds: Collection[str] | None = None
    ) -> tuple[int, list[tuple[float, str, str, dict]]]:
        with self._lock:
            return super().raw_events_since(start, kinds)

    def clear(self) -> None:
        with self._lock:
            super().clear()
