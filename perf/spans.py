"""Per-layer spans recorded from outside the program.

:meth:`Recorder.install` puts class-level wrappers around the public calls
that bound each layer (methods stay ordinary functions on their class, so
bound methods keep ``__self__``) and a hook on the cyclic collector; every
call is then logged in memory and rebuilt into one span
``[name, start_ns, end_ns, parent, subject]`` afterwards, the parent coming
from a stack of open spans.  :meth:`Recorder.remove` puts the originals
back.  A layer's self time is its spans' duration minus their direct
children's, so the self times of all layers partition the root spans (the
``Simulator.run`` slices of the timed drain).
"""

from __future__ import annotations

import gc
import itertools
import json
import time
from collections import defaultdict
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator

# The builder pulls in every manager / algorithm / policy subclass, so the
# subclass walks in _targets() see all of them.
import repro.system.builder  # noqa: F401
import repro.viewmgr.base as viewmgr_base
from repro import Database, MaintenancePlan, Relation, Source
from repro.integrator.basedata import BaseDataService
from repro.integrator.integrator import Integrator
from repro.merge.base import MergeAlgorithm
from repro.merge.process import MergeProcess
from repro.merge.submission import SubmissionPolicy
from repro.messages import lineage_keys
from repro.sim import Simulator
from repro.warehouse.store import ViewStore
from repro.warehouse.txn import WarehouseTransaction
from repro.warehouse.warehouse import WarehouseProcess

NAME, START, END, PARENT, SUBJECT = range(5)

#: Perfetto stops being usable long before a whole drain's spans are
#: loaded, so the export keeps the first spans only (a few hundred updates).
EXPORT_LIMIT = 20_000

_MESSAGE = itemgetter(1)  # handle(self, message, sender)

Patch = tuple[object, str, object]  # owner, attribute, original value


class Recorder:
    """The event log of one traced drain, and the spans rebuilt from it.

    A wrapped call appends ``name, subject, start_ns`` on entry and
    ``None, end_ns`` on exit.  Nothing the log holds is tracked by the
    cyclic collector: one list per span made the collector run often
    enough to cost more than the wrappers themselves.
    """

    def __init__(self) -> None:
        self.log: list = []
        self.patches: list[Patch] = []
        self.view_set_calls = itertools.count()

    def wrap(
        self,
        name: str,
        fn: Callable,
        subject: Callable[[tuple], object] | None = None,
    ) -> Callable:
        log, clock = self.log.append, time.perf_counter_ns

        def span(*args, **kwargs):
            log(name)
            log(subject(args) if subject is not None else None)
            log(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                log(None)
                log(clock())

        span.__wrapped__ = fn
        return span

    def on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: a collection is a span of layer ``gc``.

        The collector runs inside whichever layer happens to allocate when
        a threshold trips; without this span its passes (a third of the
        sharded-108 drain) land on arbitrary layers' self time.  It cannot
        start in the middle of a wrapper's log record: nothing between the
        entries of one record allocates a container.
        """
        if phase == "start":
            self.log += ("gc", info["generation"], time.perf_counter_ns())
        else:
            self.log += (None, time.perf_counter_ns())

    def install(self) -> None:
        """Wrap every target (see :func:`_targets`) and hook the collector."""

        def patch(owner: object, attr: str, replacement: object) -> None:
            self.patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)

        for name, owner, attr, subject in _targets():
            patch(owner, attr, self.wrap(name, vars(owner)[attr], subject))

        # Not a span (435 000 calls on clustered-36): a counting twin of
        # the property.
        view_set = vars(WarehouseTransaction)["view_set"].fget
        counter = self.view_set_calls

        def counted_view_set(txn):
            next(counter)
            return view_set(txn)

        patch(WarehouseTransaction, "view_set", property(counted_view_set))
        gc.callbacks.append(self.on_gc)

    def remove(self) -> None:
        """Undo :meth:`install`; harmless when nothing is installed."""
        if self.on_gc in gc.callbacks:
            gc.callbacks.remove(self.on_gc)
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> list[list]:
        """``[name, start_ns, end_ns, parent, subject]`` per call, by start."""
        spans: list[list] = []
        open_: list[int] = []
        log, at = self.log, 0
        while at < len(log):
            if log[at] is None:
                spans[open_.pop()][END] = log[at + 1]
                at += 2
            else:
                spans.append([log[at], log[at + 2], 0,
                              open_[-1] if open_ else -1, log[at + 1]])
                open_.append(len(spans) - 1)
                at += 3
        return spans


def _subclass_tree(base: type) -> Iterator[type]:
    yield base
    for sub in base.__subclasses__():
        yield from _subclass_tree(sub)


def _targets() -> list[tuple[str, object, str, Callable | None]]:
    """``(span name, owner, attribute, subject)`` for every wrapped call."""
    targets: list[tuple[str, object, str, Callable | None]] = [
        ("sim", Simulator, "run", None),
        ("sources", Source, "execute", None),
        ("integrator", Integrator, "handle", _MESSAGE),
        ("integrator.basedata", BaseDataService, "handle", _MESSAGE),
        ("relational.plan", MaintenancePlan, "propagate", None),
        ("relational.plan", MaintenancePlan, "propagate_counts", None),
        ("relational.plan", MaintenancePlan, "advance", None),
        # imported by value into the only module that calls it
        ("relational.legacy", viewmgr_base, "propagate_delta", None),
        ("relational.apply", Database, "apply_deltas", None),
        ("relational.copy", Relation, "copy", lambda args: len(args[0])),
        ("relational.copy", Database, "snapshot", None),
        ("merge", MergeProcess, "handle", _MESSAGE),
        ("warehouse", WarehouseProcess, "handle", _MESSAGE),
        ("warehouse.store", ViewStore, "apply", None),
    ]
    per_subclass = [
        ("viewmgr", viewmgr_base.ViewManager, "handle", _MESSAGE),
        ("merge.algorithm", MergeAlgorithm, "receive_rel", None),
        ("merge.algorithm", MergeAlgorithm, "receive_action_list", None),
        # subject = queue length the offered transaction is scanned against
        ("merge.submission", SubmissionPolicy, "offer",
         lambda args: args[0].pending),
        ("merge.submission", SubmissionPolicy, "on_commit", None),
        ("merge.submission", SubmissionPolicy, "flush", None),
    ]
    for name, base, attr, subject in per_subclass:
        targets.extend(
            (name, cls, attr, subject)
            for cls in _subclass_tree(base)
            if attr in vars(cls)
        )
    return targets


LAYERS = (
    "sim", "sources", "integrator", "integrator.basedata", "viewmgr",
    "relational.plan", "relational.legacy", "relational.apply",
    "relational.copy", "merge", "merge.algorithm", "merge.submission",
    "warehouse", "warehouse.store", "gc",
)

# -- arithmetic ---------------------------------------------------------------

def self_times(spans: list[list]) -> tuple[dict[str, int], dict[str, int]]:
    """``(self_ns, calls)`` per span name.

    Self time = a span's duration minus the duration of its direct
    children; summed over all spans it equals the root spans' duration.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for span, ns in zip(spans, own):
        self_ns[span[NAME]] += ns
        calls[span[NAME]] += 1
    return dict(self_ns), dict(calls)


def root_ns(spans: list[list]) -> int:
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def layer_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """``{layer: {"share": self time / root time, "calls": n}}``, all layers."""
    self_ns, calls = self_times(spans)
    total = root_ns(spans)
    return {
        layer: {
            "share": self_ns.get(layer, 0) / total if total else 0.0,
            "calls": calls.get(layer, 0),
        }
        for layer in LAYERS
    }


# -- export -------------------------------------------------------------------

def write_chrome_trace(spans: list[list], path: Path) -> None:
    """The first :data:`EXPORT_LIMIT` spans as a Chrome trace-event file.

    Same ``{"traceEvents": [...]}`` shape as ``repro.obs.export`` writes,
    so Perfetto opens both.  Every span carries the update ids of the
    message it (or its nearest enclosing span) handled, so the spans of
    one source update can be selected by ``args.ids``.
    """
    kept = spans[:EXPORT_LIMIT]
    origin = kept[0][START] if kept else 0
    ids: list[tuple[int, ...]] = []
    events = []
    for span in kept:
        own = ()
        if span[SUBJECT] is not None and not isinstance(span[SUBJECT], int):
            own = lineage_keys(span[SUBJECT]).get("ids", ())
        if not own and span[PARENT] >= 0:
            own = ids[span[PARENT]]
        ids.append(own)
        events.append({
            "name": span[NAME], "cat": span[NAME].split(".")[0], "ph": "X",
            "pid": 1, "tid": 1,
            "ts": (span[START] - origin) / 1000.0,
            "dur": (span[END] - span[START]) / 1000.0,
            "args": {"ids": list(own)},
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
        encoding="utf-8",
    )
