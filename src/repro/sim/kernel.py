"""The event queue at the heart of the simulator.

A :class:`Simulator` owns virtual time and a priority queue of scheduled
callbacks.  By default, ties in time are broken by insertion order, which
makes runs bit-for-bit deterministic for a given schedule.  A
pluggable :class:`~repro.sim.scheduler.Scheduler` may perturb that policy
(random tie-breaks, adversarial channel delays) for schedule exploration;
the kernel itself guarantees the perturbations stay *causally sound*:

Events may be tagged with a FIFO ``lane`` (channels tag their deliveries
with their endpoint pair).  Whatever ``(time, tie_break)`` priority the
scheduler assigns, the kernel clamps each ordered lane's priorities to be
non-decreasing in scheduling order — so events from the same sender on
the same channel can never be reordered, only delayed.  Tie-breaking
otherwise still falls back to :mod:`itertools`.count insertion order, so
the default scheduler reproduces the historical behaviour exactly.  Its
keys are ``(time, 0.0, seq)``, which a laneless :meth:`Simulator.schedule`
and a plain :meth:`~repro.sim.network.Channel.send` push themselves.

Posted arrivals wait off the heap: under the default scheduler a laneless
:meth:`Simulator.schedule_at` no earlier than the last one posted joins a
time-ordered FIFO with the sequence number it was posted with, and only
the FIFO's head sits on the heap (firing it pushes the next).  The order
is the heap's; the heap holds the events in flight, not a whole stream.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Callable

from repro.errors import SimulationError
from repro.obs.registry import MetricsRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import Trace


class Simulator:
    """A deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, callback, arg1, arg2)
        sim.run()          # drain the queue
        sim.run(until=10)  # or stop at a virtual-time horizon

    Besides the event queue, a simulator owns the run's two observability
    substrates: the event :class:`Trace` and the :class:`MetricsRegistry`
    every process/channel instrument registers against (see
    :mod:`repro.obs`).
    """

    def __init__(self, scheduler: Scheduler | None = None) -> None:
        self._now = 0.0
        # (time, tie_break, seq, callback, args)
        self._queue: list[tuple[float, float, int, Callable[..., None], tuple]] = []
        self._sequence = itertools.count()
        self._running = False
        self._events_executed = 0
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.scheduler.reset()
        # Hot-loop fast path: the default scheduler maps every event to
        # ``(time, 0.0)``, so the adjust() call is skipped and an ordered
        # lane's clamp is one float compare.  Only the exact default class
        # qualifies — any subclass may carry per-event state (e.g.
        # RandomScheduler's internal counter) and must see every event.
        self._default_scheduler = type(self.scheduler) is Scheduler
        # Per-lane high-water marks enforcing causal order under any
        # scheduler: an ordered lane's (time, tie_break) keys never
        # decrease, so same-channel deliveries keep their send order.
        # On the fast path every tie-break is 0.0 and a mark is a bare time.
        self._lane_marks: dict[object, tuple[float, float] | float] = {}
        # Posted arrivals in time order; the head is also on the heap.
        self._posted: deque[tuple] = deque()
        self._posted_tail = -math.inf  # time of the last arrival posted
        self._fire = self._fire_posted  # bound once, not per post
        self.trace = Trace()
        self.metrics = MetricsRegistry()
        # Post-event probes (the freshness monitor): called after every
        # executed event.  Kept in a list checked by truthiness so a
        # probe-free run pays one falsy test per event and nothing else.
        self._probes: list[Callable[[], None]] = []

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Events executed so far, counted when each :meth:`run` returns."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        return len(self._queue) + max(len(self._posted) - 1, 0)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: object,
        lane: object = None,
        ordered: bool = True,
    ) -> None:
        """Run ``callback(*args)`` after ``delay`` units of virtual time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        if lane is not None or not self._default_scheduler:
            return self._push(self._now + delay, callback, args, lane, ordered)
        heapq.heappush(self._queue, (self._now + delay, 0.0,  # _push, inlined
                                     next(self._sequence), callback, args))

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: object,
        lane: object = None,
        ordered: bool = True,
    ) -> None:
        """Run ``callback(*args)`` at absolute virtual time ``time``.

        Pushes the absolute time directly — round-tripping through a
        relative delay would perturb the low float bits and could reorder
        events meant to fire at exactly the same instant (breaking the
        FIFO guarantee channels rely on).

        ``lane`` names the FIFO stream the event belongs to (channels
        pass their endpoint pair); the active scheduler may stretch or
        re-key lane events, but for ``ordered`` lanes the kernel clamps
        the adjusted priorities so same-lane events can never overtake
        one another.  ``ordered=False`` (lossy channels) opts out of the
        clamp while keeping the lane identity for perturbation targeting.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}, now is {self._now}"
            )
        if lane is not None or not self._default_scheduler or time < self._posted_tail:
            return self._push(time, callback, args, lane, ordered)
        self._posted_tail = time
        posted = self._posted
        posted.append((time, 0.0, next(self._sequence), self._fire, (callback, args)))
        if len(posted) == 1:
            heapq.heappush(self._queue, posted[0])

    def _fire_posted(self, callback: Callable[..., None], args: tuple) -> None:
        """Put the next posted arrival on the heap, then run this one."""
        posted = self._posted
        posted.popleft()
        if posted:
            heapq.heappush(self._queue, posted[0])
        callback(*args)

    def _push(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple,
        lane: object,
        ordered: bool,
    ) -> None:
        tie_break = 0.0
        if not self._default_scheduler:
            when, tie_break = self.scheduler.adjust(time, lane)
            if when < time:
                raise SimulationError(
                    f"{type(self.scheduler).__name__} moved an event earlier "
                    f"({time} -> {when}); schedulers may only delay"
                )
            if lane is not None and ordered:
                mark = self._lane_marks.get(lane)
                if mark is not None and (when, tie_break) < mark:
                    when, tie_break = mark
                self._lane_marks[lane] = (when, tie_break)
            time = when
        elif lane is not None and ordered:
            mark = self._lane_marks.get(lane)
            if mark is not None and time < mark:
                time = mark
            else:
                self._lane_marks[lane] = time
        heapq.heappush(
            self._queue, (time, tie_break, next(self._sequence), callback, args)
        )

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Execute events until the queue drains (or a bound is hit).

        Returns the number of events executed by this call.  ``until`` is a
        virtual-time horizon (events at exactly ``until`` still run);
        ``max_events`` bounds work for runaway-loop protection in tests.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly from an event handler")
        self._running = True
        queue, pop, probes = self._queue, heapq.heappop, self._probes
        horizon = math.inf if until is None else until
        limit = math.inf if max_events is None else max_events
        executed = 0
        hit_event_cap = False
        try:
            while queue:
                time = queue[0][0]
                if time > horizon:
                    break
                if executed >= limit:
                    hit_event_cap = True
                    break
                _time, _tie, _seq, callback, args = pop(queue)
                self._now = time
                callback(*args)
                executed += 1
                if probes:
                    for probe in probes:
                        probe()
            # The horizon was reached (queue drained or next event beyond
            # ``until``): advance the clock to ``until`` so two runs with the
            # same horizon always agree on ``now``.  Stopping on the event cap
            # must NOT jump the clock — the horizon was not actually reached.
            if until is not None and not hit_event_cap and self._now < until:
                self._now = until
        finally:  # also when a handler raised (its event is not counted)
            self._events_executed += executed
            self._running = False
        return executed

    def add_probe(self, probe: Callable[[], None]) -> None:
        """Invoke ``probe()`` after every executed event (observers only).

        Probes must not schedule events or mutate simulation state — they
        exist for samplers like the freshness monitor — nor count events: a
        delivery served in place (:meth:`~repro.sim.process.Process.deliver`)
        calls them between its two halves.
        """
        self._probes.append(probe)

    def step(self) -> bool:
        """Execute exactly one event; returns False if the queue is empty."""
        return self.run(max_events=1) == 1
