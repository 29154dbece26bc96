"""Wall-clock execution of the process graph on worker threads.

:class:`ParallelKernel` duck-types the :class:`~repro.sim.kernel.Simulator`
surface, but instead of a virtual-time event heap it routes every
scheduled callback to the *home worker* of the process the callback
belongs to, where a dedicated thread executes it as soon as it reaches
the front of that worker's :class:`Mailbox`.

Why this preserves the simulator's correctness contract:

* **Per-process serialization.**  Every event of one process executes on
  one worker thread, in mailbox order.  Processes mutate their own state
  only from their own events (the :class:`~repro.sim.process.Process`
  mailbox/service loop schedules everything through ``self.sim``), so no
  process ever needs a lock — exactly the actor discipline the DES kernel
  provided by being single-threaded.
* **Per-lane FIFO.**  A channel's deliveries are scheduled by its source
  process — i.e. from one thread — and appended to the destination's
  mailbox in send order.  FIFO mailboxes therefore preserve the paper's
  §4 ordering assumption ("messages from the same process arrive in the
  order sent") without any clamp arithmetic.
* **Wall-clock time.**  ``now`` is seconds of real time since the kernel
  was created.  Virtual delays (latency models, service times) map to
  zero wall time: the event is enqueued immediately and runs when its
  worker gets to it.  Real concurrency replaces simulated waiting, which
  is the point — trace timestamps and metrics windows become honest
  hardware numbers.

Events scheduled *before* ``run()`` (the posted workload) are staged and
injected in ``(virtual time, submission order)`` order at startup, so
each source still fires its transactions in workload order.

What this kernel deliberately does **not** support — enforced by
``SystemConfig.validate`` and kept here as a second line of defence —
is anything whose semantics are inherently virtual-time: ``run(until=…)``
horizons, ``max_events`` caps, single-stepping, schedule-perturbing
:class:`~repro.sim.scheduler.Scheduler` subclasses, fault plans (timers
for retransmission backoff), and periodic managers (a zero-delay
self-rescheduling timer would spin forever).
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import deque
from typing import Callable

from repro.errors import SimulationError
from repro.obs.registry import MetricsRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import ThreadSafeTrace

#: sentinel telling a worker thread to exit its loop
_STOP = object()
#: seconds a worker gets to reach ``_STOP`` once a run is abandoned as
#: hung: it already had a whole ``timeout`` in which it finished nothing
_HUNG_JOIN_GRACE = 0.2


class Mailbox:
    """A FIFO queue feeding one worker thread, optionally bounded.

    With ``capacity=None`` (the default) puts never block.  A bounded
    mailbox exerts backpressure: ``put`` blocks until space frees, and
    raises after ``timeout`` seconds — the system's message graph is
    cyclic (merge ↔ warehouse), so a full mailbox on every process of a
    cycle cannot drain and must surface as an error, not a silent hang.
    """

    def __init__(self, capacity: int | None = None, name: str = "") -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"mailbox capacity must be >= 1, got {capacity}")
        self.name = name
        self._capacity = capacity
        self._items: deque = deque()
        self._ready = threading.Condition()

    def __len__(self) -> int:
        with self._ready:
            return len(self._items)

    def put(self, item: object, timeout: float | None = None) -> None:
        with self._ready:
            if self._capacity is not None:
                deadline = None if timeout is None else time.monotonic() + timeout
                while len(self._items) >= self._capacity:
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        raise SimulationError(
                            f"mailbox {self.name!r} stayed full for {timeout}s "
                            f"(capacity {self._capacity}); a bounded run can "
                            f"deadlock on message cycles — raise the capacity "
                            f"or run unbounded"
                        )
                    self._ready.wait(remaining)
            self._items.append(item)
            self._ready.notify()

    def stop(self) -> None:
        """Queue the worker's exit behind what is already here.

        Ignores the capacity: shutdown must get through a full mailbox,
        whose worker may be the very one a run is being abandoned for.
        """
        with self._ready:
            self._items.append(_STOP)
            self._ready.notify_all()

    def get(self) -> object:
        with self._ready:
            while not self._items:
                self._ready.wait()
            item = self._items.popleft()
            if self._capacity is not None:
                self._ready.notify()
            return item


class ParallelKernel:
    """A simulator-shaped executor backed by worker threads.

    Worker threads are created per :meth:`run` call and joined before it
    returns, so between runs (and at build/seed time) the kernel is
    strictly single-threaded.
    """

    def __init__(
        self,
        seed: int = 0,
        workers: int | None = None,
        mailbox_capacity: int | None = None,
        timeout: float = 60.0,
    ) -> None:
        import os

        self.rng = random.Random(seed)
        self.trace = ThreadSafeTrace()
        # Wall-clock runs have no natural event horizon, so histograms
        # default to reservoir mode — exact count/total/max, bounded
        # quantile storage (see repro.obs.registry).
        self.metrics = MetricsRegistry(
            locked=True, origin="worker-thread", histogram_bound=4096
        )
        # Introspection parity with Simulator; never consulted for order.
        self.scheduler = Scheduler()
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise SimulationError(f"workers must be >= 1, got {self.workers}")
        self._mailbox_capacity = mailbox_capacity
        self._timeout = timeout
        self._sequence = itertools.count()
        # (virtual time, seq, (callback, args), home key) staged before run()
        self._staged: list[tuple[float, int, tuple, object]] = []
        self._homes: dict[int, int] = {}
        self._next_home = 0
        self._mailboxes: list[Mailbox] = []
        self._running = False
        self._pending = 0
        self._events_executed = 0
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._failure: BaseException | None = None
        self._t0 = time.monotonic()
        # Periodic probes (the freshness monitor): polled from a sampler
        # thread while run() is live, since there is no per-event hook a
        # wall-clock kernel could cheaply offer.
        self._probes: list[Callable[[], None]] = []

    def add_probe(self, probe: Callable[[], None]) -> None:
        """Invoke ``probe()`` periodically while :meth:`run` executes."""
        self._probes.append(probe)

    # -- simulator surface ---------------------------------------------------
    @property
    def now(self) -> float:
        """Wall-clock seconds since the kernel was created."""
        return time.monotonic() - self._t0

    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def pending_events(self) -> int:
        with self._lock:
            return self._pending

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: object,
        lane: object = None,
        ordered: bool = True,
    ) -> None:
        """Virtual ``delay`` maps to "as soon as the home worker is free"."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._submit(self.now + delay, callback, args)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: object,
        lane: object = None,
        ordered: bool = True,
    ) -> None:
        """Before ``run()``: stage at virtual ``time``.  During: enqueue now.

        The ``lane`` tag is accepted for interface parity but unused —
        FIFO comes from single-sender mailbox order, not a clamp.
        """
        self._submit(time, callback, args)

    def quiet_now(self) -> bool:
        """Never: other workers' events run beside the calling one."""
        return False

    def step(self) -> bool:
        raise SimulationError(
            "the parallel runtime cannot single-step; use runtime='des' "
            "for event-by-event execution"
        )

    # -- routing -------------------------------------------------------------
    @staticmethod
    def _home_key(callback: Callable[..., None]) -> object:
        """The object whose state the callback mutates (its actor).

        Bound methods of a :class:`Process` belong to that process, so
        a channel's delivery (the destination's bound ``deliver``) runs
        on the destination's worker; a channel's own callbacks belong
        to its *destination* too.  Unbound callables fall back to a
        shared default worker.
        """
        target = getattr(callback, "__self__", None)
        if target is None:
            return None
        destination = getattr(target, "destination", None)
        return destination if destination is not None else target

    def _worker_index(self, key: object) -> int:
        # Caller holds self._lock.
        if key is None:
            return 0
        index = self._homes.get(id(key))
        if index is None:
            index = self._next_home % self.workers
            self._next_home += 1
            self._homes[id(key)] = index
        return index

    def _submit(
        self, when: float, callback: Callable[..., None], args: tuple
    ) -> None:
        event = (callback, args)
        key = self._home_key(callback)
        with self._lock:
            if self._failure is not None:
                return  # the run is already aborting; drop quietly
            seq = next(self._sequence)
            self._pending += 1
            if not self._running:
                self._staged.append((when, seq, event, key))
                return
            index = self._worker_index(key)
        try:
            self._mailboxes[index].put(event, timeout=self._timeout)
        except SimulationError:
            with self._lock:
                self._pending -= 1
            raise

    # -- worker loop -----------------------------------------------------------
    def _worker_loop(self, mailbox: Mailbox) -> None:
        while True:
            item = mailbox.get()
            if item is _STOP:
                return
            failed = False
            try:
                if self._failure is None:  # after a failure: drain, don't run
                    callback, args = item  # type: ignore[misc]
                    callback(*args)
            except BaseException as exc:  # noqa: BLE001 - reported by run()
                failed = True
                failure = exc
            with self._idle:
                if failed and self._failure is None:
                    self._failure = failure
                self._pending -= 1
                self._events_executed += 1
                if self._pending == 0:
                    self._idle.notify_all()

    # -- run to quiescence -----------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Execute until no event is pending anywhere; returns the count.

        ``until``/``max_events`` are virtual-time bounds and unsupported
        here — a wall-clock run has no event horizon to stop at.
        """
        if until is not None or max_events is not None:
            raise SimulationError(
                "the parallel runtime runs to quiescence only; "
                "run(until=...) / run(max_events=...) need runtime='des'"
            )
        if self._running:
            raise SimulationError("run() called re-entrantly from an event handler")

        with self._lock:
            staged = sorted(self._staged, key=lambda entry: (entry[0], entry[1]))
            self._staged.clear()
            self._failure = None
            self._mailboxes = [
                Mailbox(self._mailbox_capacity, name=f"worker{i}")
                for i in range(self.workers)
            ]
            self._running = True
            executed_before = self._events_executed

        threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(mailbox,),
                name=f"repro-{mailbox.name}",
                daemon=True,
            )
            for mailbox in self._mailboxes
        ]
        for thread in threads:
            thread.start()

        sampler = None
        sampler_stop = None
        if self._probes:
            sampler_stop = threading.Event()

            def _sample_loop() -> None:
                while not sampler_stop.wait(0.02):
                    for probe in self._probes:
                        probe()

            sampler = threading.Thread(
                target=_sample_loop, name="repro-sampler", daemon=True
            )
            sampler.start()

        hung = False
        try:
            # Inject the pre-run workload in (virtual time, post order):
            # each source's transactions reach its home worker in workload
            # order, so per-source FIFO survives the clock swap.
            for _when, _seq, event, key in staged:
                with self._lock:
                    index = self._worker_index(key)
                self._mailboxes[index].put(event, timeout=self._timeout)

            # A no-progress deadline: re-armed whenever an event finishes,
            # so a healthy run may outlast ``timeout`` and only a fleet
            # that completes nothing for that long is reported.
            with self._idle:
                progress, since = self._events_executed, time.monotonic()
                while self._pending > 0 and self._failure is None:
                    if self._events_executed != progress:
                        progress, since = self._events_executed, time.monotonic()
                    elif (
                        self._timeout is not None
                        and time.monotonic() - since > self._timeout
                    ):
                        hung = True
                        self._failure = SimulationError(
                            f"parallel run finished no event in "
                            f"{self._timeout}s; {self._pending} event(s) "
                            f"still pending (hung worker?)"
                        )
                        break
                    self._idle.wait(0.05)
        except SimulationError as full:
            # A staged event met a mailbox that stayed full for a whole
            # timeout.  Recorded as the run's failure, so the workers
            # drain what they hold instead of running half a workload.
            hung = True
            with self._lock:
                if self._failure is None:
                    self._failure = full
        finally:
            if sampler is not None:
                sampler_stop.set()
                sampler.join(timeout=self._timeout)
            for mailbox in self._mailboxes:
                mailbox.stop()
            grace = _HUNG_JOIN_GRACE if hung else self._timeout
            for thread in threads:
                thread.join(timeout=grace)
            stuck = [thread.name for thread in threads if thread.is_alive()]
            with self._lock:
                self._running = False
                self._mailboxes = []

        if stuck:
            # The threads are daemons and cannot be killed; the kernel's
            # event counts are theirs to corrupt, so it is not reusable.
            raise SimulationError(
                f"worker thread(s) {', '.join(stuck)} still running "
                f"{grace}s after shutdown was requested; the handler "
                f"they execute never returned"
            ) from self._failure
        if self._failure is not None:
            raise self._failure
        return self._events_executed - executed_before
