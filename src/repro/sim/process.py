"""Simulated processes: single-threaded servers with mailboxes.

A :class:`Process` models one box of Figure 1.  Messages delivered by
channels queue in the mailbox; the process serves them one at a time,
spending ``service_time(message)`` of virtual time on each.  That serial
service discipline is what creates the bottleneck phenomena the paper's
Section 7 wants to study (a merge process saturates when work arrives
faster than it can serve it), and the per-process utilisation and queue
statistics recorded here are what the benchmarks report.

Instrumentation: every process registers its load statistics as typed
instruments in the simulator's :class:`~repro.obs.registry.MetricsRegistry`
(counters for messages/busy time/losses/crashes, a queue-length gauge, and
queue-wait / service-time histograms); the per-message path only updates
plain attributes, which :meth:`Process._publish` hands to the instruments
whenever the registry is read.  Every process also emits one ``proc_msg`` trace
event per handled message carrying the message's causal identifiers (see
:func:`repro.messages.lineage_keys`) plus its queue-wait and service-time
split.  ``proc_msg`` is what lets :class:`repro.obs.lineage.Lineage`
reconstruct where each update spent its time; filter it out with
``Trace.kinds`` when a high-rate run doesn't need per-hop attribution.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.errors import SimulationError
from repro.messages import lineage_keys
from repro.sim.network import Channel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

#: detail keys of a ``proc_msg`` record, before the message's lineage keys
_PROC_MSG_KEYS = ("message", "sender", "wait", "service")


class Process:
    """Base class for all simulated components.

    Subclasses implement :meth:`handle`; they may override
    :meth:`service_time` to model per-message processing cost (default 0,
    i.e. infinitely fast).  Outgoing channels are registered with
    :meth:`connect` and used via :meth:`send`.
    """

    _timed = _hooks_handled = False  # service_time / on_handled overridden?

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)  # what is not overridden is not called
        cls._timed = cls.service_time is not Process.service_time
        cls._hooks_handled = cls.on_handled is not Process.on_handled

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        # inbox entries: (message, sender, on_processed, enqueued_at)
        self._inbox: deque[
            tuple[object, "Process", Callable[[], None] | None, float]
        ] = deque()
        self._busy = False
        self._outgoing: dict[str, Channel] = {}
        # crash/restart state: the epoch invalidates in-flight service events
        # scheduled before a crash (the kernel has no cancel API).
        self._crashed = False
        self._epoch = 0
        self._incoming: list[Channel] = []
        # Load statistics, written by this process's events and handed to
        # the instruments by _publish.
        self.messages_handled = 0
        self.busy_time = 0.0
        self.messages_lost = 0
        self.crashes = 0
        self.max_queue_length = 0
        self._min_queue = 1  # the first arrival's depth; a crash's is 0
        self._queue_area = 0.0  # integral of queue length over time
        self._last_stat_time = 0.0
        self._observed: list[float] = []  # wait, service, wait, service, ...
        metrics = sim.metrics
        self._m_handled = metrics.counter("proc_messages_handled", process=name)
        self._m_busy = metrics.counter("proc_busy_time", process=name)
        self._m_lost = metrics.counter("proc_messages_lost", process=name)
        self._m_crashes = metrics.counter("proc_crashes", process=name)
        self._g_queue = metrics.gauge("proc_queue_length", process=name)
        self._h_wait = metrics.histogram("proc_queue_wait", process=name)
        self._h_service = metrics.histogram("proc_service_time", process=name)
        # The owner publishes once it holds this many observations: memory
        # stays bounded on a long run that nobody reads.
        self._flush_at = 2 * (self._h_wait.bound or 4096)
        self._flush = metrics.on_read(self._publish)

    # -- wiring ------------------------------------------------------------
    def connect(self, destination: "Process", latency: float = 0.0) -> Channel:
        """Create (or replace) the outgoing channel to ``destination``."""
        channel = Channel(self.sim, self, destination, latency)
        self._outgoing[destination.name] = channel
        return channel

    def attach(self, channel: Channel) -> Channel:
        """Register a pre-built channel (e.g. a :class:`ReliableChannel`)."""
        if channel.source is not self:
            raise SimulationError(
                f"cannot attach a channel sourced at {channel.source.name!r} "
                f"to {self.name!r}"
            )
        self._outgoing[channel.destination.name] = channel
        return channel

    def register_incoming(self, channel: Channel) -> None:
        """Channels that need crash notifications register themselves here."""
        self._incoming.append(channel)

    def channel_to(self, name: str) -> Channel:
        try:
            return self._outgoing[name]
        except KeyError:
            raise SimulationError(
                f"{self.name} has no channel to {name!r} "
                f"(connected to: {sorted(self._outgoing)})"
            ) from None

    def peers(self) -> tuple[str, ...]:
        return tuple(sorted(self._outgoing))

    def send(self, destination: "Process | str", message: object) -> float:
        """Send ``message`` over the pre-connected channel; returns delivery time."""
        channel = self._outgoing.get(destination)
        if channel is None:  # a Process given, or no such channel
            channel = self.channel_to(getattr(destination, "name", destination))
        return channel.send(message)

    # -- mailbox / service loop ------------------------------------------------
    def deliver(
        self,
        message: object,
        sender: "Process",
        on_processed: Callable[[], None] | None = None,
    ) -> None:
        """Called by channels when a message arrives.

        ``on_processed`` (used by :class:`~repro.sim.network.ReliableChannel`)
        is invoked after :meth:`handle` completes — i.e. once the message has
        actually been *processed*, not merely enqueued — so delivery
        acknowledgements survive a crash that wipes the mailbox.

        An idle receiver serves a message without ``on_processed`` in place
        (one :meth:`_serve` frame) when its zero-delay service event would
        run next anyway: inside ``run()``, under the exact default scheduler,
        nothing due at ``now``.  Such a caller must deliver last in its
        event, as a channel's delivery event (this method) does.
        """
        if self._crashed:
            self.count_lost()
            self.trace(
                "msg_lost", sender=sender.name, message=type(message).__name__
            )
            return
        sim = self.sim
        now = sim._now
        inbox = self._inbox
        if self._busy or inbox or on_processed is not None:
            self._account_queue()
            inbox.append((message, sender, on_processed, now))
            if len(inbox) > self.max_queue_length:
                self.max_queue_length = len(inbox)
            if not self._busy:
                self._start_next()
            return
        self._last_stat_time = now  # idle: an empty queue accrues no area
        self.max_queue_length = self.max_queue_length or 1
        self._busy = True
        service = self.service_time(message) if self._timed else 0.0
        if service < 0:
            raise SimulationError(
                f"{self.name}.service_time returned negative {service}"
            )
        queue = sim._queue
        inbox.append((message, sender, None, now))
        if (service == 0 and sim._running and sim._default_scheduler
                and not (queue and queue[0][0] <= now)):
            for probe in sim._probes:  # as the kernel's, between two events
                probe()
            inbox.pop()
            self._serve(message, sender, service, 0.0, None)
        else:
            sim.schedule(service, self._finish, message, sender, service, self._epoch)

    def count_lost(self, n: int = 1) -> None:
        """Record ``n`` messages lost to a crash (volatile-state discard)."""
        self.messages_lost += n

    def _account_queue(self) -> None:
        now = self.sim._now
        self._queue_area += len(self._inbox) * (now - self._last_stat_time)
        self._last_stat_time = now

    def _start_next(self) -> None:  # never in place: a queue could recurse
        self._busy = True
        message, sender, _on_processed, _enqueued = self._inbox[0]
        service = self.service_time(message)
        if service < 0:
            raise SimulationError(
                f"{self.name}.service_time returned negative {service}"
            )
        self.sim.schedule(service, self._finish, message, sender, service, self._epoch)

    def _finish(
        self, message: object, sender: "Process", service: float, epoch: int
    ) -> None:
        if epoch != self._epoch:
            return  # the process crashed while this message was in service
        self._account_queue()
        _message, _sender, on_processed, enqueued = self._inbox.popleft()
        now = self.sim._now
        # Queue wait: arrival to service start.  Service start is finish
        # minus service; clamp the float round-trip to non-negative.
        self._serve(message, sender, service,
                    max(0.0, (now - service) - enqueued), on_processed)

    def _serve(self, message: object, sender: "Process", service: float,
               wait: float, on_processed: Callable[[], None] | None) -> None:
        """Account for and handle a message that has left the inbox."""
        inbox = self._inbox
        if len(inbox) < self._min_queue:
            self._min_queue = len(inbox)
        self._busy = False
        self.busy_time += service
        self.messages_handled += 1
        observed = self._observed
        observed.append(wait)
        observed.append(service)
        if len(observed) >= self._flush_at:
            self._flush()
        trace = self.sim.trace
        if trace._kinds is None or "proc_msg" in trace._kinds:  # wants()
            lineage = lineage_keys(message)
            trace.record_fields(
                self.sim._now, "proc_msg", self.name, (*_PROC_MSG_KEYS, *lineage),
                type(message).__name__, sender.name, wait, service,
                *lineage.values(),
            )
        self.handle(message, sender)
        # Checkpoint hooks run after handle() so the saved state covers this
        # message; only then is the sender's channel told it was processed.
        if self._hooks_handled:
            self.on_handled(message, sender)
        if on_processed is not None:
            on_processed()
        # handle() may have sent messages but cannot have consumed the inbox.
        if inbox and not self._busy:
            self._start_next()

    # -- crash / restart ---------------------------------------------------------
    @property
    def crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """Fail-stop: lose the mailbox and all volatile in-service work.

        Durable state is whatever the subclass restores in
        :meth:`on_restart` (see :class:`~repro.merge.process.MergeProcess`
        checkpoints).  Reliable channels into this process are notified so
        unacknowledged messages are retransmitted after the restart.
        """
        if self._crashed:
            raise SimulationError(f"{self.name} is already crashed")
        self._account_queue()
        lost = len(self._inbox)
        self._inbox.clear()
        self._min_queue = 0
        self._busy = False
        self._crashed = True
        self._epoch += 1
        self.crashes += 1
        self.count_lost(lost)
        self.trace("crash", lost_messages=lost)
        for channel in self._incoming:
            on_crash = getattr(channel, "on_destination_crash", None)
            if on_crash is not None:
                on_crash()
        self.on_crash()

    def restart(self) -> None:
        """Recover from a crash; subclasses restore durable state first."""
        if not self._crashed:
            raise SimulationError(f"{self.name} is not crashed")
        self._crashed = False
        self.trace("restart")
        self.on_restart()

    def on_crash(self) -> None:
        """Subclass hook: called after volatile state is discarded."""

    def on_restart(self) -> None:
        """Subclass hook: restore durable state (checkpoints) here."""

    def on_handled(self, message: object, sender: "Process") -> None:
        """Subclass hook: called after each handled message (checkpointing)."""

    # -- behaviour (subclass API) -------------------------------------------
    def service_time(self, message: object) -> float:
        """Virtual time spent serving ``message`` (default: instantaneous)."""
        return 0.0

    def handle(self, message: object, sender: "Process") -> None:
        """React to ``message``; subclasses must implement."""
        raise NotImplementedError(f"{type(self).__name__} does not handle messages")

    # -- statistics --------------------------------------------------------------
    def _publish(self) -> None:
        """Leave the instruments as feeding them per message would have."""
        self._m_handled.advance_to(self.messages_handled)
        self._m_busy.advance_to(self.busy_time)
        self._m_lost.advance_to(self.messages_lost)
        self._m_crashes.advance_to(self.crashes)
        if self.max_queue_length or self.crashes:  # a depth was sampled
            # what a set() per arrival, completion and crash would have left
            for depth in self._min_queue, self.max_queue_length, len(self._inbox):
                self._g_queue.set(depth)
        observed = self._observed
        for wait, service in zip(observed[::2], observed[1::2]):
            self._h_wait.observe(wait)
            self._h_service.observe(service)
        observed.clear()

    @property
    def queue_length(self) -> int:
        return len(self._inbox)

    def utilisation(self, elapsed: float | None = None) -> float:
        """Fraction of virtual time spent serving messages."""
        total = elapsed if elapsed is not None else self.sim.now
        if total <= 0:
            return 0.0
        return min(1.0, self.busy_time / total)

    def mean_queue_length(self) -> float:
        """Time-averaged mailbox length so far."""
        self._account_queue()
        if self.sim.now <= 0:
            return 0.0
        return self._queue_area / self.sim.now

    def queue_wait_stats(self) -> tuple[int, float, float]:
        """Queue-wait distribution so far: ``(count, mean, p95)``."""
        self._flush()
        return (
            self._h_wait.count,
            self._h_wait.mean,
            self._h_wait.quantile(0.95),
        )

    def trace(self, kind: str, **detail: object) -> None:
        """Record a trace event attributed to this process."""
        self.sim.trace.record_fields(
            self.sim.now, kind, self.name, tuple(detail), *detail.values()
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
