"""Point-to-point message channels, each with one fixed latency.

The paper's only ordering assumption is that "messages from the same
process must arrive in the order sent" (§4).  A :class:`Channel` delivers
each message ``latency`` after it was sent, so its deliveries are in send
order (the default scheduler needs no clamp for them, see ``send``);
channels of different latencies reorder *between* each other.  The one
way to perturb timing beyond that is the simulator's scheduler
(:mod:`repro.sim.scheduler`), and the kernel's per-lane clamp keeps every
channel FIFO under any scheduler.

The paper *assumes* reliable FIFO delivery; this module also provides the
machinery to drop that assumption and win it back:

* :class:`LossyChannel` — a channel subject to a fault model: messages may
  be dropped, duplicated or hit by delay spikes, and there is **no** FIFO
  clamp (a delayed message arrives late, after its successors).
* :class:`ReliableChannel` — layers sequence numbers, cumulative
  acknowledgements, timeout/retransmit with capped exponential backoff and
  duplicate suppression over that lossy transport, so FIFO-exactly-once
  processing is *recovered* rather than assumed.  Acknowledgements are
  only sent once the destination has **processed** a frame (not merely
  received it), which together with receiver-side checkpoints makes the
  protocol survive destination crashes (see
  :mod:`repro.sim.process` and :class:`repro.merge.process.MergeProcess`).
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.messages import AckFrame, SequencedFrame
from repro.record import Record

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator
    from repro.sim.process import Process


class Channel:
    """A point-to-point FIFO channel; its ``latency`` is fixed for life."""

    def __init__(
        self,
        sim: "Simulator",
        source: "Process",
        destination: "Process",
        latency: float = 0.0,
    ) -> None:
        if latency < 0:
            raise SimulationError(f"latency must be non-negative, got {latency}")
        self._sim = sim
        self.source = source
        self.destination = destination
        self._latency = float(latency)
        # FIFO lane identity: schedulers may perturb deliveries per lane,
        # and the kernel clamps ordered lanes so same-channel messages
        # can never overtake each other (see repro.sim.scheduler).
        self.lane = (source.name, destination.name)
        self.messages_sent = 0
        # Registry mirror: per-(src, dst) traffic counters.  The plain
        # attributes above stay the per-channel exact counts; the registry
        # aggregates across channels sharing an endpoint pair, so _publish
        # adds what was sent since it last ran (whole numbers add exactly).
        self._m_sent = sim.metrics.counter(
            "chan_messages_sent", src=source.name, dst=destination.name
        )
        self._sent_published = 0
        sim.metrics.on_read(self._publish)

    def _publish(self) -> None:
        sent = self.messages_sent
        self._m_sent.inc(sent - self._sent_published)
        self._sent_published = sent

    @property
    def latency(self) -> float:
        return self._latency

    def send(self, message: object) -> float:
        """Queue ``message`` for delivery at ``now + latency``; returns that time.

        Under the exact default scheduler this pushes the heap entry
        itself, with no lane mark: the latency is fixed, ``now`` never
        decreases and IEEE addition is monotone, so the deliveries are
        already in send order and the lane clamp could never fire.  Any
        other scheduler goes through ``schedule_at`` and its clamp.
        """
        sim = self._sim
        deliver_at = sim._now + self._latency
        self.messages_sent += 1
        if sim._default_scheduler:
            heappush(sim._queue, (deliver_at, 0.0, next(sim._sequence),
                                  self.destination.deliver, (message, self.source)))
        else:
            sim.schedule_at(deliver_at, self.destination.deliver, message,
                            self.source, lane=self.lane)
        return deliver_at

    def __repr__(self) -> str:
        return (
            f"Channel({self.source.name} -> {self.destination.name}, "
            f"{self.latency!r})"
        )


class Transmission(Record):
    """One fault decision: what the network does to a single transmission.

    Produced by a fault model (see :class:`repro.faults.ChannelFaultModel`);
    consumed by :class:`LossyChannel`.  ``duplicates`` is the number of
    *extra* copies injected; ``extra_delay`` is added on top of the
    channel's latency (a delay spike).  Read-only once built.
    """

    __slots__ = ("drop", "duplicates", "extra_delay")

    def __init__(self, drop: bool = False, duplicates: int = 0,
                 extra_delay: float = 0.0) -> None:
        self.drop = drop
        self.duplicates = duplicates
        self.extra_delay = extra_delay


#: the decision a perfect network makes for every transmission
CLEAN_TRANSMISSION = Transmission()


class LossyChannel(Channel):
    """A point-to-point channel over a faulty network.

    Each transmission consults the fault model: the message may be dropped,
    duplicated, or delayed by a spike.  Crucially there is **no** FIFO
    clamp — each surviving copy arrives ``latency`` plus its spike after
    it was sent, so a delay spike reorders messages within the channel.
    This is the raw transport :class:`ReliableChannel` recovers
    FIFO-exactly-once over.
    """

    def __init__(
        self,
        sim: "Simulator",
        source: "Process",
        destination: "Process",
        latency: float = 0.0,
        faults: object | None = None,
    ) -> None:
        super().__init__(sim, source, destination, latency)
        self.faults = faults
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self._m_dropped = sim.metrics.counter(
            "chan_messages_dropped", src=source.name, dst=destination.name
        )
        self._m_duplicated = sim.metrics.counter(
            "chan_messages_duplicated", src=source.name, dst=destination.name
        )

    def _next_transmission(self, faults: object | None) -> Transmission:
        if faults is None:
            return CLEAN_TRANSMISSION
        return faults.next_transmission()

    def _transmit(
        self, message: object, deliver, faults: object | None, *args: object
    ):
        """Schedule the arrivals of one logical transmission.

        Each surviving copy arrives as ``deliver(message, *args)``.
        Returns the primary copy's arrival time, or ``None`` if the
        network dropped it (injected duplicates may still arrive).
        """
        decision = self._next_transmission(faults)
        now = self._sim.now
        delay = self.latency + decision.extra_delay
        arrival = None
        if decision.drop:
            self.messages_dropped += 1
            self._m_dropped.inc()
            self._sim.trace.record(
                now,
                "msg_drop",
                self.source.name,
                to=self.destination.name,
                message=type(message).__name__,
            )
        else:
            arrival = now + delay
            # ordered=False: a lossy transport has no FIFO guarantee, so
            # the kernel must not clamp scheduler perturbations here —
            # reordering is precisely the fault this channel models.
            self._sim.schedule_at(
                arrival, deliver, message, *args, lane=self.lane, ordered=False
            )
        for _ in range(decision.duplicates):
            self.messages_duplicated += 1
            self._m_duplicated.inc()
            self._sim.schedule(
                delay, deliver, message, *args, lane=self.lane, ordered=False
            )
        return arrival

    def send(self, message: object) -> float:
        """Transmit once; returns the primary arrival time (``now`` if dropped)."""
        self.messages_sent += 1
        arrival = self._transmit(
            message, self.destination.deliver, self.faults, self.source
        )
        return arrival if arrival is not None else self._sim.now


class ReliableChannel(LossyChannel):
    """FIFO-exactly-once processing recovered over a lossy transport.

    Sender side: every payload is wrapped in a :class:`SequencedFrame`,
    kept in an unacknowledged buffer, and retransmitted on timeout with
    capped exponential backoff until a cumulative :class:`AckFrame` covers
    it.  Receiver side: frames are re-ordered into sequence, duplicates are
    suppressed, and each frame is delivered to the destination's mailbox in
    order.  An ack is only sent once the destination has *processed* the
    frame (the mailbox ``on_processed`` callback), so a destination crash —
    which wipes the mailbox — simply leaves those frames unacknowledged and
    they are retransmitted after the restart.

    The sender's volatile state (next sequence number + unacked buffer) can
    be checkpointed with :meth:`sender_state` and reinstated with
    :meth:`restore_sender_state`, which is how a crashed *sender* process
    resumes without losing in-flight messages (see
    :class:`repro.merge.process.MergeProcess`).
    """

    def __init__(
        self,
        sim: "Simulator",
        source: "Process",
        destination: "Process",
        latency: float = 0.0,
        faults: object | None = None,
        ack_faults: object | None = None,
        timeout: float = 4.0,
        backoff_factor: float = 2.0,
        timeout_cap: float = 32.0,
    ) -> None:
        super().__init__(sim, source, destination, latency, faults)
        if timeout <= 0:
            raise SimulationError(f"retransmit timeout must be positive: {timeout}")
        if backoff_factor < 1:
            raise SimulationError(f"backoff factor must be >= 1: {backoff_factor}")
        if timeout_cap < timeout:
            raise SimulationError(
                f"timeout cap {timeout_cap} below base timeout {timeout}"
            )
        self.ack_faults = ack_faults
        self.timeout = timeout
        self.backoff_factor = backoff_factor
        self.timeout_cap = timeout_cap
        # sender state
        self._next_seq = 1
        self._unacked: dict[int, object] = {}
        self._attempts: dict[int, int] = {}
        self._timer_token: dict[int, int] = {}
        self._tokens = 0
        # receiver state
        self._expected = 1
        self._last_processed = 0
        self._reorder: dict[int, object] = {}
        self._in_mailbox: set[int] = set()
        # statistics
        self.retransmissions = 0
        self.duplicates_suppressed = 0
        self.acks_sent = 0
        self._m_retransmissions = sim.metrics.counter(
            "chan_retransmissions", src=source.name, dst=destination.name
        )
        self._m_suppressed = sim.metrics.counter(
            "chan_duplicates_suppressed", src=source.name, dst=destination.name
        )
        self._m_acks = sim.metrics.counter(
            "chan_acks_sent", src=source.name, dst=destination.name
        )
        destination.register_incoming(self)

    # -- sender ------------------------------------------------------------
    def send(self, message: object) -> float:
        """Queue ``message`` for reliable, in-order, exactly-once processing."""
        seq = self._next_seq
        self._next_seq += 1
        self._unacked[seq] = message
        self._attempts[seq] = 0
        self.messages_sent += 1
        arrival = self._transmit_frame(seq)
        self._arm_timer(seq)
        return arrival if arrival is not None else self._sim.now

    def _transmit_frame(self, seq: int):
        frame = SequencedFrame(seq, self._unacked[seq])
        return self._transmit(frame, self._on_frame, self.faults)

    def _arm_timer(self, seq: int) -> None:
        self._tokens += 1
        token = self._tokens
        self._timer_token[seq] = token
        attempt = self._attempts[seq]
        delay = min(
            self.timeout * self.backoff_factor**attempt, self.timeout_cap
        )
        self._sim.schedule(delay, self._on_timeout, seq, token)

    def _on_timeout(self, seq: int, token: int) -> None:
        if seq not in self._unacked or self._timer_token.get(seq) != token:
            return  # acked meanwhile, or superseded by a restored checkpoint
        self._attempts[seq] += 1
        self.retransmissions += 1
        self._m_retransmissions.inc()
        self._sim.trace.record(
            self._sim.now,
            "msg_retransmit",
            self.source.name,
            to=self.destination.name,
            seq=seq,
            attempt=self._attempts[seq],
        )
        self._transmit_frame(seq)
        self._arm_timer(seq)

    def _on_ack(self, frame: AckFrame) -> None:
        for seq in [s for s in self._unacked if s <= frame.ack]:
            del self._unacked[seq]
            self._attempts.pop(seq, None)
            self._timer_token.pop(seq, None)

    def sender_state(self) -> tuple[int, dict[int, object]]:
        """Checkpointable sender state: ``(next_seq, unacked buffer)``."""
        return (self._next_seq, dict(self._unacked))

    def restore_sender_state(self, state: tuple[int, dict[int, object]]) -> None:
        """Reinstate a checkpointed sender state and retransmit the backlog.

        Resurrecting frames that were acknowledged after the checkpoint is
        harmless: the receiver's duplicate suppression re-acks them.
        """
        next_seq, unacked = state
        self._next_seq = next_seq
        self._unacked = dict(unacked)
        self._attempts = {seq: 0 for seq in self._unacked}
        self._timer_token.clear()
        for seq in sorted(self._unacked):
            self.retransmissions += 1
            self._m_retransmissions.inc()
            self._transmit_frame(seq)
            self._arm_timer(seq)

    # -- receiver ----------------------------------------------------------
    def _on_frame(self, frame: SequencedFrame) -> None:
        if self.destination.crashed:
            # Arrived at a dead process: lost with the rest of its volatile
            # state.  No ack, so the sender will retransmit after restart.
            self.destination.count_lost()
            return
        seq = frame.seq
        if seq <= self._last_processed:
            # Stale duplicate (retransmit raced the ack): re-ack so the
            # sender can clear its buffer.
            self.duplicates_suppressed += 1
            self._m_suppressed.inc()
            self._send_ack()
            return
        if seq in self._reorder or seq in self._in_mailbox:
            self.duplicates_suppressed += 1
            self._m_suppressed.inc()
            return
        self._reorder[seq] = frame.payload
        while self._expected in self._reorder:
            ready = self._expected
            payload = self._reorder.pop(ready)
            self._in_mailbox.add(ready)
            self._expected += 1
            self.destination.deliver(
                payload, self.source, on_processed=lambda s=ready: self._on_processed(s)
            )

    def _on_processed(self, seq: int) -> None:
        self._in_mailbox.discard(seq)
        self._last_processed = max(self._last_processed, seq)
        self._send_ack()

    def _send_ack(self) -> None:
        self.acks_sent += 1
        self._m_acks.inc()
        self._transmit(AckFrame(self._last_processed), self._on_ack, self.ack_faults)

    def on_destination_crash(self) -> None:
        """The destination lost its mailbox: rewind to the processed prefix."""
        self._reorder.clear()
        self._in_mailbox.clear()
        self._expected = self._last_processed + 1

    # -- inspection --------------------------------------------------------
    @property
    def unacked(self) -> int:
        return len(self._unacked)

    def __repr__(self) -> str:
        return (
            f"ReliableChannel({self.source.name} -> {self.destination.name}, "
            f"{self.latency!r}, unacked={len(self._unacked)})"
        )
