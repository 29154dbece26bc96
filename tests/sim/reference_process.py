"""The per-message-feeding ``Process``: the oracle for publish on read.

Until the statistics moved into plain attributes, ``Process`` fed its
registry instruments twice per message (``Gauge.set`` on arrival and on
completion, ``Histogram.observe`` for wait and service, ``Counter.inc`` for
handled count and busy time).  This is that mailbox and service loop, kept
so that ``tests/sim/test_hot_path.py`` can require the published
instruments to be bit-identical to the fed ones.  It never fuses a
delivery with its service event.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError
from repro.messages import lineage_keys
from repro.sim.process import Process


class ReferenceProcess(Process):
    def __init__(self, sim, name):  # noqa: D107 - not Process.__init__: no publisher
        self.sim = sim
        self.name = name
        self._inbox = deque()
        self._busy = False
        self._outgoing = {}
        self._crashed = False
        self._epoch = 0
        self._incoming = []
        metrics = sim.metrics
        self._m_handled = metrics.counter("proc_messages_handled", process=name)
        self._m_busy = metrics.counter("proc_busy_time", process=name)
        self._m_lost = metrics.counter("proc_messages_lost", process=name)
        self._m_crashes = metrics.counter("proc_crashes", process=name)
        self._g_queue = metrics.gauge("proc_queue_length", process=name)
        self._h_wait = metrics.histogram("proc_queue_wait", process=name)
        self._h_service = metrics.histogram("proc_service_time", process=name)
        self._queue_area = 0.0
        self._last_stat_time = 0.0

    def deliver(self, message, sender, on_processed=None):
        if self._crashed:
            self.count_lost()
            self.trace(
                "msg_lost", sender=sender.name, message=type(message).__name__
            )
            return
        self._account_queue()
        now = self.sim.now
        self._inbox.append((message, sender, on_processed, now))
        self._g_queue.set(len(self._inbox), at=now)
        if not self._busy:
            self._start_next()

    def count_lost(self, n=1):
        self._m_lost.inc(n)

    def _start_next(self, fuse=False):
        if not self._inbox:
            return
        self._busy = True
        message, sender, _on_processed, _enqueued = self._inbox[0]
        service = self.service_time(message)
        if service < 0:
            raise SimulationError(
                f"{self.name}.service_time returned negative {service}"
            )
        self.sim.schedule(service, self._finish, message, sender, service, self._epoch)

    def _finish(self, message, sender, service, epoch):
        if epoch != self._epoch:
            return
        self._account_queue()
        now = self.sim.now
        _message, _sender, on_processed, enqueued = self._inbox.popleft()
        self._g_queue.set(len(self._inbox), at=now)
        self._busy = False
        self._m_busy.inc(service)
        self._m_handled.inc()
        wait = max(0.0, (now - service) - enqueued)
        self._h_wait.observe(wait)
        self._h_service.observe(service)
        trace = self.sim.trace
        if trace.wants("proc_msg"):
            trace.record(
                now,
                "proc_msg",
                self.name,
                message=type(message).__name__,
                sender=sender.name,
                wait=wait,
                service=service,
                **lineage_keys(message),
            )
        self.handle(message, sender)
        self.on_handled(message, sender)
        if on_processed is not None:
            on_processed()
        if self._inbox and not self._busy:
            self._start_next()

    def crash(self):
        if self._crashed:
            raise SimulationError(f"{self.name} is already crashed")
        self._account_queue()
        lost = len(self._inbox)
        self._inbox.clear()
        self._g_queue.set(0, at=self.sim.now)
        self._busy = False
        self._crashed = True
        self._epoch += 1
        self._m_crashes.inc()
        self.count_lost(lost)
        self.trace("crash", lost_messages=lost)
        for channel in self._incoming:
            on_crash = getattr(channel, "on_destination_crash", None)
            if on_crash is not None:
                on_crash()
        self.on_crash()

    messages_handled = property(lambda self: int(self._m_handled.value))
    busy_time = property(lambda self: self._m_busy.value)
    max_queue_length = property(lambda self: int(self._g_queue.max))
    crashes = property(lambda self: int(self._m_crashes.value))
    messages_lost = property(lambda self: int(self._m_lost.value))

    def queue_wait_stats(self):
        return (
            self._h_wait.count,
            self._h_wait.mean,
            self._h_wait.quantile(0.95),
        )
