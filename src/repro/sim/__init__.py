"""Deterministic discrete-event simulation kernel.

The paper's architecture (Figure 1) is a set of concurrent processes —
sources, integrator, view managers, merge process(es), warehouse —
exchanging messages over channels that preserve per-sender order but have
arbitrary relative latencies.  This package provides exactly that
substrate: a deterministic event queue, processes with message handlers,
and FIFO channels, each with one fixed latency.

Determinism matters twice: it makes every experiment reproducible, and it
lets the schedulers (:mod:`repro.sim.scheduler`), the one way to perturb
timing, explore adversarial message interleavings replayably (e.g. an
action list arriving before its REL set, which SPA must tolerate — paper
§4).
"""

from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.network import (
    Channel,
    LossyChannel,
    ReliableChannel,
    Transmission,
)
from repro.sim.scheduler import (
    DelayInjectingScheduler,
    Perturbation,
    RandomScheduler,
    Scheduler,
)
from repro.sim.tracing import Trace, TraceEvent

__all__ = [
    "Simulator",
    "Process",
    "Channel",
    "LossyChannel",
    "ReliableChannel",
    "Transmission",
    "Scheduler",
    "RandomScheduler",
    "DelayInjectingScheduler",
    "Perturbation",
    "Trace",
    "TraceEvent",
]
