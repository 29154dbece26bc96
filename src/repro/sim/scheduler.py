"""Pluggable event schedulers: adversarial interleaving exploration.

The kernel breaks ties in virtual time by insertion order (FIFO), which
makes every run deterministic — but it also means the simulator only ever
exercises *one* interleaving per workload.  The paper's guarantees are
quantified over **all** interleavings ("for any message interleaving"),
so the conformance engine (:mod:`repro.conformance`) needs to search the
schedule space.  A :class:`Scheduler` is the hook that makes the search
possible without giving up determinism:

* :class:`Scheduler` (the default) reproduces the legacy FIFO tie-break
  bit-for-bit;
* :class:`RandomScheduler` shuffles same-time events with seed-derived,
  **stateless** tie-break keys, so a run is reproducible from its seed
  alone;
* :class:`DelayInjectingScheduler` adversarially stretches channel
  latencies and reorders same-time deliveries.  Every decision it takes
  is recorded as a discrete :class:`Perturbation`, and the same class
  replays an explicit perturbation list exactly — which is what lets the
  explorer delta-debug a failing schedule down to a minimal reproducer.

Causal-order safety
-------------------

A scheduler may only *permute* the schedule, never break causality.  The
kernel enforces this (see :meth:`repro.sim.kernel.Simulator.schedule_at`):
events tagged with the same FIFO ``lane`` (one lane per point-to-point
:class:`~repro.sim.network.Channel`) are clamped so their adjusted
``(time, tie-break)`` keys are non-decreasing in send order.  "Messages
from the same process must arrive in the order sent" (§4) therefore
survives **any** scheduler, including a buggy one.  Lossy channels opt
out of the clamp (``ordered=False``) because reordering is exactly the
fault they model.

Randomness is *stateless*: each decision is a pure hash of
``(seed, lane, event index)``, never a shared RNG stream.  Removing one
perturbation during shrinking therefore does not shift the randomness of
the surviving ones — the same trick :class:`repro.faults.FaultPlan` uses
for per-channel fault streams.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.errors import SimulationError

#: lanes are tuples of channel endpoint names; keep the alias readable
Lane = tuple


def _unit(seed: int, *key: object) -> float:
    """A stateless pseudo-random draw in [0, 1) from ``(seed, *key)``."""
    digest = zlib.crc32(repr((seed,) + key).encode("utf-8"))
    return digest / 2**32


@dataclass(frozen=True, slots=True)
class Perturbation:
    """One discrete scheduling decision, addressable for replay.

    ``kind`` is ``"delay"`` (add ``amount`` of virtual time to the event)
    or ``"reorder"`` (use ``amount`` as the same-time tie-break key
    instead of the FIFO default ``0.0``).  The target event is the
    ``index``-th event ever adjusted on ``lane``.
    """

    kind: str
    lane: tuple
    index: int
    amount: float

    def __post_init__(self) -> None:
        if self.kind not in ("delay", "reorder"):
            raise SimulationError(f"unknown perturbation kind {self.kind!r}")
        if self.index < 0:
            raise SimulationError(f"perturbation index must be >= 0: {self.index}")
        if self.amount < 0:
            raise SimulationError(f"perturbation amount must be >= 0: {self.amount}")
        if not isinstance(self.lane, tuple):
            object.__setattr__(self, "lane", tuple(self.lane))


class Scheduler:
    """The default policy: FIFO tie-breaks, no injected latency.

    ``adjust`` maps every scheduled event to its effective
    ``(time, tie_break)`` priority; the kernel appends the insertion
    sequence number after the tie-break, so returning a constant key
    reproduces the legacy insertion-order behaviour bit-for-bit.
    """

    def reset(self) -> None:
        """Forget per-run state; called by the simulator that adopts us."""

    def adjust(self, time: float, lane: Lane | None) -> tuple[float, float]:
        """Effective ``(time, tie_break)`` for an event requested at ``time``.

        ``lane`` identifies the FIFO stream the event belongs to (a
        point-to-point channel), or ``None`` for internal events.
        Implementations must never return a time earlier than requested.
        """
        return (time, 0.0)


class RandomScheduler(Scheduler):
    """Shuffle same-time events with stateless seed-derived tie-breaks.

    Events on the same lane at the same time share one key (preserving
    their FIFO order via the kernel's sequence numbers); events on
    different lanes — or internal, lane-less events — get independent
    keys and so execute in a seed-dependent order whenever they collide
    in virtual time.  No state beyond a lane-less event counter is kept,
    so a run is reproducible from the seed alone.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._internal = 0

    def reset(self) -> None:
        self._internal = 0

    def adjust(self, time: float, lane: Lane | None) -> tuple[float, float]:
        if lane is None:
            self._internal += 1
            return (time, _unit(self.seed, "internal", self._internal))
        return (time, _unit(self.seed, "lane", lane, time))

    def __repr__(self) -> str:
        return f"RandomScheduler(seed={self.seed})"


class DelayInjectingScheduler(Scheduler):
    """Adversarially stretch channel latencies and reorder deliveries.

    In *exploration* mode (the default), each channel event is hit with a
    seed-derived delay of up to ``max_delay`` with probability
    ``delay_rate``, and with a random same-time tie-break key with
    probability ``reorder_rate``; every injected decision is appended to
    :attr:`decisions`.  In *replay* mode (:meth:`replay`), exactly the
    given perturbations are applied and nothing else — the contract the
    shrinker and the ``conformance replay`` CLI rely on.

    Only lane-tagged (channel) events are perturbed: internal events have
    no stable identity across runs, so perturbing them would not be
    replayable.  Intra-lane causal order is restored by the kernel clamp
    regardless of what this class returns.
    """

    def __init__(
        self,
        seed: int = 0,
        delay_rate: float = 0.15,
        max_delay: float = 3.0,
        reorder_rate: float = 0.15,
        perturbations: list[Perturbation] | None = None,
    ) -> None:
        for name, rate in (("delay_rate", delay_rate), ("reorder_rate", reorder_rate)):
            if not 0.0 <= rate <= 1.0:
                raise SimulationError(f"{name} must be in [0, 1], got {rate}")
        if max_delay < 0:
            raise SimulationError(f"max_delay must be >= 0, got {max_delay}")
        self.seed = seed
        self.delay_rate = delay_rate
        self.max_delay = max_delay
        self.reorder_rate = reorder_rate
        self.replaying = perturbations is not None
        self._explicit: dict[tuple[str, tuple, int], Perturbation] = {
            (p.kind, p.lane, p.index): p for p in perturbations or ()
        }
        #: perturbations injected (exploration) or applied (replay) so far
        self.decisions: list[Perturbation] = []
        self._lane_counts: dict[tuple, int] = {}

    @classmethod
    def replay(cls, perturbations: list[Perturbation]) -> "DelayInjectingScheduler":
        """A scheduler that applies exactly ``perturbations``, nothing else."""
        return cls(perturbations=list(perturbations))

    def reset(self) -> None:
        self.decisions = []
        self._lane_counts = {}

    def adjust(self, time: float, lane: Lane | None) -> tuple[float, float]:
        if lane is None:
            return (time, 0.0)
        index = self._lane_counts.get(lane, 0)
        self._lane_counts[lane] = index + 1
        delay = 0.0
        key = 0.0
        if self.replaying:
            hit = self._explicit.get(("delay", lane, index))
            if hit is not None:
                delay = hit.amount
                self.decisions.append(hit)
            hit = self._explicit.get(("reorder", lane, index))
            if hit is not None:
                key = hit.amount
                self.decisions.append(hit)
        else:
            if _unit(self.seed, "delay?", lane, index) < self.delay_rate:
                delay = self.max_delay * _unit(self.seed, "delay", lane, index)
                self.decisions.append(Perturbation("delay", lane, index, delay))
            if _unit(self.seed, "reorder?", lane, index) < self.reorder_rate:
                key = _unit(self.seed, "reorder", lane, index)
                self.decisions.append(Perturbation("reorder", lane, index, key))
        return (time + delay, key)

    def __repr__(self) -> str:
        mode = "replay" if self.replaying else f"seed={self.seed}"
        return (
            f"DelayInjectingScheduler({mode}, delay_rate={self.delay_rate}, "
            f"max_delay={self.max_delay}, reorder_rate={self.reorder_rate})"
        )
