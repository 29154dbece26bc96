"""Execution runtimes: who runs the process graph (see docs/runtime.md).

A :class:`~repro.system.builder.WarehouseSystem` is a graph of
:class:`~repro.sim.process.Process` objects wired by FIFO
:class:`~repro.sim.network.Channel`\\ s.  Every process and channel holds
one *kernel* as ``self.sim``; kernels duck-type the simulator surface
(``now``, ``rng``, ``trace``, ``metrics``, ``schedule``, ``schedule_at``,
``run``, ...), so the rest of the codebase never branches on the
execution substrate.

* ``des``     — the discrete-event :class:`~repro.sim.kernel.Simulator`,
  virtual time, bit-for-bit deterministic (the default).
* ``threads`` — :class:`~repro.runtime.parallel.ParallelKernel`: every
  process executes on a worker-thread fleet under a monotonic wall clock;
  the real-interleaving correctness harness.

Pick with ``SystemConfig(runtime=..., workers=...)`` or
``python -m repro run --runtime threads --workers 4``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.parallel import ParallelKernel
    from repro.system.config import SystemConfig


def _des(config: "SystemConfig") -> Simulator:
    return Simulator(seed=config.seed, scheduler=config.scheduler)


def _threads(config: "SystemConfig") -> "ParallelKernel":
    from repro.runtime.parallel import ParallelKernel

    return ParallelKernel(
        seed=config.seed,
        workers=config.workers,
        mailbox_capacity=config.mailbox_capacity,
        timeout=config.runtime_timeout,
    )


#: ``SystemConfig.runtime`` name -> kernel factory, in the order configs
#: and ``--help`` list them.  This table is the one place a runtime name is
#: interpreted: a new runtime writes its kernel and adds a row here.
RUNTIMES: dict[str, Callable[["SystemConfig"], object]] = {
    "des": _des,
    "threads": _threads,
}

__all__ = ["RUNTIMES"]
