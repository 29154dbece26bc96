"""Execution runtimes: who runs the process graph (see docs/runtime.md).

* ``des``     — the discrete-event :class:`~repro.sim.kernel.Simulator`,
  virtual time, bit-for-bit deterministic (the default).
* ``threads`` — :class:`~repro.runtime.parallel.ParallelKernel`: every
  process executes on a worker-thread fleet under a monotonic wall clock.
* ``procs``   — threads plus forked per-shard compute servers running the
  columnar maintenance probes on real cores
  (:mod:`repro.runtime.procpool`).

Pick with ``SystemConfig(runtime=..., workers=...)`` or
``python -m repro run --runtime threads --workers 4``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtime.base import DesRuntime, Runtime
from repro.runtime.parallel import ProcsRuntime, ThreadsRuntime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.system.config import SystemConfig

#: ``SystemConfig.runtime`` name -> class, in the order configs and
#: ``--help`` list them.  A new runtime declares ``name`` and is added here.
RUNTIMES: dict[str, type[Runtime]] = {
    cls.name: cls for cls in (DesRuntime, ThreadsRuntime, ProcsRuntime)
}


def create_runtime(config: "SystemConfig") -> Runtime:
    """The runtime a configuration asks for (validated by the config)."""
    return RUNTIMES[config.runtime](config)


__all__ = ["RUNTIMES", "DesRuntime", "Runtime", "create_runtime"]
