"""Schedule-exploration conformance engine.

The §2 consistency definitions are promises about *every* execution, but
a single deterministic run only witnesses one interleaving.  This package
turns the simulator into a model checker (in the Jepsen/TLC tradition):

* :mod:`~repro.conformance.scenario` — :class:`ScenarioSpec`, a
  JSON-serializable description of one configuration under test (a
  schema, a ``WorkloadSpec``, ``SystemConfig`` overrides and a scheduler
  kind), and the one place a run is assembled;
* :mod:`~repro.conformance.oracle` — what each configuration promises
  (per view, per pair, fleet-wide) and whether a finished run kept it;
* :mod:`~repro.conformance.explorer` — drive many seeded runs, turn
  crashes and broken promises into findings, delta-debug a finding's
  scheduling perturbations to a 1-minimal :class:`Reproducer`, and
  replay reproducers byte-for-byte (verified by trace digest);
* :mod:`~repro.conformance.shrink` — the ``ddmin`` implementation;
* :mod:`~repro.conformance.matrix` — the guarantee matrix: SPA fleets
  stay complete, PA fleets stay strong, mixed fleets deliver their
  weakest member's level, and naive/periodic fleets demonstrably fail.

Entry point: ``python -m repro conformance explore|replay|matrix``.
"""

from repro.conformance.explorer import (
    Explorer,
    Finding,
    ReplayResult,
    Reproducer,
    RunResult,
    replay,
)
from repro.conformance.matrix import (
    GUARANTEE_MATRIX,
    MatrixResult,
    MatrixRow,
    run_matrix,
    run_row,
)
from repro.conformance.oracle import (
    Violation,
    check_run,
    check_run_at,
)
from repro.conformance.scenario import ScenarioSpec
from repro.conformance.shrink import ddmin

__all__ = [
    "GUARANTEE_MATRIX",
    "Explorer",
    "Finding",
    "MatrixResult",
    "MatrixRow",
    "ReplayResult",
    "Reproducer",
    "RunResult",
    "ScenarioSpec",
    "Violation",
    "check_run",
    "check_run_at",
    "ddmin",
    "replay",
    "run_matrix",
    "run_row",
]
