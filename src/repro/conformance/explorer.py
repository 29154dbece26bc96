"""The explorer: hunt a scenario's seed space for guarantee violations,
then shrink what it finds to a minimal, replayable reproducer.

One *run* = build the scenario at a run seed (which seeds the scheduler,
the fault streams, and — unless pinned — the update workload), execute it
to completion, and ask the oracle whether the advertised consistency
level held.  A run that raises is itself a finding (``scope="run"``,
``level="execution"``): a conformant configuration must not crash, and
the naive fleet's double-apply crashes are exactly the §2 anomalies the
engine exists to expose.

Findings made under the :class:`DelayInjectingScheduler` carry the full
list of scheduling perturbations; :meth:`Explorer.shrink` delta-debugs
that list down to a 1-minimal reproducer and packages it — scenario,
seed, perturbations, violation, and the violating run's trace digest —
as a JSON file that ``python -m repro conformance replay`` re-executes
bit-for-bit.
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass
from pathlib import Path

from repro.conformance.oracle import Violation, check_run, check_run_at
from repro.conformance.scenario import ScenarioSpec, decode, encode
from repro.conformance.shrink import ddmin
from repro.errors import ReproError
from repro.sim.scheduler import DelayInjectingScheduler, Perturbation

REPRODUCER_FORMAT = "mvc-conformance-repro/2"


@dataclass
class RunResult:
    """One executed run: what broke (if anything) and how to re-run it."""

    seed: int
    violations: list[Violation]
    perturbations: list[Perturbation]
    trace_digest: str


@dataclass
class Finding(RunResult):
    """A violating run (``violations`` is non-empty)."""

    def signature(self) -> frozenset[tuple[str, str]]:
        """The ``(scope, level)`` pairs that failed — shrinking preserves
        at least one of these, so the minimal run shows the *same kind*
        of violation, not an unrelated one."""
        return frozenset((v.scope, v.level) for v in self.violations)


@dataclass
class Reproducer:
    """A standalone, serialized witness of one violation.

    ``perturbations`` is the (shrunk) explicit schedule when the finding
    came from a delay-injecting scheduler; ``None`` means "re-run the
    scenario's own scheduler at ``seed``" (fifo/random findings, which
    have no addressable decisions to shrink).
    """

    scenario: dict
    seed: int
    violation: dict
    trace_sha256: str
    perturbations: list[Perturbation] | None = None
    # Oracle mode the finding was made under: None = the advertised
    # guarantee, or an explicit MVC level (negative-oracle hunts).
    level: str | None = None
    format: str = REPRODUCER_FORMAT

    def spec(self) -> ScenarioSpec:
        return ScenarioSpec.from_dict(self.scenario)

    def to_dict(self) -> dict:
        return encode(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "Reproducer":
        if data.get("format") != REPRODUCER_FORMAT:
            raise ReproError(
                f"unknown reproducer format {data.get('format')!r} "
                f"(expected {REPRODUCER_FORMAT})"
            )
        return decode(cls, data)

    @classmethod
    def from_json(cls, text: str) -> "Reproducer":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Reproducer":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


@dataclass
class ReplayResult:
    """Outcome of re-executing a reproducer."""

    reproduced: bool  # same (scope, level) violation observed
    digest_matches: bool  # trace identical to the recorded run
    violations: list[Violation]
    trace_digest: str


class Explorer:
    """Drive seeded runs of a :class:`ScenarioSpec` and collect findings.

    ``level`` overrides the oracle: instead of checking the advertised
    guarantee, every run is checked against this explicit MVC level.
    That is the negative-oracle mode — e.g. "show me a naive fleet run
    that is not even strongly consistent".
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        seeds: int = 100,
        time_budget: float | None = None,
        stop_on_first: bool = True,
        level: str | None = None,
    ) -> None:
        if seeds < 1:
            raise ReproError(f"need at least one seed, got {seeds}")
        self.spec = spec
        self.seeds = seeds
        self.time_budget = time_budget
        self.stop_on_first = stop_on_first
        self.level = level
        self.runs_executed = 0

    # -- single runs ---------------------------------------------------------
    def execute(self, seed: int, scheduler=None) -> RunResult:
        """Build + run + check one seed; exceptions become violations."""
        self.runs_executed += 1
        # every kind is recorded: the run's identity is its trace digest
        system = self.spec.build(seed, scheduler, trace_kinds=None)
        used = system.sim.scheduler
        try:
            try:
                system.run()
                if self.level is None:
                    violations = check_run(system)
                else:
                    violations = check_run_at(system, self.level)
            except Exception as error:  # noqa: BLE001 — any crash is a finding
                violations = [
                    Violation(
                        "run", "execution", f"{type(error).__name__}: {error}"
                    )
                ]
            perturbations = list(getattr(used, "decisions", ()))
            return RunResult(
                seed=seed,
                violations=violations,
                perturbations=perturbations,
                trace_digest=system.sim.trace.digest(),
            )
        finally:
            # Cache-enabled scenarios own a temp artifact store; every
            # explored seed must release it.
            system.close()

    # -- exploration ---------------------------------------------------------
    def explore(self) -> list[Finding]:
        """Run seeds ``0 .. seeds-1`` (within the time budget) and return
        every violating run found (just the first, by default)."""
        findings: list[Finding] = []
        deadline = (
            None
            if self.time_budget is None
            else _time.monotonic() + self.time_budget
        )
        for seed in range(self.seeds):
            if deadline is not None and _time.monotonic() >= deadline:
                break
            result = self.execute(seed)
            if result.violations:
                findings.append(
                    Finding(
                        seed=result.seed,
                        violations=result.violations,
                        perturbations=result.perturbations,
                        trace_digest=result.trace_digest,
                    )
                )
                if self.stop_on_first:
                    break
        return findings

    # -- shrinking -----------------------------------------------------------
    def shrink(self, finding: Finding, max_runs: int = 256) -> Reproducer:
        """Delta-debug a finding's perturbations to a minimal reproducer.

        Findings from fifo/random schedules have no addressable decisions
        and are packaged as seed-only reproducers unshrunk.
        """
        signature = finding.signature()

        def matches(violations: list[Violation]) -> bool:
            return any((v.scope, v.level) in signature for v in violations)

        if not matches(finding.violations):  # pragma: no cover - paranoia
            raise ReproError("finding does not match its own signature")

        if self.spec.scheduler == "delay":

            def still_fails(perturbations: list[Perturbation]) -> bool:
                scheduler = DelayInjectingScheduler.replay(perturbations)
                return matches(
                    self.execute(finding.seed, scheduler=scheduler).violations
                )

            minimal, _runs = ddmin(
                finding.perturbations, still_fails, max_runs=max_runs
            )
            final = self.execute(
                finding.seed, scheduler=DelayInjectingScheduler.replay(minimal)
            )
            kept = [v for v in final.violations if (v.scope, v.level) in signature]
            perturbations: list[Perturbation] | None = minimal
        else:
            final = self.execute(finding.seed)
            kept = [v for v in final.violations if (v.scope, v.level) in signature]
            perturbations = None
        if not kept:  # pragma: no cover - shrinking preserves the signature
            raise ReproError("shrunk run no longer violates; unstable scenario")
        worst = kept[0]
        return Reproducer(
            scenario=self.spec.to_dict(),
            seed=finding.seed,
            perturbations=perturbations,
            violation={
                "scope": worst.scope,
                "level": worst.level,
                "reason": worst.reason,
            },
            trace_sha256=final.trace_digest,
            level=self.level,
        )


def replay(reproducer: Reproducer) -> ReplayResult:
    """Re-execute a reproducer and verify it still shows the violation.

    ``digest_matches`` compares the re-run's trace digest against the
    recorded one — True means the run was reproduced byte-for-byte, not
    merely "some violation happened again".
    """
    spec = reproducer.spec()
    explorer = Explorer(spec, seeds=1, level=reproducer.level)
    scheduler = None
    if reproducer.perturbations is not None:
        scheduler = DelayInjectingScheduler.replay(reproducer.perturbations)
    result = explorer.execute(reproducer.seed, scheduler=scheduler)
    wanted = (reproducer.violation["scope"], reproducer.violation["level"])
    reproduced = any((v.scope, v.level) == wanted for v in result.violations)
    return ReplayResult(
        reproduced=reproduced,
        digest_matches=result.trace_digest == reproducer.trace_sha256,
        violations=result.violations,
        trace_digest=result.trace_digest,
    )


__all__ = [
    "REPRODUCER_FORMAT",
    "Explorer",
    "Finding",
    "ReplayResult",
    "Reproducer",
    "RunResult",
    "replay",
]
