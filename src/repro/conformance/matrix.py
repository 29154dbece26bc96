"""The guarantee matrix: the paper's promises as executable rows.

Each row pairs a fleet configuration with an expectation:

* ``holds`` rows assert the advertised level survives every explored
  schedule — SPA fleets stay complete, PA fleets stay strong, mixed
  fleets deliver exactly their weakest member's level, and a reliable
  channel stack keeps its guarantee under drops and duplicates;
* ``violates`` rows are negative oracles — naive and periodic fleets
  must produce a *detectable* violation of the named level within the
  seed budget, which the engine then shrinks to a replayable reproducer.

A ``holds`` row that finds a violation, or a ``violates`` row that
cannot, is a conformance failure.  ``run_matrix`` is what the CI smoke
job executes; reproducers for the negative rows land in ``out_dir`` as
JSON artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.cache.store import CacheConfig
from repro.conformance.explorer import Explorer, Finding, Reproducer, replay
from repro.conformance.scenario import SCENARIO_CONFIG, ScenarioSpec
from repro.faults.plan import CrashSpec, FaultPlan
from repro.workloads.generator import WorkloadSpec


@dataclass(frozen=True)
class MatrixRow:
    """One configuration × expectation cell of the guarantee matrix."""

    name: str
    spec: ScenarioSpec
    expect: str  # "holds" | "violates"
    check_level: str | None = None  # explicit level for negative oracles

    def __post_init__(self) -> None:
        if self.expect not in ("holds", "violates"):
            raise ValueError(f"expect must be holds|violates, not {self.expect!r}")
        if self.expect == "violates" and self.check_level is None:
            raise ValueError(f"row {self.name!r}: violates rows need check_level")


def _row_spec(schema: str = "paper", updates: int = 12, **config) -> ScenarioSpec:
    """A row's scenario: ``updates`` updates over ``schema`` under ``config``."""
    return ScenarioSpec(
        schema=schema,
        workload=WorkloadSpec(
            updates=updates,
            rate=2.0,
            mix=(0.7, 0.15, 0.15),
            multi_update_fraction=0.2,
            arrivals="poisson",
        ),
        config={**SCENARIO_CONFIG, **config},
    )


GUARANTEE_MATRIX: tuple[MatrixRow, ...] = (
    MatrixRow(
        "spa-complete-fleet",
        _row_spec(manager_kind="complete", merge_algorithm="spa"),
        "holds",
    ),
    MatrixRow(
        "pa-strong-fleet",
        _row_spec(manager_kind="strong", merge_algorithm="pa"),
        "holds",
    ),
    MatrixRow(
        "mixed-complete-strong",
        _row_spec(
            manager_kinds={"V1": "complete", "V2": "strong", "V3": "strong"},
            merge_algorithm="auto",
        ),
        "holds",
    ),
    MatrixRow(
        "mixed-weakest-convergent",
        _row_spec(
            manager_kinds={"V1": "complete", "V2": "strong", "V3": "convergent"},
            merge_algorithm="auto",
        ),
        "holds",
    ),
    MatrixRow(
        "batching-degrades-to-strong",
        _row_spec(
            manager_kind="complete",
            merge_algorithm="spa",
            submission_policy="batching",
        ),
        "holds",
    ),
    MatrixRow(
        "faulty-reliable-keeps-promise",
        _row_spec(
            manager_kind="complete",
            merge_algorithm="spa",
            fault_plan=FaultPlan(
                seed=1, drop_rate=0.05, duplicate_rate=0.05, reliable=True
            ),
        ),
        "holds",
    ),
    # Sharded-merge rows (§6.1 at merge_groups > 1, hash router): MVC
    # must hold per shard and fleet-wide when view groups are spread over
    # several merge processes, under adversarial scheduling — and, in the
    # fault row, under message drops and duplicates too.
    MatrixRow(
        "sharded-spa-holds-per-shard",
        _row_spec(
            schema="paper-ex3",
            manager_kind="complete",
            merge_algorithm="spa",
            merge_groups=2,
            merge_router="hash",
        ),
        "holds",
    ),
    MatrixRow(
        "sharded-mixed-weakest-holds",
        _row_spec(
            schema="paper-ex3",
            manager_kinds={"V1": "complete", "V2": "strong", "V3": "convergent"},
            merge_algorithm="auto",
            merge_groups=2,
            merge_router="hash",
        ),
        "holds",
    ),
    MatrixRow(
        "sharded-faulty-reliable-holds",
        _row_spec(
            schema="paper-ex3",
            manager_kind="complete",
            merge_algorithm="spa",
            merge_groups=2,
            merge_router="hash",
            fault_plan=FaultPlan(
                seed=3, drop_rate=0.05, duplicate_rate=0.05, reliable=True
            ),
        ),
        "holds",
    ),
    # Cache-backed recovery rows (repro.cache): crashed view managers and
    # merge processes restore from content-addressed artifacts instead of
    # in-simulator replay, and MVC must still hold under adversarial
    # scheduling — even with a faulty (dropping, duplicating) network.
    # The negative row injects the stale-ref fault: checkpoint refs lag
    # one publish, so a restart adopts a valid-but-stale artifact, which
    # must surface as a detectable failure, shrink, and replay.
    MatrixRow(
        "cached-restart-spa-holds",
        _row_spec(
            manager_kind="complete",
            merge_algorithm="spa",
            cache=CacheConfig(),
            fault_plan=FaultPlan(
                seed=11,
                crashes=(
                    CrashSpec("vm:V1", at=5.0, restart_after=2.0),
                    CrashSpec("merge", at=9.0, restart_after=3.0),
                ),
            ),
        ),
        "holds",
    ),
    MatrixRow(
        "cached-restart-faulty-reliable-holds",
        _row_spec(
            manager_kind="complete",
            merge_algorithm="spa",
            cache=CacheConfig(),
            fault_plan=FaultPlan(
                seed=13,
                drop_rate=0.05,
                duplicate_rate=0.05,
                reliable=True,
                crashes=(
                    CrashSpec("vm:V1", at=5.0, restart_after=2.0),
                    CrashSpec("merge", at=9.0, restart_after=3.0),
                ),
            ),
        ),
        "holds",
    ),
    MatrixRow(
        "cached-restart-stale-artifact-breaks",
        _row_spec(
            manager_kind="complete",
            merge_algorithm="spa",
            cache=CacheConfig(stale_refs=True),
            fault_plan=FaultPlan(
                seed=19,
                crashes=(CrashSpec("vm:V1", at=5.0, restart_after=2.0),),
            ),
        ),
        "violates",
        check_level="complete",
    ),
    MatrixRow(
        "naive-fleet-breaks-strong",
        _row_spec(manager_kind="naive"),
        "violates",
        check_level="strong",
    ),
    MatrixRow(
        "periodic-fleet-breaks-complete",
        _row_spec(manager_kind="periodic", refresh_period=15.0),
        "violates",
        check_level="complete",
    ),
    # The §4.3 hazard: eager submission orders nothing, so on several
    # warehouse executors a later transaction commits before an earlier
    # one it depends on.  Such a fleet promises nothing; the row shows
    # that a run of it is not complete.  The warehouse overlaps
    # transactions only under load, hence the longer stream.
    MatrixRow(
        "eager-concurrent-executors-breaks",
        _row_spec(
            updates=30,
            manager_kind="complete",
            submission_policy="eager",
            warehouse_executors=3,
        ),
        "violates",
        check_level="complete",
    ),
)


@dataclass
class MatrixResult:
    """Outcome of one row: did reality match the expectation?"""

    row: MatrixRow
    ok: bool
    reason: str
    runs: int
    findings: list[Finding] = field(default_factory=list)
    reproducer_path: Path | None = None


def run_row(
    row: MatrixRow,
    seeds: int = 25,
    time_budget: float | None = None,
    out_dir: str | Path | None = None,
) -> MatrixResult:
    """Explore one row and judge it against its expectation.

    ``violates`` rows additionally shrink the first finding, write the
    reproducer to ``out_dir`` (when given), and verify it replays.
    """
    explorer = Explorer(
        row.spec,
        seeds=seeds,
        time_budget=time_budget,
        stop_on_first=True,
        level=row.check_level,
    )
    findings = explorer.explore()
    if row.expect == "holds":
        if findings:
            return MatrixResult(
                row,
                ok=False,
                reason=f"guarantee broken at seed {findings[0].seed}: "
                f"{findings[0].violations[0]}",
                runs=explorer.runs_executed,
                findings=findings,
            )
        return MatrixResult(
            row,
            ok=True,
            reason=f"held across {explorer.runs_executed} runs",
            runs=explorer.runs_executed,
        )

    if not findings:
        return MatrixResult(
            row,
            ok=False,
            reason=f"no {row.check_level} violation found in "
            f"{explorer.runs_executed} runs (negative oracle failed)",
            runs=explorer.runs_executed,
        )
    reproducer = explorer.shrink(findings[0])
    result = replay(reproducer)
    if not (result.reproduced and result.digest_matches):
        return MatrixResult(
            row,
            ok=False,
            reason="shrunk reproducer did not replay deterministically",
            runs=explorer.runs_executed,
            findings=findings,
        )
    path: Path | None = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = reproducer.save(out / f"{row.name}.json")
    perts = reproducer.perturbations or []
    return MatrixResult(
        row,
        ok=True,
        reason=f"violation found at seed {findings[0].seed}, shrunk to "
        f"{len(perts)} perturbations, replays byte-for-byte",
        runs=explorer.runs_executed,
        findings=findings,
        reproducer_path=path,
    )


def run_matrix(
    seeds: int = 25,
    time_budget: float | None = None,
    out_dir: str | Path | None = None,
    rows: tuple[MatrixRow, ...] = GUARANTEE_MATRIX,
) -> list[MatrixResult]:
    """Run every row; a total ``time_budget`` is split evenly across rows."""
    per_row = None if time_budget is None else time_budget / len(rows)
    return [
        run_row(row, seeds=seeds, time_budget=per_row, out_dir=out_dir)
        for row in rows
    ]


__all__ = [
    "GUARANTEE_MATRIX",
    "MatrixResult",
    "MatrixRow",
    "run_matrix",
    "run_row",
]
