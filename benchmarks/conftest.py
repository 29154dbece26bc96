"""Shared helpers for the benchmark/experiment harness.

Every file in this directory regenerates one artifact of the paper (a
table, figure or worked example) or one experiment of the §7 performance
study (see DESIGN.md's experiment index).  Each test

* runs the experiment under ``benchmark.pedantic`` (one round — these are
  simulations, not microbenchmarks, unless stated otherwise),
* prints the regenerated rows/series with capture disabled so they appear
  in the terminal and in ``bench_output.txt``,
* asserts the *shape* claims (who wins, orderings, crossovers) so a
  regression in any algorithm fails the harness loudly.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream


def pytest_addoption(parser):
    parser.addoption(
        "--bench-out",
        default=None,
        metavar="DIR",
        help="directory to write machine-readable BENCH_<name>.json "
        "artifacts into (omitted: no artifacts are written)",
    )


@pytest.fixture
def bench_out(request):
    """Writer for machine-readable benchmark artifacts.

    ``bench_out("b19", payload)`` writes ``BENCH_b19.json`` into the
    directory named by ``--bench-out`` and returns its path, or returns
    ``None`` (after checking the payload is serializable) when the option
    is absent.  If the file already exists and holds a JSON object, the
    payload is merged into it (new keys win) instead of clobbering it —
    so several tests can contribute fields to one artifact, and a
    multi-benchmark CI run re-running one test keeps the other entries.
    The format is documented in docs/performance.md; the files are
    gitignored — CI uploads them as workflow artifacts so the perf
    trajectory accumulates per commit.
    """

    def _write(name: str, payload: dict) -> Path | None:
        json.dumps(payload)  # serializability check even when not writing
        out_dir = request.config.getoption("--bench-out")
        if out_dir is None:
            return None
        path = Path(out_dir) / f"BENCH_{name}.json"
        merged = payload
        if path.exists():
            try:
                existing = json.loads(path.read_text())
            except (json.JSONDecodeError, OSError):
                existing = None
            if isinstance(existing, dict):
                merged = {**existing, **payload}
        path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
        return path

    return _write


@pytest.fixture
def report(capsys):
    """Print experiment output immediately, bypassing pytest capture."""

    def _report(*lines: object) -> None:
        with capsys.disabled():
            for line in lines:
                print(line)

    _report("")  # newline after pytest's test-name prefix
    return _report


def run_system(
    world,
    views,
    config: SystemConfig,
    spec: WorkloadSpec,
) -> WarehouseSystem:
    """Build, feed and run one system; returns it finished."""
    system, _ = timed_run_system(world, views, config, spec)
    return system


def timed_run_system(
    world,
    views,
    config: SystemConfig,
    spec: WorkloadSpec,
) -> tuple[WarehouseSystem, float]:
    """Like :func:`run_system`, also returning ``run()``'s wall seconds.

    The timer brackets only the drain — build, seeding and stream posting
    are excluded — so the number is the CPU the kernel burns on the run.
    """
    stream = UpdateStreamGenerator(world, spec).transactions()
    system = WarehouseSystem(world, views, config)
    post_stream(system, stream)
    start = time.perf_counter()
    system.run()
    return system, time.perf_counter() - start


def wall_clock_section(system: WarehouseSystem, wall_seconds: float) -> dict:
    """The standard ``wall_clock`` block for bench_out artifacts.

    Reports real events/second next to the simulated-time throughput so
    artifacts distinguish "cheap in virtual time" from "cheap on the
    machine" (docs/performance.md describes both axes).
    """
    events = system.sim.events_executed
    return {
        "wall_seconds": round(wall_seconds, 4),
        "events_executed": events,
        "wall_events_per_sec": round(events / wall_seconds, 1)
        if wall_seconds > 0 else None,
        "sim_throughput": round(system.report(classify=False).throughput, 4),
    }


def fmt_table(headers: list[str], rows: list[list[object]]) -> str:
    """Render a fixed-width text table."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    def line(cells):
        return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out)
