"""One repetition: set up a workload, drain it in timed slices, check it.

Noise control is the point of this module.  The host's speed wanders by
tens of percent in sub-second bursts, so the drain is cut into slices of
``Workload.slice_events`` events with ``Simulator.run(max_events=...)``
and a fixed pure-Python :func:`calibration_step` is timed between every
two slices.  Drain time is divided by calibration time
(:func:`normalised_ms`); the ratio cancels whatever slowed both.
"""

from __future__ import annotations

import gc
import heapq
import math
import resource
import statistics
import time
from pathlib import Path
from typing import Callable

from repro import UpdateStreamGenerator, WarehouseSystem, evaluate
from repro.messages import SnapshotQuery
from repro.workloads.generator import post_stream

from perf import spans as spans_mod
from perf.workloads import WORKLOADS

CAL_ITERS = 4000
CAL_COPIES = 16
#: Cost of one step on the reference host, so that normalised milliseconds
#: read like wall milliseconds there.
CAL_REF_MS = 2.3
SETUP_CAL_STEPS = 5
_CAL_ROWS = {i: i for i in range(20_000)}  # never mutated


def calibration_step() -> None:
    """Fixed work, half interpreter-bound and half memory-bound (~2.6 ms).

    The first half is int / dict / heapq churn, the DES hot path's
    instruction mix; the second copies a 20 000-entry dict, which is what
    ``Relation.copy`` does.  Rescaling by the interpreter half alone left a
    4.3% spread between identical star-20k drains, by the copying half
    alone 2.5% between ex2-steady ones; together 2.1% and 1.3%.

    Neither half allocates a container per iteration, so the step never
    triggers the cyclic collector: a first version churned tuples, and
    the full collections it set off over a 200 MB heap made the step's
    cost depend on the workload (mean 9 ms against a median of 6 ms).
    """
    heap: list[int] = []
    table: dict[int, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    for i in range(CAL_ITERS):
        key = (i * 7919) & 1023
        push(heap, key * 8192 + i)
        table[key] = table.get(key, 0) + i
        if i & 1:
            pop(heap)
    for _ in range(CAL_COPIES):
        dict(_CAL_ROWS)


def timed_steps(count: int) -> list[int]:
    clock = time.perf_counter_ns
    out = []
    for _ in range(count):
        t0 = clock()
        calibration_step()
        out.append(clock() - t0)
    return out


def timed_drain(system: WarehouseSystem, slice_events: int
                ) -> tuple[list[int], list[int]]:
    """Drain ``system``; returns ``(drain_ns, cal_ns)``.

    Slice ``i`` is bracketed by calibration steps ``i`` and ``i + 1``.
    The last slice is ``system.run()``, which also performs the
    end-of-stream flush.
    """
    clock = time.perf_counter_ns
    drain_ns: list[int] = []
    cal_ns = timed_steps(1)

    def timed(run_slice: Callable[[], int]) -> int:
        t0 = clock()
        executed = run_slice()
        drain_ns.append(clock() - t0)
        cal_ns.extend(timed_steps(1))
        return executed

    run = system.sim.run
    while timed(lambda: run(max_events=slice_events)) == slice_events:
        pass
    timed(system.run)
    return drain_ns, cal_ns


def normalised_ms(drain_ns: list[int], cal_ns: list[int]) -> float:
    """Drain wall with every slice rescaled by the two steps around it.

    Whatever slowed slice ``i`` slowed steps ``i`` and ``i + 1`` too.
    Rescaling each slice locally beat rescaling the repetition by its mean
    step (spread across seeds 3.6% against 8.2% on clustered-36): the
    bursts are shorter than a drain.
    """
    return CAL_REF_MS * sum(
        ns / ((cal_ns[i] + cal_ns[i + 1]) / 2)
        for i, ns in enumerate(drain_ns)
    )


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def freshness(system: WarehouseSystem) -> dict[int, float]:
    """Per update: first covering ``wh_commit`` time minus source commit time.

    Read from trace events, not ``RunMetrics``: ``collect_metrics`` walks
    ``store.history`` and so reports one reflected update when
    ``record_history=False``.
    """
    _cursor, events = system.sim.trace.raw_events_since(
        0, kinds=("int_number", "wh_commit")
    )
    committed: dict[int, float] = {}
    visible: dict[int, float] = {}
    for when, kind, _process, detail in events:
        if kind == "int_number":
            committed[detail["update_id"]] = detail["commit_time"]
        else:
            for update_id in detail["rows"]:
                visible.setdefault(update_id, when)
    return {u: visible[u] - committed[u] for u in visible if u in committed}


def check(system: WarehouseSystem) -> str:
    """Empty string when the drained warehouse is correct, else what is not."""
    truth = system.world.current
    wrong = [
        d.name for d in system.definitions
        if system.store.view(d.name) != evaluate(d.expression, truth)
    ]
    if wrong:
        return f"views differ from evaluate() over the sources: {wrong}"
    if system.config.record_history:
        report = system.check_mvc("auto")
        if not report.ok:
            return f"MVC {system.expected_level()} violated: {report}"
    return ""


def run_rep(
    job: dict,
    started: float | None = None,
    imported: float | None = None,
    sabotage: Callable[[WarehouseSystem], None] | None = None,
) -> dict:
    """Run one repetition described by ``job``; returns its measurements.

    ``phases`` are the set-up phases in normalised seconds (they sum to the
    repetition's set-up time), ``norm_ms`` / ``raw_ms`` the whole drain.

    ``job``: ``workload``, ``seed``, ``updates`` (``None`` = the
    workload's own), ``traced``, ``check``, ``spans_out`` (path or
    ``None``).  ``sabotage`` lets a test damage the drained system before
    the check.
    """
    workload = WORKLOADS[job["workload"]]
    seed = job["seed"]
    updates = job["updates"] or workload.updates
    marks = [imported if imported is not None else time.perf_counter()]
    begin = started if started is not None else marks[0]

    recorder = spans_mod.Recorder()
    if job["traced"]:
        # Before the build: post() captures bound Source.execute.
        recorder.install()
    try:
        world, definitions, spec, config = workload.build(seed, updates)
        marks.append(time.perf_counter())
        stream = UpdateStreamGenerator(world, spec).transactions()
        marks.append(time.perf_counter())
        with WarehouseSystem(world, definitions, config) as system:
            marks.append(time.perf_counter())
            posted = post_stream(system, stream)
            marks.append(time.perf_counter())

            # Warms the calibration code before the drain, and helps
            # rescale the set-up below.
            setup_cal_ns = timed_steps(SETUP_CAL_STEPS)
            gc.collect()
            recorder.log.clear()  # set-up spans are not part of the drain
            drain_ns, cal_ns = timed_drain(system, workload.slice_events)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # Now, not in the finally: the collector hook would log what
            # happens below as parentless spans.
            recorder.remove()

            # Set-up cannot be sliced, so it is rescaled by the host's speed
            # over the whole repetition.  (The five steps right after it
            # alone left a 17-19% spread between identical star-20k
            # set-ups, worse than no rescaling at all; all steps, 8-13%.)
            setup_scale = CAL_REF_MS * 1e6 / statistics.median(
                setup_cal_ns + cal_ns)
            lags = freshness(system)
            exact = {
                "reflected": len(lags),
                "virt_staleness_p95": percentile(list(lags.values()), 0.95)
                if lags else 0.0,
                "virt_throughput": len(lags) / system.sim.now,
                "sim.events": system.sim.events_executed,
                "warehouse.store.calls": system.warehouse.commits,
                "merge.vut_peak": max(
                    int(g.max)
                    for g in system.sim.metrics.family("merge_vut_size")
                ),
            }
            result = {
                "updates": posted,
                "exact": exact,
                "phases": dict(zip(
                    ("system.import_s", "system.world_s",
                     "workloads.generate_s", "system.build_s",
                     "system.post_s"),
                    ((b - a) * setup_scale
                     for a, b in zip([begin] + marks, marks)),
                )),
                "norm_ms": normalised_ms(drain_ns, cal_ns),
                "raw_ms": sum(drain_ns) / 1e6,
                "cal_step_ms": statistics.fmean(cal_ns) / 1e6,
                "slices": len(drain_ns),
                "rss_mb": rss_mb,
            }
            if job["traced"]:
                spans = recorder.spans()
                result["layers"] = spans_mod.layer_table(spans)
                result["counts"] = _span_counts(
                    spans, next(recorder.view_set_calls))
                if job["spans_out"]:
                    spans_mod.write_chrome_trace(
                        spans, Path(job["spans_out"]))
            if job["check"]:
                if sabotage is not None:
                    sabotage(system)
                t0 = time.perf_counter()
                result["check_error"] = check(system)
                result["check_ms"] = (time.perf_counter() - t0) * 1e3
            return result
    finally:
        recorder.remove()


def _span_counts(spans: list[list], view_set_calls: int) -> dict[str, int]:
    """Exact counts taken at the span boundaries."""
    name, subject = spans_mod.NAME, spans_mod.SUBJECT
    return {
        "integrator.basedata.queries": sum(
            isinstance(s[subject], SnapshotQuery) for s in spans
            if s[name] == "integrator.basedata"
        ),
        "relational.copy.rows": sum(
            s[subject] for s in spans
            if s[name] == "relational.copy" and s[subject] is not None
        ),
        "merge.submission.queue_peak": max(
            (s[subject] for s in spans
             if s[name] == "merge.submission" and s[subject] is not None),
            default=0,
        ),
        "merge.submission.view_set_calls": view_set_calls,
    }
