"""``python3 -m perf``: run the benchmark, or compare two of its outputs.

    python3 -m perf [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
    python3 -m perf compare A.json [B.json]

With ``--workload`` the last line of standard output is the driver's
result object (``correct`` / ``attempted`` / ``failed`` / ``metrics``);
without it every workload runs and the last line is the whole run
document, which ends with ``"claim": null``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (from repetitions run
under :mod:`perf.spans` wrappers, alternating with plain ones); leaving
``--trace`` out does both passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

from perf.compare import compare_files

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parent
CATALOGUE = ROOT / "BENCHMARK.json"
BASELINE = PACKAGE / "baseline.json"
OUT = PACKAGE / "out"

MIN_REPS = 2
#: Two repetitions that both hang still end inside the driver's 180 s.
REP_TIMEOUT_S = 80

Spawn = Callable[[dict], dict]


class RepFailed(Exception):
    """A repetition's interpreter died or printed no result."""


def spawn_rep(job: dict) -> dict:
    """Run one repetition in a fresh interpreter and wait for it."""
    # Bytecode is cached under perf/out whatever the caller's environment
    # says, so that setup_s times a warm import (as users see it) on every
    # repetition but a checkout's first.
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    try:
        done = subprocess.run(
            [sys.executable, "-m", "perf.rep", json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"no result within {REP_TIMEOUT_S}s") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise RepFailed(done.stderr.strip()[-2000:] or "no output")
    return json.loads(done.stdout.splitlines()[-1])


def _default_updates(workload: str) -> int:
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from perf.workloads import WORKLOADS

    return WORKLOADS[workload].updates


# -- one workload ---------------------------------------------------------------

def run_reps(
    workload: str, seed: int, seconds: float, traced: bool,
    updates: int | None, spawn: Spawn,
) -> list[dict]:
    """Repeat the workload until ``seconds`` are used up (at least twice).

    Repetition 0 carries the correctness check.  In a traced run the odd
    repetitions run under the span wrappers and the even ones do not, so
    the same run yields the tracing overhead.
    """
    deadline = time.monotonic() + seconds
    reps: list[dict] = []
    longest = 0.0
    while True:
        index = len(reps)
        job = {
            "workload": workload, "seed": seed, "updates": updates,
            "traced": traced and index % 2 == 1, "check": index == 0,
            "spans_out": str(OUT / f"{workload}.spans.json")
            if traced and index == 1 else None,
        }
        began = time.monotonic()
        try:
            rep = spawn(job)
        except RepFailed as exc:
            reps.append({"error": str(exc)})
            return reps
        reps.append(rep)
        if index > 0:  # repetition 0 also pays for the check
            longest = max(longest, time.monotonic() - began)
        if index + 1 >= MIN_REPS and time.monotonic() + longest > deadline:
            return reps


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def summarise(reps: list[dict], updates: int) -> dict:
    """Fold the repetitions of one pass into a result.

    ``updates`` is the workload's size, charged as failed for a repetition
    that died.  The result carries ``end_to_end`` metrics when a plain
    repetition completed and ``per_layer`` ones when a traced one did too.
    """
    good = [r for r in reps if "error" not in r]
    plain = [r for r in good if "layers" not in r]
    spanned = [r for r in good if "layers" in r]
    dead = len(reps) - len(good)
    # Repetition 0 carries the check; run_reps stops at the first death,
    # so good[0] is repetition 0 whenever anything completed.
    check_error = good[0]["check_error"] if good else ""
    problems = [r["error"] for r in reps if "error" in r]
    if check_error:
        problems.append(check_error)
    # The DES is deterministic: repetitions (wrapped or not) that disagree
    # on any exact value are a bug, not noise.
    for key in ("exact", "counts"):
        if len({json.dumps(r[key], sort_keys=True)
                for r in good if key in r}) > 1:
            problems.append(f"repetitions disagree on their {key} values")
    result: dict = {
        "correct": not problems,
        "attempted": sum(r["updates"] for r in good) + updates * dead,
        "failed": sum(r["updates"] - r["exact"]["reflected"] for r in good)
        + updates * dead
        + (good[0]["exact"]["reflected"] if check_error else 0),
        "problems": problems,
    }
    if not plain:
        return result

    median = statistics.median
    per_update = median(r["norm_ms"] / r["updates"] for r in plain)
    exact = plain[0]["exact"]
    result["end_to_end"] = {
        "norm_ms_per_update": _metric(per_update, "ms"),
        "setup_s": _metric(
            median(sum(r["phases"].values()) for r in plain), "s"),
        "peak_rss_mb": _metric(median(r["rss_mb"] for r in plain), "MB"),
        "virt_staleness_p95": _metric(exact["virt_staleness_p95"], "vtime"),
        "virt_throughput": _metric(exact["virt_throughput"], "upd/vtime"),
    }
    if not spanned:
        return result

    layers: dict[str, dict] = {}
    for layer, first in spanned[0]["layers"].items():
        layers[f"{layer}.share"] = _metric(
            median(r["layers"][layer]["share"] for r in spanned), "share")
        layers[f"{layer}.calls"] = _metric(first["calls"], "count")
    for key in ("sim.events", "merge.vut_peak"):
        layers[key] = _metric(exact[key], "count")
    for key, value in spanned[0]["counts"].items():
        layers[key] = _metric(value, "count")
    for phase in plain[0]["phases"]:
        layers[phase] = _metric(
            median(r["phases"][phase] for r in plain), "s")
    raw = [r["raw_ms"] / r["updates"] for r in plain]
    traced = median(r["norm_ms"] / r["updates"] for r in spanned)
    layers.update({
        "consistency.check_ms_per_update": _metric(
            good[0]["check_ms"] / good[0]["updates"], "ms"),
        "trace.overhead_pct": _metric((traced / per_update - 1) * 100, "%"),
        "run.raw_ms_per_update_min": _metric(min(raw), "ms"),
        "run.raw_ms_per_update_median": _metric(median(raw), "ms"),
        "run.cal_step_ms": _metric(
            statistics.fmean(r["cal_step_ms"] for r in plain), "ms"),
        "run.reps": _metric(len(plain), "reps"),
    })
    result["per_layer"] = layers
    return result


def run_workload(
    workload: str, seed: int, seconds: float, trace: int | None,
    updates: int | None = None, spawn: Spawn = spawn_rep,
) -> dict:
    """All requested passes of one workload, merged into one result.

    ``trace`` 0 is the plain pass (end-to-end metrics), 1 the traced pass
    (per-layer metrics), ``None`` both.
    """
    sized = updates or _default_updates(workload)
    merged: dict = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}, "problems": []}
    for traced in ([False, True] if trace is None else [bool(trace)]):
        reps = run_reps(workload, seed, seconds, traced, updates, spawn)
        one = summarise(reps, sized)
        wanted = "per_layer" if traced else "end_to_end"
        if wanted not in one and one["correct"]:
            one["correct"] = False
            one["problems"].append(f"no repetition yielded {wanted} metrics")
        merged["correct"] &= one["correct"]
        merged["attempted"] += one["attempted"]
        merged["failed"] += one["failed"]
        merged["problems"] += one["problems"]
        merged["metrics"].update(one.get(wanted, {}))
    return merged


# -- command line ---------------------------------------------------------------

def _print_metrics(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:<14} {name:<36} {metric['value']:>14.6g} "
              f"{metric['unit']}")
    for problem in result["problems"]:
        print(f"{workload:<14} PROBLEM: {problem}", file=sys.stderr)


def _driver_result(result: dict) -> dict:
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv: list[str] | None = None, spawn: Spawn = spawn_rep) -> int:
    catalogue = json.loads(CATALOGUE.read_text(encoding="utf-8"))
    names = [w["name"] for w in catalogue["workloads"]]

    parser = argparse.ArgumentParser(prog="python3 -m perf", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=catalogue["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None)
    parser.add_argument("--updates", type=int, default=None,
                        help="override the workload's update count (tests)")
    parser.add_argument("--out", type=Path, default=OUT / "run.json",
                        help="where the run document is written")
    sub = parser.add_subparsers(dest="command")
    cmp_parser = sub.add_parser("compare")
    cmp_parser.add_argument("a", type=Path)
    cmp_parser.add_argument("b", type=Path, nargs="?", default=BASELINE)
    args = parser.parse_args(argv)

    if args.command == "compare":
        return compare_files(args.a, args.b, catalogue)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf: no src/repro beside {PACKAGE}; run it from a checkout "
              f"of the repository", file=sys.stderr)
        return 2

    results = {}
    for name in [args.workload] if args.workload else names:
        results[name] = run_workload(
            name, args.seed, args.seconds, args.trace, args.updates, spawn)
        _print_metrics(name, results[name])
    document = {
        "meta": {
            "seed": args.seed, "updates": args.updates,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
        },
        "workloads": {n: _driver_result(r) for n, r in results.items()},
        "claim": None,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=1) + "\n",
                        encoding="utf-8")
    if args.workload:
        print(json.dumps(_driver_result(results[args.workload])))
    else:
        print(json.dumps(document))
    return 0 if all(r["correct"] for r in results.values()) else 1
