"""``python3 -m perf compare A.json [B.json]``: A against the base B.

One row per workload x end-to-end metric: both values, the ratio A / B
(B is the base), the bound from ``BENCHMARK.json`` and a verdict.  With
equal seeds (and sizes) the DES is deterministic, so metrics in
virtual-time units and counts must then be identical, not merely within
the bound.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Units of values that repeat exactly for equal seeds.
EXACT_UNITS = frozenset({"count", "vtime", "upd/vtime"})


def verdict(a: float, b: float, better: str, bound: float) -> str:
    """``ok`` unless ``a`` is worse than the base ``b`` by more than ``bound``."""
    if better == "lower":
        return "worse" if a > b * (1 + bound) else "ok"
    return "worse" if a < b * (1 - bound) else "ok"


def compare(a: dict, b: dict, catalogue: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, a, b, ratio, bound, verdict)`` and pass/fail."""
    same_seed = all(a["meta"].get(key) == b["meta"].get(key)
                    for key in ("seed", "updates"))
    rows: list[tuple] = []
    for workload in (w["name"] for w in catalogue["workloads"]):
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        ours, base = a["workloads"][workload], b["workloads"][workload]
        for spec in catalogue["end_to_end"]:
            name = spec["name"]
            if name not in ours["metrics"] or name not in base["metrics"]:
                continue
            x = ours["metrics"][name]["value"]
            y = base["metrics"][name]["value"]
            if same_seed and spec["unit"] in EXACT_UNITS and x != y:
                status = "exact-mismatch"
            else:
                status = verdict(x, y, spec["better"], spec["bound"])
            rows.append((workload, name, x, y, x / y, spec["bound"], status))
        if same_seed:
            for name, metric in ours["metrics"].items():
                other = base["metrics"].get(name)
                if (metric["unit"] == "count" and other is not None
                        and metric["value"] != other["value"]):
                    rows.append((workload, name, metric["value"],
                                 other["value"], float("nan"), 0.0,
                                 "exact-mismatch"))
        if not ours["correct"]:
            rows.append((workload, "correct", 0.0, 1.0, float("nan"), 0.0,
                         "worse"))
        if (ours["failed"] * base["attempted"]
                > base["failed"] * ours["attempted"]):
            rows.append((workload, "failed/attempted",
                         ours["failed"] / ours["attempted"],
                         base["failed"] / base["attempted"],
                         float("nan"), 0.0, "worse"))
    return rows, all(row[-1] == "ok" for row in rows)


def compare_files(a_path: Path, b_path: Path, catalogue: dict) -> int:
    a = json.loads(a_path.read_text(encoding="utf-8"))
    b = json.loads(b_path.read_text(encoding="utf-8"))
    rows, passed = compare(a, b, catalogue)
    print(f"A = {a_path}   B (base) = {b_path}")
    print(f"{'workload':<14} {'metric':<24} {'A':>12} {'B':>12} "
          f"{'A/B':>8} {'bound':>6}  verdict")
    for workload, name, x, y, ratio, bound, status in rows:
        print(f"{workload:<14} {name:<24} {x:>12.6g} {y:>12.6g} "
              f"{ratio:>8.4f} {bound:>6.1%}  {status}")
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1
