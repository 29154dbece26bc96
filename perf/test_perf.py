"""Tests of the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest perf -q`` from the repo root
(tier-1 ``testpaths`` does not include this directory).
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from perf import cli, compare, spans
from perf.drain import run_rep

CATALOGUE = json.loads(cli.CATALOGUE.read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CATALOGUE["workloads"]]
SMALL = {"ex2-steady": 150, "ex2-queryback": 150, "clustered-36": 80,
         "sharded-108": 80, "star-20k": 6}


def job(workload: str, **overrides) -> dict:
    base = {"workload": workload, "seed": 5, "updates": SMALL[workload],
            "traced": False, "check": True, "spans_out": None}
    return {**base, **overrides}


# -- span arithmetic ----------------------------------------------------------

def test_self_time_is_duration_minus_direct_children():
    nested = [
        ["sim", 0, 100, -1, None],
        ["merge", 10, 60, 0, None],
        ["merge.submission", 20, 50, 1, None],
        ["warehouse", 70, 90, 0, None],
        ["sim", 200, 240, -1, None],
    ]
    self_ns, calls = spans.self_times(nested)
    assert self_ns == {"sim": 30 + 40, "merge": 20,
                       "merge.submission": 30, "warehouse": 20}
    assert calls == {"sim": 2, "merge": 1, "merge.submission": 1,
                     "warehouse": 1}
    assert spans.root_ns(nested) == 140 == sum(self_ns.values())
    table = spans.layer_table(nested)
    assert set(table) == set(spans.LAYERS)
    assert sum(row["share"] for row in table.values()) == pytest.approx(1.0)
    assert table["relational.copy"] == {"share": 0.0, "calls": 0}


def test_recorder_rebuilds_parents_from_the_log():
    recorder = spans.Recorder()
    inner = recorder.wrap("inner", lambda x: x + 1, subject=lambda args: args[0])
    outer = recorder.wrap("outer", lambda: inner(1) + inner(2))

    def boom():
        raise ValueError("boom")

    assert outer() == 5
    with pytest.raises(ValueError):
        recorder.wrap("raises", boom)()
    rebuilt = recorder.spans()
    assert [(s[spans.NAME], s[spans.PARENT], s[spans.SUBJECT]) for s in rebuilt] == [
        ("outer", -1, None), ("inner", 0, 1), ("inner", 0, 2),
        ("raises", -1, None),
    ]
    assert all(s[spans.END] >= s[spans.START] > 0 for s in rebuilt)


def test_install_then_remove_restores_every_attribute_by_identity():
    import gc

    from repro.warehouse.txn import WarehouseTransaction

    owners = [(owner, attr) for _name, owner, attr, _subject in spans._targets()]
    owners.append((WarehouseTransaction, "view_set"))
    before = [vars(owner)[attr] for owner, attr in owners]
    callbacks = list(gc.callbacks)
    recorder = spans.Recorder()
    recorder.install()
    assert len(recorder.patches) == len(owners)
    assert all(vars(owner)[attr] is not original
               for (owner, attr), original in zip(owners, before))
    assert recorder.on_gc in gc.callbacks
    recorder.remove()
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in zip(owners, before))
    assert gc.callbacks == callbacks and not recorder.patches
    recorder.remove()  # nothing installed: a no-op


# -- workloads ----------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_drains_checks_and_repeats_exactly(workload):
    first = run_rep(job(workload))
    again = run_rep(job(workload, check=False))
    traced = run_rep(job(workload, check=False, traced=True))
    assert first["check_error"] == ""
    assert first["updates"] == SMALL[workload] == first["exact"]["reflected"]
    # plain twice, and under the wrappers: the same run, count for count
    assert first["exact"] == again["exact"] == traced["exact"]
    assert first["slices"] > 1 and first["norm_ms"] > 0
    shares = sum(row["share"] for row in traced["layers"].values())
    assert shares == pytest.approx(1.0, abs=0.01)
    assert traced["layers"]["warehouse.store"]["calls"] == \
        traced["exact"]["warehouse.store.calls"]


def test_other_seed_other_inputs():
    one = run_rep(job("ex2-steady", check=False))
    other = run_rep(job("ex2-steady", check=False, seed=6))
    assert one["exact"] != other["exact"]


# -- the command line ---------------------------------------------------------

def in_process(sabotage=None):
    return lambda job: run_rep(job, sabotage=sabotage)


def last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_cli_reports_exactly_the_catalogued_metrics(tmp_path, capsys):
    code = cli.main(
        ["--workload", "ex2-queryback", "--updates", "120", "--seconds", "0",
         "--out", str(tmp_path / "run.json")],
        spawn=in_process(),
    )
    result = last_line(capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 120 * 2 * cli.MIN_REPS  # two passes
    wanted = {m["name"]: m["unit"]
              for m in CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == wanted
    assert result["metrics"]["integrator.basedata.queries"]["value"] > 0
    assert result["metrics"]["relational.plan.calls"]["value"] == 0
    document = json.loads((tmp_path / "run.json").read_text())
    assert list(document)[-1] == "claim" and document["claim"] is None


def test_corrupt_view_fails_the_check_and_the_cli(tmp_path, capsys):
    def corrupt(system):
        system.store.view("V3").insert({"D": 99, "E": 99})

    code = cli.main(
        ["--workload", "ex2-steady", "--updates", "60", "--seconds", "0",
         "--trace", "0", "--out", str(tmp_path / "run.json")],
        spawn=in_process(corrupt),
    )
    result = last_line(capsys)
    assert code != 0 and result["correct"] is False
    assert result["failed"] == 60  # every update of the checked repetition


def test_dead_repetition_counts_all_its_updates_as_failed(tmp_path, capsys):
    def dies(job):
        raise cli.RepFailed("killed")

    code = cli.main(
        ["--workload", "clustered-36", "--seconds", "0", "--trace", "0",
         "--out", str(tmp_path / "run.json")],
        spawn=dies,
    )
    result = last_line(capsys)
    assert code != 0 and not result["correct"]
    assert result["attempted"] == result["failed"] > 0


def test_cli_end_to_end_in_child_interpreters(tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "perf", "--workload", "ex2-steady",
         "--updates", "100", "--seed", "3", "--seconds", "1", "--trace", "1",
         "--out", str(tmp_path / "run.json")],
        cwd=cli.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in CATALOGUE["per_layer"]}
    exported = json.loads((cli.OUT / "ex2-steady.spans.json").read_text())
    events = exported["traceEvents"]
    assert events and {"name", "ph", "ts", "dur", "args"} <= set(events[0])
    # spans of one source update share its id
    assert len({e["name"] for e in events if 1 in e["args"]["ids"]}) > 1


# -- compare ------------------------------------------------------------------

def document(seed=1, **metrics) -> dict:
    values = {"norm_ms_per_update": 1.0, "setup_s": 0.2, "peak_rss_mb": 100.0,
              "virt_staleness_p95": 12.0, "virt_throughput": 0.2, **metrics}
    units = {m["name"]: m["unit"] for m in CATALOGUE["end_to_end"]}
    return {
        "meta": {"seed": seed},
        "workloads": {"ex2-steady": {
            "correct": True, "attempted": 100, "failed": 0,
            "metrics": {n: {"value": v, "unit": units[n]}
                        for n, v in values.items()},
        }},
    }


def test_compare_passes_within_bounds_and_flags_breaches():
    base = document()
    rows, passed = compare.compare(document(norm_ms_per_update=1.1), base,
                                   CATALOGUE)
    assert passed and len(rows) == len(CATALOGUE["end_to_end"])
    rows, passed = compare.compare(document(norm_ms_per_update=1.5), base,
                                   CATALOGUE)
    assert not passed
    assert [r[-1] for r in rows if r[1] == "norm_ms_per_update"] == ["worse"]
    # higher is better for throughput
    _rows, passed = compare.compare(document(seed=2, virt_throughput=0.1),
                                    base, CATALOGUE)
    assert not passed


def test_compare_demands_exact_virtual_metrics_for_equal_seeds():
    base = document()
    rows, passed = compare.compare(document(virt_staleness_p95=12.001), base,
                                   CATALOGUE)
    assert not passed and "exact-mismatch" in [r[-1] for r in rows]
    _rows, passed = compare.compare(
        document(seed=2, virt_staleness_p95=12.001), base, CATALOGUE)
    assert passed


def test_compare_fails_on_more_failed_operations():
    worse = document()
    worse["workloads"]["ex2-steady"]["failed"] = 1
    _rows, passed = compare.compare(worse, document(), CATALOGUE)
    assert not passed
