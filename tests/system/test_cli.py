"""Tests for the command-line interface."""

import json

import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.schema == "paper"
        assert args.manager == "complete"

    def test_bad_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--manager", "psychic"])

    @pytest.mark.parametrize("flag", ["--runtime", "--workers"])
    @pytest.mark.parametrize("command", ["run", "inspect", "sweep"])
    def test_removed_runtime_flags_are_unknown(self, command, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, flag, "2"])
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestDemo:
    def test_demo_prints_states_and_verdict(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "MVC level achieved: complete" in out


class TestTrace:
    @pytest.mark.parametrize("example", ["2", "3", "4", "5"])
    def test_traces_render(self, example, capsys):
        assert main(["trace", example]) == 0
        out = capsys.readouterr().out
        assert f"Example {example}" in out
        assert "V1" in out and "U1" in out

    def test_example5_applies_rows_together(self, capsys):
        main(["trace", "5"])
        out = capsys.readouterr().out
        assert "applied {U2,U3}" in out


class TestRun:
    def test_run_paper_complete(self, capsys):
        code = main(["run", "--updates", "30", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "achieved MVC level: complete" in out
        assert "verification: OK" in out

    def test_run_strong_with_options(self, capsys):
        code = main(
            [
                "run", "--schema", "bank", "--manager", "strong",
                "--policy", "dbms-dependency", "--executors", "2",
                "--updates", "30", "--rate", "1.5", "--seed", "7",
            ]
        )
        assert code == 0
        assert "achieved MVC level: strong" in capsys.readouterr().out

    def test_run_distributed(self, capsys):
        code = main(
            [
                "run", "--schema", "clustered", "--merges", "3",
                "--updates", "30", "--seed", "5",
            ]
        )
        assert code == 0
        assert "merge x3" in capsys.readouterr().out

    def test_run_with_filtering(self, capsys):
        code = main(
            ["run", "--schema", "star", "--filtering", "--updates", "30"]
        )
        assert code == 0

    def test_run_with_views_file(self, capsys, tmp_path):
        catalog = tmp_path / "views.cat"
        catalog.write_text(
            "# custom suite\n"
            "OnlyV1 = SELECT * FROM R JOIN S\n"
            "Totals = SELECT B, count(*) AS n FROM S GROUP BY B\n"
        )
        code = main(
            ["run", "--schema", "paper", "--views-file", str(catalog),
             "--updates", "20", "--seed", "11"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "views=2" in out

    def test_sweep_compares_variants(self, capsys):
        code = main(
            ["sweep", "--updates", "25", "--seed", "3",
             "--variants", "complete,strong"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "complete" in out and "strong" in out
        assert "makespan" in out

    def test_sweep_rejects_unknown_variant(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--variants", "psychic"])

    def test_run_unsafe_config_reports_failure(self, capsys):
        code = main(
            [
                "run", "--policy", "eager", "--executors", "4",
                "--updates", "60", "--rate", "4", "--seed", "2",
            ]
        )
        out = capsys.readouterr().out
        # The eager policy on a parallel warehouse loses MVC; the CLI
        # must say so and exit non-zero.
        assert code == 1
        assert "FAILED" in out

    def test_run_promising_nothing_says_none_and_fails(self, capsys):
        code = main(["run", "--manager", "naive", "--updates", "20",
                     "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "promised MVC level: none" in out
        assert "FAILED — the configuration promises no MVC level" in out

    def test_run_ended_by_a_refused_transaction_prints_one_line(self, capsys):
        code = main(["run", "--manager", "naive", "--updates", "60",
                     "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        [line] = captured.out.splitlines()
        assert line.startswith("run ended: warehouse transaction ")
        assert "refused: batch deletes" in line


class TestMetricsOut:
    """``--metrics-out`` writes the run report with the registry in it."""

    def test_json_is_the_run_report(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        assert main(["run", "--updates", "20", "--seed", "3",
                     "--metrics-out", str(path)]) == 0
        assert f"metrics: {path}" in capsys.readouterr().out
        record = json.loads(path.read_text())
        assert record["format"] == "repro-run-report/1"
        assert record["promised"] == record["achieved"] == "complete"
        assert record["verified"] is True and record["refused"] is None
        assert record["updates_committed"] == 20
        assert record["registry"]["proc_messages_handled{process=merge}"][
            "value"] == record["processes"]["merge"]["messages_handled"]


class TestOutputSuffixes:
    """An output path with an extension no writer takes is a usage error
    before anything is built."""

    @staticmethod
    def refused(argv, capsys, monkeypatch) -> str:
        def build(args):
            raise AssertionError("built a system for a refused path")

        monkeypatch.setattr(cli, "_build_system", build)
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err.splitlines()[-1]

    @pytest.mark.parametrize("command", ["run", "inspect", "sweep"])
    def test_trace_out(self, command, tmp_path, capsys, monkeypatch):
        path = tmp_path / "t.xml"
        error = self.refused([command, "--trace-out", str(path)], capsys,
                             monkeypatch)
        assert error.startswith(f"repro {command}: error: argument "
                                f"--trace-out: ")
        assert ".json / .jsonl / .txt" in error
        assert not path.exists()

    def test_metrics_out(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "m.csv"
        error = self.refused(["run", "--metrics-out", str(path)], capsys,
                             monkeypatch)
        assert error.startswith("repro run: error: argument --metrics-out: ")
        assert not path.exists()


class TestCache:
    """``repro cache stats`` / ``gc`` over a store a cached run filled."""

    @pytest.fixture
    def root(self, tmp_path):
        from repro.cache import CacheConfig
        from repro.system.builder import WarehouseSystem
        from repro.system.config import SystemConfig
        from repro.workloads.schemas import paper_views_example1, paper_world

        root = tmp_path / "cache"
        with WarehouseSystem(paper_world(), paper_views_example1(),
                             SystemConfig(cache=CacheConfig(root=str(root)))):
            pass  # seeding the managers stores their artifacts
        return root

    def stats(self, out):
        return {
            name.strip(): int(value)
            for name, value in (line.split(":") for line in out.splitlines()[1:])
        }

    def test_stats_reports_the_artifacts(self, root, capsys):
        assert main(["cache", "stats", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == f"store: {root}"
        assert self.stats(out)["artifacts"] >= 2

    def test_gc_evicts_down_to_the_cap(self, root, capsys):
        main(["cache", "stats", "--root", str(root)])
        held = self.stats(capsys.readouterr().out)["artifacts"]
        assert main(["cache", "gc", "--root", str(root),
                     "--max-artifacts", "1"]) == 0
        first, *rest = capsys.readouterr().out.splitlines()
        assert first.startswith(f"evicted {held - 1} artifact(s), freed ")
        assert self.stats("\n".join(rest))["artifacts"] == 1


class TestTraceReaders:
    """A run records only the freshness endpoints unless its trace is
    read: ``--trace-out`` and ``inspect`` record every kind."""

    HOP_CHAIN = ("src_commit", "proc_msg", "int_number", "vm_compute",
                 "merge_ready", "merge_submit", "wh_start", "wh_commit")

    def test_trace_out_writes_every_kind(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        assert main(["run", "--trace-out", str(path)]) == 0
        events = json.loads(path.read_text())["traceEvents"]
        assert set(self.HOP_CHAIN) <= {e.get("cat") for e in events}

    def test_inspect_prints_a_full_hop_chain(self, capsys):
        assert main(["inspect", "--slowest", "1"]) == 0
        out = capsys.readouterr().out
        for kind in self.HOP_CHAIN:
            assert f" {kind} " in out, kind


class TestLiveView:
    """``run --live`` renders between bounded slices of the run; the
    slicing must not change where the run ends."""

    @staticmethod
    def systems(monkeypatch) -> list:
        built = []
        build = cli._build_system

        def keep(args):
            built.append(build(args))
            return built[-1]

        monkeypatch.setattr(cli, "_build_system", keep)
        return built

    def test_run_live_ends_where_a_plain_run_ends(self, capsys,
                                                  monkeypatch):
        built = self.systems(monkeypatch)
        # 43 updates leave complete-N blocks of 4 with a trailing one that
        # only the end-of-run flush closes: a live run that skipped the
        # flush would end elsewhere
        flags = ["--manager", "complete-n", "--updates", "43", "--seed", "5"]
        assert main(["run", "--live", "--live-interval", "1e-9",
                     *flags]) == 0
        live_out = capsys.readouterr().out
        assert main(["run", *flags]) == 0
        plain_out = capsys.readouterr().out
        assert live_out.count("-- live registry @ wall") >= 2
        assert "-- live registry" not in plain_out
        assert live_out.split("\nschema=", 1)[1] == plain_out.split(
            "schema=", 1)[1]

        live, plain = built
        assert live.check_mvc() == plain.check_mvc()
        assert live.check_mvc().ok
        for d in plain.definitions:
            assert sorted(live.store.view(d.name).counts()) == sorted(
                plain.store.view(d.name).counts()), d.name
        assert live.warehouse.commits == plain.warehouse.commits
        assert live.sim.trace.digest() == plain.sim.trace.digest()

    def test_run_live_prints_frames(self, capsys):
        assert main(["run", "--live", "--live-interval", "1e-9",
                     "--updates", "40", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("-- live registry @ wall") >= 2
        frame = out.split("-- live registry @ wall", 1)[1].splitlines()
        assert frame[1].split() == ["family", "kind", "n", "aggregate"]
        assert "verification: OK" in out
