"""CLI surface for the runtime flags: parsing, rejection, end-to-end."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.runtime import RUNTIMES


class TestParsing:
    def test_run_accepts_runtime_and_workers(self):
        args = build_parser().parse_args(
            ["run", "--runtime", "threads", "--workers", "4"]
        )
        assert args.runtime == "threads"
        assert args.workers == 4

    def test_sweep_accepts_runtime_and_workers(self):
        args = build_parser().parse_args(
            ["sweep", "--runtime", "threads", "--workers", "2"]
        )
        assert args.runtime == "threads"
        assert args.workers == 2

    def test_inspect_accepts_runtime(self):
        args = build_parser().parse_args(["inspect", "--runtime", "threads"])
        assert args.runtime == "threads"

    def test_default_runtime_is_des(self):
        args = build_parser().parse_args(["run"])
        assert args.runtime == "des"
        assert args.workers is None

    def test_unknown_runtime_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--runtime", "gpu"])

    def test_removed_procs_runtime_refused_with_accepted_names(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--runtime", "procs"])
        message = capsys.readouterr().err
        assert "'procs'" in message
        for name in RUNTIMES:
            assert repr(name) in message


class TestWorkersUnderDes:
    def test_run_rejects_workers_without_parallel_runtime(self):
        with pytest.raises(SystemExit, match="--runtime threads"):
            main(["run", "--workers", "4", "--updates", "5"])

    def test_sweep_rejects_workers_without_parallel_runtime(self):
        with pytest.raises(SystemExit, match="--runtime threads"):
            main(["sweep", "--workers", "4", "--updates", "5"])


class TestEndToEnd:
    def test_run_on_threads_runtime(self, capsys):
        rc = main(
            ["run", "--runtime", "threads", "--workers", "2",
             "--updates", "10", "--seed", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "MVC level" in out

    def test_run_des_default_still_works(self, capsys):
        rc = main(["run", "--updates", "10", "--seed", "3"])
        assert rc == 0
        assert "MVC level" in capsys.readouterr().out
