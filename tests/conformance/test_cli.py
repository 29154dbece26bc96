"""The ``repro conformance`` CLI: flags, exit codes, artifacts."""

import json

import pytest

from repro.cli import main
from repro.conformance.cli import parse_faults, parse_fleet
from repro.errors import ReproError


class TestParsers:
    def test_parse_fleet(self):
        assert parse_fleet("V1=complete,V2=naive") == {
            "V1": "complete",
            "V2": "naive",
        }

    def test_parse_fleet_rejects_bad_kind(self):
        with pytest.raises(ReproError, match="kind"):
            parse_fleet("V1=quantum")

    def test_parse_faults(self):
        plan = parse_faults("drop=0.1,dup=0.05,seed=3,unreliable")
        assert plan.drop_rate == 0.1
        assert plan.duplicate_rate == 0.05
        assert plan.seed == 3
        assert plan.reliable is False

    def test_parse_faults_rejects_unknown_key(self):
        with pytest.raises(ReproError, match="warp"):
            parse_faults("warp=1")


class TestExplore:
    def test_clean_config_exits_zero(self, capsys):
        code = main([
            "conformance", "explore", "--manager", "complete",
            "--algorithm", "spa", "--updates", "8", "--seeds", "3",
        ])
        assert code == 0
        assert "no violation" in capsys.readouterr().out

    def test_naive_hunt_exits_two_and_writes_reproducer(self, tmp_path, capsys):
        out = tmp_path / "naive.json"
        code = main([
            "conformance", "explore", "--manager", "naive",
            "--level", "strong", "--seeds", "200", "--out", str(out),
        ])
        assert code == 2
        assert "VIOLATION" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["format"] == "mvc-conformance-repro/2"
        assert data["level"] == "strong"

    def test_replay_round_trip(self, tmp_path, capsys):
        out = tmp_path / "repro.json"
        assert main([
            "conformance", "explore", "--manager", "naive",
            "--level", "strong", "--seeds", "200", "--out", str(out),
        ]) == 2
        code = main(["conformance", "replay", str(out)])
        assert code == 0
        assert "byte-for-byte" in capsys.readouterr().out


class TestMatrix:
    def test_matrix_smoke(self, tmp_path, capsys):
        code = main([
            "conformance", "matrix", "--seeds", "6",
            "--out-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "15/15 rows conform" in out
        assert (tmp_path / "naive-fleet-breaks-strong.json").exists()
