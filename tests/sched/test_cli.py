"""The ``python -m repro.sched`` command surface and its exit codes."""

import json
from pathlib import Path

import pytest

from repro.sched.cli import main
from tests.sched.planted import reversed_flush

FIXTURE = str(Path(__file__).parent / "fixtures"
              / "binder-burst-legacy-sender-order.json")


def test_list_shows_scenarios_strategies_oracles(capsys):
    assert main(["list"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert "binder-burst" in listing["scenarios"]
    assert "storm-smoke" in listing["scenarios"]
    assert "enumerate" in listing["strategies"]
    assert "sender-order" in listing["oracles"]


def test_explore_clean_scenario_exits_zero(capsys):
    code = main(["explore", "--scenario", "binder-burst",
                 "--schedules", "5", "--seed", "42"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["violations"] == 0
    assert summary["schedules"] == 5


def test_explore_defaults_to_every_registered_scenario(capsys):
    from repro.sched.scenarios import SCENARIOS

    assert main(["explore", "--schedules", "1", "--strategy", "pct"]) == 0
    summaries = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
    assert [s["scenario"] for s in summaries] == sorted(SCENARIOS)


def test_explore_violation_exits_one_and_writes_artifact(
        tmp_path, capsys, monkeypatch):
    from repro.binder.driver import BinderDriver

    monkeypatch.setattr(BinderDriver, "_flush_async", reversed_flush)
    code = main(["explore", "--scenario", "binder-burst",
                 "--schedules", "3", "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "VIOLATION" in captured.err
    artifacts = list(tmp_path.glob("*.json"))
    assert artifacts, "violations must be written to --out"
    artifact = json.loads(artifacts[0].read_text())
    assert artifact["scenario"] == "binder-burst"
    assert artifact["schedule"], "the planted bug needs a non-FIFO schedule"
    assert artifact["failures"]


def test_replay_fixture_exits_zero(capsys):
    assert main(["replay", FIXTURE]) == 0
    assert "reproduced" in capsys.readouterr().out


def test_replay_corrupted_artifact_exits_one(tmp_path, capsys):
    artifact = json.loads(Path(FIXTURE).read_text())
    artifact["digest"] = "f" * 64
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(artifact))
    assert main(["replay", str(bad)]) == 1
    assert "REPLAY MISMATCH" in capsys.readouterr().err


def test_unknown_scenario_is_rejected():
    with pytest.raises(SystemExit):
        main(["explore", "--scenario", "no-such-scenario"])
