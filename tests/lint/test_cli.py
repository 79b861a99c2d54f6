"""CLI contract: exit codes, report formats, baseline workflow, and the
real repository tree staying clean."""

import json
import subprocess
import sys
from pathlib import Path

from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

from tests.lint.conftest import make_repo

REPO_ROOT = Path(__file__).resolve().parents[2]

VIOLATION = """\
    import time

    def stamp():
        return time.time()
"""


def build_violating_tree(tmp_path):
    make_repo(tmp_path, {"src/repro/flight/bad.py": VIOLATION})
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        make_repo(tmp_path, {"src/repro/flight/ok.py": "X = 1\n"})
        assert main(["--root", str(tmp_path)]) == EXIT_CLEAN
        assert "repro.lint" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, capsys):
        root = build_violating_tree(tmp_path)
        assert main(["--root", str(root),
                     "--select", "sim-clock"]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "src/repro/flight/bad.py:4" in out
        assert "sim-clock" in out

    def test_warnings_only_fail_under_strict(self, tmp_path, capsys):
        # A mini tree has no enums/whitelist files: mav-whitelist
        # degrades to warnings, which pass by default.
        make_repo(tmp_path, {"src/repro/flight/ok.py": "X = 1\n"})
        assert main(["--root", str(tmp_path),
                     "--select", "mav-whitelist"]) == EXIT_CLEAN
        assert main(["--root", str(tmp_path), "--strict",
                     "--select", "mav-whitelist"]) == EXIT_FINDINGS
        capsys.readouterr()

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        make_repo(tmp_path, {"src/repro/flight/ok.py": "X = 1\n"})
        assert main(["--root", str(tmp_path),
                     "--select", "no-such-rule"]) == EXIT_USAGE
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_package_dir_exits_two(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path / "empty")]) == EXIT_USAGE
        assert "not found" in capsys.readouterr().err


class TestReports:
    def test_json_report_parses_and_carries_findings(self, tmp_path, capsys):
        root = build_violating_tree(tmp_path)
        assert main(["--root", str(root), "--format", "json",
                     "--select", "sim-clock"]) == EXIT_FINDINGS
        report = json.loads(capsys.readouterr().out)
        assert report["tool"] == "repro.lint"
        assert report["summary"]["errors"] == 1
        (finding,) = report["findings"]
        assert finding["rule"] == "sim-clock"
        assert finding["path"] == "src/repro/flight/bad.py"
        assert finding["line"] == 4

    def test_output_writes_json_file_and_prints_text(self, tmp_path, capsys):
        root = build_violating_tree(tmp_path)
        artifact = tmp_path / "repro-lint.json"
        assert main(["--root", str(root), "--output", str(artifact),
                     "--select", "sim-clock"]) == EXIT_FINDINGS
        report = json.loads(artifact.read_text(encoding="utf-8"))
        assert report["summary"]["errors"] == 1
        assert "sim-clock" in capsys.readouterr().out  # text on stdout

    def test_list_rules_names_every_checker(self, tmp_path, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule in ("sim-clock", "seeded-rng", "fork-safety",
                     "error-taxonomy", "mav-whitelist", "metric-docs",
                     "flow-taint", "flow-exceptions", "flow-typestate"):
            assert rule in out


class TestBaselineWorkflow:
    def test_write_baseline_then_rerun_is_clean(self, tmp_path, capsys):
        root = build_violating_tree(tmp_path)
        assert main(["--root", str(root),
                     "--select", "sim-clock"]) == EXIT_FINDINGS
        assert main(["--root", str(root), "--write-baseline",
                     "--select", "sim-clock"]) == EXIT_CLEAN
        assert (root / "lint-baseline.json").exists()
        assert main(["--root", str(root),
                     "--select", "sim-clock"]) == EXIT_CLEAN
        assert "1 baselined" in capsys.readouterr().out

    def test_corrupt_baseline_exits_two(self, tmp_path, capsys):
        root = build_violating_tree(tmp_path)
        (root / "lint-baseline.json").write_text("not json",
                                                 encoding="utf-8")
        assert main(["--root", str(root)]) == EXIT_USAGE
        capsys.readouterr()


class TestSarifOutput:
    def test_sarif_file_is_written_and_valid(self, tmp_path, capsys):
        root = build_violating_tree(tmp_path)
        out = tmp_path / "lint.sarif"
        rc = main(["--root", str(root), "--select", "sim-clock",
                   "--sarif", str(out)])
        assert rc == EXIT_FINDINGS
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["sim-clock"]
        assert results[0]["partialFingerprints"]["reproLintIdentity/v1"]
        capsys.readouterr()


class TestDiffMode:
    @staticmethod
    def _git(root, *args):
        subprocess.run(
            ["git", "-c", "user.email=ci@example.invalid",
             "-c", "user.name=ci", *args],
            cwd=root, check=True, capture_output=True)

    def _committed_repo(self, tmp_path, files):
        make_repo(tmp_path, files)
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", "-A")
        self._git(tmp_path, "commit", "-qm", "base")
        return tmp_path

    def test_diff_restricts_report_to_changed_files(self, tmp_path,
                                                    capsys):
        root = self._committed_repo(
            tmp_path, {"src/repro/flight/old.py": VIOLATION})
        make_repo(root, {"src/repro/flight/new.py": VIOLATION})
        rc = main(["--root", str(root), "--select", "sim-clock",
                   "--format", "json", "--diff", "HEAD"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == EXIT_FINDINGS
        assert [f["path"] for f in payload["findings"]] == [
            "src/repro/flight/new.py"]

    def test_empty_diff_reports_nothing(self, tmp_path, capsys):
        root = self._committed_repo(
            tmp_path, {"src/repro/flight/old.py": VIOLATION})
        rc = main(["--root", str(root), "--select", "sim-clock",
                   "--diff", "HEAD"])
        assert rc == EXIT_CLEAN
        assert "0 findings" in capsys.readouterr().out

    def test_unknown_base_is_a_usage_error(self, tmp_path, capsys):
        root = self._committed_repo(
            tmp_path, {"src/repro/flight/old.py": VIOLATION})
        rc = main(["--root", str(root), "--select", "sim-clock",
                   "--diff", "no-such-ref"])
        assert rc == EXIT_USAGE
        assert "--diff" in capsys.readouterr().err


class TestRealRepository:
    def test_checked_in_tree_is_clean(self, capsys):
        # The headline acceptance criterion: the repository lints clean
        # against its own checked-in baseline.
        assert main(["--root", str(REPO_ROOT)]) == EXIT_CLEAN
        capsys.readouterr()

    def test_module_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list-rules"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert "sim-clock" in proc.stdout
