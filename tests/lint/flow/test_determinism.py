"""Two-run determinism of the whole-program layer (byte-identical JSON
and SARIF), SARIF document shape, and the whole-program pass's time
budget on the real repository tree."""

import json
import time

from repro.lint import run_lint
from repro.lint.config import default_config
from repro.lint.core import all_checkers
from repro.lint.report import render_json
from repro.lint.sarif import render_sarif

from tests.lint.conftest import make_repo

_FLOW_RULES = ["flow-taint", "flow-exceptions", "flow-typestate"]


def _violating_repo(tmp_path):
    """One mini-tree with findings from three of the flow rules."""
    return make_repo(tmp_path, {
        "src/repro/timing/util.py": """\
            import time

            def now():
                return time.time()
            """,
        "src/repro/sim/engine.py": """\
            from repro.timing.util import now

            def step():
                return now()
            """,
        "src/repro/cloud/api.py": """\
            from repro.devices.util import attach

            def provision(spec):
                return attach(spec)
            """,
        "src/repro/devices/util.py": """\
            def attach(spec):
                if spec is None:
                    raise RuntimeError("no spec")
                return spec
            """,
    })


class TestDeterminism:
    def test_two_runs_render_byte_identical_json(self, tmp_path):
        config = _violating_repo(tmp_path)
        first = run_lint(config, select=_FLOW_RULES)
        second = run_lint(config, select=_FLOW_RULES)
        assert len(first.findings) >= 3
        assert render_json(first) == render_json(second)

    def test_two_runs_render_byte_identical_sarif(self, tmp_path):
        config = _violating_repo(tmp_path)
        checkers = all_checkers()
        first = render_sarif(run_lint(config, select=_FLOW_RULES), checkers)
        second = render_sarif(run_lint(config, select=_FLOW_RULES), checkers)
        assert first == second

    def test_sarif_document_shape(self, tmp_path):
        config = _violating_repo(tmp_path)
        result = run_lint(config, select=_FLOW_RULES)
        doc = json.loads(render_sarif(result, all_checkers()))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert set(_FLOW_RULES) <= rules
        assert len(run["results"]) == len(result.findings)
        for res in run["results"]:
            assert res["partialFingerprints"]["reproLintIdentity/v1"]
            location = res["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"].endswith(".py")


class TestCachedPassBudget:
    def test_whole_program_pass_on_real_tree_within_budget(self):
        config = default_config()
        start = time.perf_counter()
        result = run_lint(config, select=_FLOW_RULES)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        # The real tree must stay clean under the flow rules.
        assert result.findings == []
