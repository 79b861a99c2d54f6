"""Two-run determinism of the whole-program layer (byte-identical JSON
and SARIF), SARIF document shape, and the cached-pass performance
budget on the real repository tree."""

import json
import time

from repro.lint import run_lint
from repro.lint.config import default_config
from repro.lint.core import all_checkers, build_corpus
from repro.lint.flow.cache import load_summaries
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
    def test_summary_cache_warms_and_warm_pass_stays_cheap(self, tmp_path):
        config = default_config()
        config.flow_cache_rel = str(tmp_path / "flow-cache.json")
        corpus = build_corpus(config, [])
        _, hits = load_summaries(corpus, config)
        assert hits == 0
        start = time.perf_counter()
        _, hits = load_summaries(corpus, config)
        warm = time.perf_counter() - start
        assert hits == len(corpus)
        # Generous CI budget: the warm pass re-hashes content and loads
        # JSON, no re-parsing; the cold pass on this tree takes ~1s.
        assert warm < 10.0

    def test_whole_program_pass_on_real_tree_within_budget(self, tmp_path):
        config = default_config()
        config.flow_cache_rel = str(tmp_path / "flow-cache.json")
        start = time.perf_counter()
        result = run_lint(config, select=_FLOW_RULES)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        # The real tree must stay clean under the flow rules.
        assert result.findings == []
