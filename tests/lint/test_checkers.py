"""Per-rule fixture tests: one minimal violating snippet and one clean
snippet per checker, plus the allowlist/exemption edges each rule
carries."""

import importlib.util

from repro.lint import Severity

from tests.lint.conftest import lint_rule


class TestSimClock:
    def test_time_time_in_flight_module_is_caught(self, mini):
        # The acceptance scenario from the issue: seed a wall-clock read
        # into src/repro/flight/ and the sim-clock rule must catch it.
        config = mini({"src/repro/flight/bad.py": """\
            import time

            def stamp():
                return time.time()
            """})
        findings = lint_rule(config, "sim-clock")
        assert [f.rule for f in findings] == ["sim-clock"]
        assert findings[0].path == "src/repro/flight/bad.py"
        assert findings[0].line == 4
        assert "time.time" in findings[0].message

    def test_aliased_from_import_is_resolved(self, mini):
        config = mini({"src/repro/sim/bad.py": """\
            from time import perf_counter as tick

            def overhead():
                return tick()
            """})
        findings = lint_rule(config, "sim-clock")
        assert len(findings) == 1
        assert "time.perf_counter" in findings[0].message

    def test_sleep_is_banned_too(self, mini):
        config = mini({"src/repro/net/bad.py": """\
            import time

            def backoff():
                time.sleep(0.1)
            """})
        assert len(lint_rule(config, "sim-clock")) == 1

    def test_sim_clock_usage_is_clean(self, mini):
        config = mini({"src/repro/flight/ok.py": """\
            def stamp(sim):
                return sim.now()
            """})
        assert lint_rule(config, "sim-clock") == []

    def test_allowlisted_module_is_skipped(self, mini):
        # A module that measures real wall time is allowlisted; the same
        # code elsewhere is still caught.
        wall = """\
            import time

            def wall():
                return time.perf_counter()
            """
        config = mini({"src/repro/bench/timer.py": wall,
                       "src/repro/flight/timer.py": wall})
        config.sim_clock_allow = ("bench/timer.py",)
        findings = lint_rule(config, "sim-clock")
        assert [f.path for f in findings] == ["src/repro/flight/timer.py"]


class TestSeededRng:
    def test_global_random_call_is_caught(self, mini):
        config = mini({"src/repro/devices/bad.py": """\
            import random

            def jitter():
                return random.uniform(0.0, 1.0)
            """})
        findings = lint_rule(config, "seeded-rng")
        assert len(findings) == 1
        assert "RngRegistry" in findings[0].message

    def test_unseeded_random_instance_is_caught(self, mini):
        config = mini({"src/repro/devices/bad.py": """\
            import random

            GEN = random.Random()
            """})
        findings = lint_rule(config, "seeded-rng")
        assert len(findings) == 1
        assert "unseeded" in findings[0].message

    def test_seeded_random_instance_is_clean(self, mini):
        config = mini({"src/repro/devices/ok.py": """\
            import random

            def stream(seed):
                return random.Random(seed)
            """})
        assert lint_rule(config, "seeded-rng") == []

    def test_system_random_is_caught(self, mini):
        config = mini({"src/repro/cloud/bad.py": """\
            import random

            def token():
                return random.SystemRandom().random()
            """})
        messages = [f.message for f in lint_rule(config, "seeded-rng")]
        assert any("SystemRandom" in m for m in messages)

    def test_registry_module_is_allowlisted(self, mini):
        config = mini({"src/repro/sim/rng.py": """\
            import random

            def make(seed):
                return random.Random(seed) if seed else random.Random()
            """})
        assert lint_rule(config, "seeded-rng") == []


class TestForkSafety:
    def test_module_level_counter_is_caught(self, mini):
        config = mini({"src/repro/kernel/bad.py": """\
            import itertools

            _ids = itertools.count(1)
            """})
        findings = lint_rule(config, "fork-safety")
        assert len(findings) == 1
        assert "second run in the same process" in findings[0].message

    def test_module_level_mutable_dict_is_caught(self, mini):
        config = mini({"src/repro/cloud/bad.py": """\
            _pending = {}
            """})
        assert len(lint_rule(config, "fork-safety")) == 1

    def test_class_level_id_counter_is_caught(self, mini):
        # The PR 2/PR 4 bug class verbatim.
        config = mini({"src/repro/cloud/bad.py": """\
            class Portal:
                _next_order_id = 0
            """})
        findings = lint_rule(config, "fork-safety")
        assert len(findings) == 1
        assert "counter" in findings[0].message

    def test_all_caps_table_is_exempt(self, mini):
        config = mini({"src/repro/mavlink/ok.py": """\
            DISPATCH = {1: "a", 2: "b"}

            class Codec:
                FIELDS = ["x", "y"]
            """})
        assert lint_rule(config, "fork-safety") == []

    def test_dataclass_field_defaults_are_exempt(self, mini):
        config = mini({"src/repro/mavlink/ok.py": """\
            from dataclasses import dataclass

            @dataclass
            class MissionItem:
                seq: int = 0
            """})
        assert lint_rule(config, "fork-safety") == []

    def test_instance_state_is_clean(self, mini):
        config = mini({"src/repro/cloud/ok.py": """\
            class Portal:
                def __init__(self):
                    self._orders = {}
                    self._next_order_id = 1
            """})
        assert lint_rule(config, "fork-safety") == []

    def test_class_counter_breaks_repeat_runs_in_one_process(self, mini):
        # Two seeded runs in one process (a pytest session, `make city`'s
        # double run, the explorer) must allocate the same ids.  A class
        # counter bumped via the class breaks that, and the rule flags
        # exactly its binding; the instance-scoped fix repeats and is
        # clean.
        run = """\

            def run(orders):
                ledger = Ledger()
                return [ledger.open() for _ in range(orders)]
            """
        shared = """\
            class Ledger:
                _next_id = 0

                def open(self):
                    Ledger._next_id += 1
                    return Ledger._next_id
            """
        scoped = """\
            class Ledger:
                def __init__(self):
                    self._next_id = 0

                def open(self):
                    self._next_id += 1
                    return self._next_id
            """
        config = mini({"src/repro/cloud/shared.py": shared + run,
                       "src/repro/cloud/scoped.py": scoped + run})
        package = config.package_dir / "cloud"

        def two_runs(name):
            spec = importlib.util.spec_from_file_location(
                f"planted_{name}", package / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.run(3), module.run(3)

        assert two_runs("shared") == ([1, 2, 3], [4, 5, 6])
        assert two_runs("scoped") == ([1, 2, 3], [1, 2, 3])
        findings = lint_rule(config, "fork-safety")
        assert [(f.path, f.line) for f in findings] == [
            ("src/repro/cloud/shared.py", 2)]
        assert "_next_id" in findings[0].message


class TestErrorTaxonomy:
    def test_bare_except_is_caught(self, mini):
        config = mini({"src/repro/flight/bad.py": """\
            def f():
                try:
                    return 1
                except:
                    return 0
            """})
        messages = [f.message for f in lint_rule(config, "error-taxonomy")]
        assert any("bare 'except:'" in m for m in messages)

    def test_broad_except_is_caught(self, mini):
        config = mini({"src/repro/flight/bad.py": """\
            def f():
                try:
                    return 1
                except Exception:
                    raise
            """})
        messages = [f.message for f in lint_rule(config, "error-taxonomy")]
        assert any("over-broad" in m for m in messages)

    def test_silent_swallow_is_caught(self, mini):
        config = mini({"src/repro/flight/bad.py": """\
            def f():
                try:
                    return 1
                except ValueError:
                    pass
            """})
        messages = [f.message for f in lint_rule(config, "error-taxonomy")]
        assert any("silently swallowed" in m for m in messages)

    def test_builtin_raise_on_cloud_path_is_caught(self, mini):
        config = mini({"src/repro/cloud/bad.py": """\
            def f(x):
                if x < 0:
                    raise ValueError("negative")
            """})
        findings = lint_rule(config, "error-taxonomy")
        assert len(findings) == 1
        assert "typed repro error" in findings[0].message

    def test_builtin_raise_off_cloud_path_is_tolerated(self, mini):
        # Same code outside the typed-raise prefixes: no finding.
        config = mini({"src/repro/flight/ok.py": """\
            def f(x):
                if x < 0:
                    raise ValueError("negative")
            """})
        assert lint_rule(config, "error-taxonomy") == []

    def test_typed_raise_and_narrow_except_are_clean(self, mini):
        config = mini({"src/repro/cloud/ok.py": """\
            class BadInputError(ValueError):
                pass

            def f(x):
                if x < 0:
                    raise BadInputError("negative")
                raise NotImplementedError
            """})
        assert lint_rule(config, "error-taxonomy") == []


WHITELIST_ENUMS = """\
    import enum

    class MavCommand(enum.IntEnum):
        NAV_WAYPOINT = 16
        NAV_LAND = 21
        DO_SET_HOME = 179
"""


class TestMavWhitelist:
    def test_unclassified_member_is_caught(self, mini):
        config = mini({
            "src/repro/mavlink/enums.py": WHITELIST_ENUMS,
            "src/repro/mavproxy/whitelist.py": """\
                from repro.mavlink.enums import MavCommand

                ALLOWED = frozenset({MavCommand.NAV_WAYPOINT})
                DENIED = frozenset({MavCommand.DO_SET_HOME})
                """,
        })
        findings = lint_rule(config, "mav-whitelist")
        assert len(findings) == 1
        assert "MavCommand.NAV_LAND" in findings[0].message

    def test_unknown_reference_is_caught(self, mini):
        config = mini({
            "src/repro/mavlink/enums.py": WHITELIST_ENUMS,
            "src/repro/mavproxy/whitelist.py": """\
                from repro.mavlink.enums import MavCommand

                ALLOWED = frozenset({
                    MavCommand.NAV_WAYPOINT, MavCommand.NAV_LAND,
                    MavCommand.DO_SET_HOME, MavCommand.NAV_TELEPORT,
                })
                """,
        })
        findings = lint_rule(config, "mav-whitelist")
        assert len(findings) == 1
        assert "NAV_TELEPORT" in findings[0].message

    def test_full_classification_is_clean(self, mini):
        config = mini({
            "src/repro/mavlink/enums.py": WHITELIST_ENUMS,
            "src/repro/mavproxy/whitelist.py": """\
                from repro.mavlink.enums import MavCommand

                ALLOWED = frozenset({MavCommand.NAV_WAYPOINT})
                FULL_ONLY = frozenset({MavCommand.NAV_LAND})
                FENCE_CRITICAL = frozenset({MavCommand.DO_SET_HOME})
                """,
        })
        assert lint_rule(config, "mav-whitelist") == []

    def test_missing_files_degrade_to_warning(self, mini):
        config = mini({"src/repro/flight/ok.py": "X = 1\n"})
        findings = lint_rule(config, "mav-whitelist")
        assert findings and all(
            f.severity is Severity.WARNING for f in findings)
        assert all("file not found" in f.message for f in findings)


class TestMetricDocs:
    DOC = """\
        # Metrics

        | name | kind |
        | --- | --- |
        | `portal.orders` | counter |
    """

    def test_undocumented_metric_is_caught(self, mini):
        config = mini({
            "docs/METRICS.md": self.DOC,
            "src/repro/cloud/portal.py": """\
                def handle(obs):
                    obs.counter("portal.orders")
                    obs.counter("portal.rejected")
                """,
        })
        findings = lint_rule(config, "metric-docs")
        assert len(findings) == 1
        assert "portal.rejected" in findings[0].message
        assert findings[0].path == "src/repro/cloud/portal.py"

    def test_stale_doc_row_is_caught(self, mini):
        config = mini({
            "docs/METRICS.md": self.DOC,
            "src/repro/cloud/portal.py": "def handle(obs):\n    pass\n",
        })
        findings = lint_rule(config, "metric-docs")
        assert len(findings) == 1
        assert "portal.orders" in findings[0].message
        assert findings[0].path == "docs/METRICS.md"

    def test_synced_vocabulary_is_clean(self, mini):
        config = mini({
            "docs/METRICS.md": self.DOC,
            "src/repro/cloud/portal.py": """\
                def handle(obs):
                    obs.counter("portal.orders")
                """,
        })
        assert lint_rule(config, "metric-docs") == []

    def test_extra_trees_are_scanned(self, mini):
        # benchmarks/ registers names too; they must count as "in code".
        config = mini({
            "docs/METRICS.md": """\
                | name | kind |
                | --- | --- |
                | `fig10.speedup` | gauge |
            """,
            "benchmarks/fig10.py": """\
                def run(obs):
                    obs.gauge("fig10.speedup")
                """,
            "src/repro/flight/ok.py": "X = 1\n",
        })
        assert lint_rule(config, "metric-docs") == []


class TestUnorderedIter:
    def test_for_over_set_call_is_caught(self, mini):
        config = mini({
            "src/repro/sim/bad.py": """\
                def drain(events):
                    for e in set(events):
                        e.fn()
            """,
        })
        findings = lint_rule(config, "unordered-iter")
        assert len(findings) == 1
        assert "set()" in findings[0].message

    def test_set_literal_and_comprehension_are_caught(self, mini):
        config = mini({
            "src/repro/sim/bad.py": """\
                def f(xs):
                    for x in {1, 2, 3}:
                        print(x)
                    return [y for y in {x.key for x in xs}]
            """,
        })
        findings = lint_rule(config, "unordered-iter")
        assert len(findings) == 2
        assert "set literal" in findings[0].message
        assert "set comprehension" in findings[1].message

    def test_set_algebra_result_is_caught(self, mini):
        config = mini({
            "src/repro/sim/bad.py": """\
                def f(a, b):
                    return [x for x in a.intersection(b)]
            """,
        })
        findings = lint_rule(config, "unordered-iter")
        assert len(findings) == 1
        assert ".intersection()" in findings[0].message

    def test_sorted_wrapper_is_clean(self, mini):
        config = mini({
            "src/repro/sim/ok.py": """\
                def f(events, a, b):
                    for e in sorted(set(events), key=lambda e: e.seq):
                        e.fn()
                    return [x for x in sorted(a.union(b))]
            """,
        })
        assert lint_rule(config, "unordered-iter") == []

    def test_membership_and_construction_are_clean(self, mini):
        # Building or probing a set is fine; only iteration is ordered.
        config = mini({
            "src/repro/sim/ok.py": """\
                def f(xs, x):
                    seen = set(xs)
                    return x in seen
            """,
        })
        assert lint_rule(config, "unordered-iter") == []


class TestSecurityErrors:
    ERRORS = """\
        class SecurityError(RuntimeError):
            pass

        class RateLimitError(SecurityError):
            pass
    """
    DOC = """\
        # Metrics

        | name | kind |
        | --- | --- |
        | `sec.guard.rejected` | counter |
    """

    def test_untyped_raise_in_security_package_is_caught(self, mini):
        config = mini({
            "docs/METRICS.md": self.DOC,
            "src/repro/security/errors.py": self.ERRORS,
            "src/repro/security/guards.py": """\
                def admit(ok):
                    if not ok:
                        raise ValueError("throttled")
                """,
        })
        findings = lint_rule(config, "security-errors")
        assert len(findings) == 1
        assert "ValueError" in findings[0].message
        assert findings[0].path == "src/repro/security/guards.py"

    def test_typed_raise_and_reraise_are_clean(self, mini):
        config = mini({
            "docs/METRICS.md": self.DOC,
            "src/repro/security/errors.py": self.ERRORS,
            "src/repro/security/guards.py": """\
                from repro.security.errors import RateLimitError

                def admit(ok, obs):
                    obs.counter("sec.guard.rejected")
                    try:
                        if not ok:
                            raise RateLimitError("throttled")
                    except RateLimitError:
                        raise
                """,
        })
        assert lint_rule(config, "security-errors") == []

    def test_transitive_subclass_is_typed(self, mini):
        config = mini({
            "docs/METRICS.md": self.DOC,
            "src/repro/security/errors.py": """\
                class SecurityError(RuntimeError):
                    pass

                class ChannelAuthError(SecurityError):
                    pass

                class ReplayError(ChannelAuthError):
                    pass
            """,
            "src/repro/security/channel.py": """\
                from repro.security.errors import ReplayError

                def open_frame(stale):
                    if stale:
                        raise ReplayError("seq seen")
                """,
        })
        assert lint_rule(config, "security-errors") == []

    def test_untyped_raise_outside_security_is_ignored(self, mini):
        # the error-taxonomy rule owns the rest of the tree.
        config = mini({
            "docs/METRICS.md": self.DOC,
            "src/repro/security/errors.py": self.ERRORS,
            "src/repro/flight/core.py": """\
                def step(dt):
                    if dt <= 0:
                        raise ValueError("bad dt")
                """,
        })
        assert lint_rule(config, "security-errors") == []

    def test_undocumented_sec_metric_is_caught(self, mini):
        config = mini({
            "docs/METRICS.md": self.DOC,
            "src/repro/security/errors.py": self.ERRORS,
            "src/repro/security/anomaly.py": """\
                def flag(obs):
                    obs.counter("sec.anomaly.flags")
                """,
        })
        findings = lint_rule(config, "security-errors")
        assert len(findings) == 1
        assert "sec.anomaly.flags" in findings[0].message
