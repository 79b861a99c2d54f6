"""Call-graph construction unit tests on synthetic module trees, plus
pins on the real tree's graph."""

from repro.lint.config import default_config
from repro.lint.core import build_corpus
from repro.lint.flow.graph import project_graph

from tests.lint.conftest import make_repo


def _fid(rel_qualname):
    return "src/repro/" + rel_qualname


def _graph(config):
    corpus = build_corpus(config, [])
    return project_graph(corpus, config)


class TestCallResolution:
    def test_local_function_call(self, tmp_path):
        config = make_repo(tmp_path, {"src/repro/a.py": """\
            def helper():
                return 1

            def caller():
                return helper()
            """})
        graph = _graph(config)
        assert graph.calls[_fid("a.py::caller")] == (_fid("a.py::helper"),)

    def test_from_import_across_modules(self, tmp_path):
        config = make_repo(tmp_path, {
            "src/repro/util.py": """\
                def tick():
                    return 0
                """,
            "src/repro/app.py": """\
                from repro.util import tick

                def go():
                    return tick()
                """,
        })
        graph = _graph(config)
        assert graph.calls[_fid("app.py::go")] == (_fid("util.py::tick"),)

    def test_module_import_attribute_call(self, tmp_path):
        config = make_repo(tmp_path, {
            "src/repro/pkg/__init__.py": "",
            "src/repro/pkg/util.py": """\
                def tick():
                    return 0
                """,
            "src/repro/app.py": """\
                import repro.pkg.util as u

                def go():
                    return u.tick()
                """,
        })
        graph = _graph(config)
        assert graph.calls[_fid("app.py::go")] == (_fid("pkg/util.py::tick"),)

    def test_reexport_chase_through_package_init(self, tmp_path):
        config = make_repo(tmp_path, {
            "src/repro/pkg/__init__.py": """\
                from repro.pkg.impl import tick
                """,
            "src/repro/pkg/impl.py": """\
                def tick():
                    return 0
                """,
            "src/repro/app.py": """\
                from repro.pkg import tick

                def go():
                    return tick()
                """,
        })
        graph = _graph(config)
        assert graph.calls[_fid("app.py::go")] == (_fid("pkg/impl.py::tick"),)

    def test_self_method_resolves_through_base_class(self, tmp_path):
        config = make_repo(tmp_path, {
            "src/repro/base.py": """\
                class Base:
                    def shared(self):
                        return 1
                """,
            "src/repro/sub.py": """\
                from repro.base import Base

                class Sub(Base):
                    def caller(self):
                        return self.shared()
                """,
        })
        graph = _graph(config)
        assert graph.calls[_fid("sub.py::Sub.caller")] == (
            _fid("base.py::Base.shared"),)

    def test_constructor_typed_attribute_method(self, tmp_path):
        config = make_repo(tmp_path, {
            "src/repro/engine.py": """\
                class Engine:
                    def spin(self):
                        return 1
                """,
            "src/repro/car.py": """\
                from repro.engine import Engine

                class Car:
                    def __init__(self):
                        self.engine = Engine()

                    def drive(self):
                        return self.engine.spin()
                """,
        })
        graph = _graph(config)
        assert graph.calls[_fid("car.py::Car.drive")] == (
            _fid("engine.py::Engine.spin"),)

    def test_constructor_call_links_to_init(self, tmp_path):
        config = make_repo(tmp_path, {"src/repro/a.py": """\
            class Widget:
                def __init__(self):
                    self.n = 0

            def build():
                return Widget()
            """})
        graph = _graph(config)
        assert graph.calls[_fid("a.py::build")] == (_fid("a.py::Widget.__init__"),)

    def test_name_fallback_is_capped(self, tmp_path):
        # Four classes define poke(): past MAX_METHOD_CANDIDATES (3) the
        # unknown-receiver fallback refuses to guess.
        files = {
            f"src/repro/m{i}.py": f"""\
                class C{i}:
                    def poke(self):
                        return {i}
                """
            for i in range(4)
        }
        files["src/repro/app.py"] = """\
            def go(thing):
                return thing.poke()
            """
        graph = _graph(make_repo(tmp_path, files))
        assert graph.calls[_fid("app.py::go")] == ()

    def test_name_fallback_links_unique_method(self, tmp_path):
        config = make_repo(tmp_path, {
            "src/repro/only.py": """\
                class Only:
                    def poke(self):
                        return 1
                """,
            "src/repro/app.py": """\
                def go(thing):
                    return thing.poke()
                """,
        })
        graph = _graph(config)
        assert graph.calls[_fid("app.py::go")] == (_fid("only.py::Only.poke"),)

    def test_external_calls_are_dropped(self, tmp_path):
        config = make_repo(tmp_path, {"src/repro/a.py": """\
            import json

            def go():
                return json.dumps({})
            """})
        graph = _graph(config)
        assert graph.calls[_fid("a.py::go")] == ()

    def test_external_calls_never_fall_back_to_method_names(self, tmp_path):
        # A project method shares the name of each stdlib function.
        config = make_repo(tmp_path, {
            "src/repro/report.py": """\
                class Report:
                    def log(self, line):
                        return line

                    def walk(self):
                        return 0
                """,
            "src/repro/a.py": """\
                import ast
                import math
                from math import log

                def by_module(x):
                    return math.log(x)

                def by_name(x):
                    return log(x)

                def nested(tree):
                    return list(ast.walk(tree))
                """,
        })
        graph = _graph(config)
        for name in ("by_module", "by_name", "nested"):
            assert graph.calls[_fid(f"a.py::{name}")] == ()


class TestReachability:
    def test_entry_attribution_is_deterministic(self, tmp_path):
        config = make_repo(tmp_path, {"src/repro/a.py": """\
            def shared():
                return 1

            def entry_a():
                return shared()

            def entry_b():
                return shared()
            """})
        graph = _graph(config)
        reached = graph.reachable_from(
            [_fid("a.py::entry_b"), _fid("a.py::entry_a")])
        # Sorted entry order: entry_a wins the shared attribution.
        assert reached[_fid("a.py::shared")] == _fid("a.py::entry_a")

    def test_cycles_terminate(self, tmp_path):
        config = make_repo(tmp_path, {"src/repro/a.py": """\
            def ping():
                return pong()

            def pong():
                return ping()
            """})
        graph = _graph(config)
        reached = graph.reachable_from([_fid("a.py::ping")])
        assert set(reached) == {_fid("a.py::ping"), _fid("a.py::pong")}


class TestRealTree:
    def test_drone_node_constructs_mavproxy(self):
        # Names a package exports lazily are not chased, so src/ imports
        # name the defining module and the edge stays resolved.
        graph = _graph(default_config())
        assert (_fid("mavproxy/proxy.py::MavProxy.__init__")
                in graph.calls[_fid("core/drone_node.py::DroneNode.__init__")])

    def test_stdlib_log_does_not_link_to_mission_report(self):
        # rng.normals calls math's log; MissionReport.log is the only
        # project method of that name.
        graph = _graph(default_config())
        log = _fid("core/mission.py::MissionReport.log")
        assert log not in graph.calls[_fid("sim/rng.py::normals")]
        assert log not in graph.calls[
            _fid("kernel/preemption.py::PreemptionModel._sample_body")]
