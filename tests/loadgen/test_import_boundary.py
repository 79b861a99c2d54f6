"""What a cloud-side run imports, and the lazy package exports behind it.

The onboard packages export their names lazily (``repro.lazy_exports``),
so building a city loads the control plane and the leaf modules it
names, not the VDC, SITL, binder, kernel, device and MAVLink stacks, nor
the report renderer of ``repro.analysis``.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

LAZY_PACKAGES = ("loadgen", "flight", "vdc", "containers", "android",
                 "mavproxy", "mavlink")

#: Modules of the onboard stack that a city build must not load.
ONBOARD_ONLY = (
    "repro.loadgen.harness",
    "repro.core",
    "repro.vdc.controller",
    "repro.flight.physics",
    "repro.flight.sitl",
    "repro.flight.autopilot",
    "repro.binder",
    "repro.kernel",
    "repro.devices",
    "repro.android.environment",
    "repro.mavlink.codec",
    "repro.mavproxy.proxy",
)

#: The city build loads 50 ``repro`` modules; the whole stack is 132.
MAX_CITY_MODULES = 52

_CITY_BUILD = """\
import json, sys
from repro.loadgen import CityHarness, CityScenario
CityHarness(CityScenario(seed=42))
print(json.dumps(sorted(m for m in sys.modules
                        if m == "repro" or m.startswith("repro."))))
"""


def _export_table(package):
    """The submodule -> names table the package ``__init__`` passes to
    ``lazy_exports``, read from its source."""
    tree = ast.parse((SRC / "repro" / package / "__init__.py").read_text())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports"):
            return ast.literal_eval(node.args[2])
    raise AssertionError(f"repro.{package} does not call lazy_exports")


class TestCityImportBoundary:
    @pytest.fixture(scope="class")
    def loaded(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("ANDRONE_TRACE", None)
        proc = subprocess.run([sys.executable, "-c", _CITY_BUILD], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_onboard_stack_not_loaded(self, loaded):
        leaked = [m for m in loaded for prefix in ONBOARD_ONLY
                  if m == prefix or m.startswith(prefix + ".")]
        assert leaked == []

    def test_report_renderer_not_loaded(self, loaded):
        # repro.obs imports its exporter eagerly; the exporter reaches
        # repro.analysis only when a run renders its report.
        assert [m for m in loaded if m == "repro.analysis"
                or m.startswith("repro.analysis.")] == []

    def test_module_count_bounded(self, loaded):
        assert len(loaded) <= MAX_CITY_MODULES, loaded


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyExports:
    def test_every_name_resolves_to_its_module(self, package):
        pkg = importlib.import_module(f"repro.{package}")
        table = _export_table(package)
        names = [name for group in table.values() for name in group]
        assert sorted(pkg.__all__) == sorted(names)
        listed = dir(pkg)
        for module, group in table.items():
            home = importlib.import_module(f"repro.{package}.{module}")
            for name in group:
                assert name in listed
                assert getattr(pkg, name) is getattr(home, name)
                assert name in vars(pkg)  # cached after the first access

    def test_unknown_name_raises_attribute_error(self, package):
        pkg = importlib.import_module(f"repro.{package}")
        with pytest.raises(AttributeError, match="no_such_name"):
            pkg.no_such_name


def test_submodule_import_through_package():
    from repro.loadgen import abuse, workloads

    assert abuse.__name__ == "repro.loadgen.abuse"
    assert workloads.__name__ == "repro.loadgen.workloads"
