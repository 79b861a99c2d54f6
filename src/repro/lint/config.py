"""Lint configuration: what to scan and where the cross-referenced
artifacts (enums, whitelist, metric docs) live.

Defaults describe this repository; tests point ``root`` at synthetic
mini-trees to exercise checkers against fixture snippets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple


@dataclass
class LintConfig:
    """Paths and allowlists for one lint run.

    All ``*_rel`` fields are POSIX-style paths relative to ``root``;
    allowlist entries are relative to the scanned package directory.
    """

    #: Repository root; every reported path is relative to it.
    root: Path

    #: The package tree the per-file checkers scan.
    package_rel: str = "src/repro"

    #: Sim-path wall-clock allowlist: modules that legitimately measure
    #: host time (speedup/overhead numbers), relative to ``package_rel``.
    sim_clock_allow: Tuple[str, ...] = ()

    #: Modules allowed to touch the ``random`` module directly (the
    #: seeded-stream registry itself).
    rng_allow: Tuple[str, ...] = ("sim/rng.py",)

    #: Package-relative prefixes on which ``raise`` must use
    #: repro-defined typed exceptions (the cloud/VDC/portal paths).
    typed_raise_prefixes: Tuple[str, ...] = ("cloud/", "vdc/")

    #: Cross-referenced artifacts for the project-scope checkers.
    mav_enums_rel: str = "src/repro/mavlink/enums.py"
    mav_enum_class: str = "MavCommand"
    whitelist_rel: str = "src/repro/mavproxy/whitelist.py"
    metrics_doc_rel: str = "docs/METRICS.md"

    #: Extra trees (besides ``package_rel``) scanned for registered
    #: metric names — benchmarks register ``fig10.*``/``scale.*`` series.
    metrics_extra_rels: Tuple[str, ...] = ("benchmarks",)

    #: Default baseline location for grandfathered findings.
    baseline_rel: str = "lint-baseline.json"

    # -- interprocedural (flow) layer -------------------------------------
    #: Modules whose functions *sanitize* taint: reviewed boundaries
    #: whose return values are deemed clock-free/deterministic.
    #: ``sim/rng.py`` is the blessed seeded-stream wrapper (calls into
    #: it are the fix, not the bug).  (Distinct from ``rng_allow``/
    #: ``sim_clock_allow``, which only mute per-file reporting — taint
    #: still propagates out of a merely allowlisted module, closing the
    #: allowlist-laundering hole.)
    flow_taint_sanitizers: Tuple[str, ...] = ("sim/rng.py",)

    #: Package-relative module prefixes whose public functions/methods
    #: are exception-flow entry points: every ``raise`` reachable from
    #: them must resolve to a project-defined typed error.
    flow_entry_prefixes: Tuple[str, ...] = ("cloud/", "vdc/", "security/")

    #: Where the path of the ``SecurityError`` taxonomy root lives, for
    #: the swallowed-SecurityError handler check
    #: (``module.py::ClassName``).
    flow_security_root: str = "security/errors.py::SecurityError"

    #: Declared state-machine transition tables the ``flow-typestate``
    #: rule verifies code against (see ``repro.lint.flow.statetables``).
    #: ``None`` means the default three machines (VFC, migration,
    #: channel rekey epoch); tests point this at fixture machines.
    typestate_machines: Optional[Tuple[dict, ...]] = None

    #: On-disk cache of per-module flow summaries, keyed by content
    #: hash, so the cached whole-program pass stays fast (root-relative;
    #: an absolute path is honored as-is).
    flow_cache_rel: str = ".lint-flow-cache.json"

    #: Directory names never descended into.
    skip_dirs: Tuple[str, ...] = field(
        default=("__pycache__", ".git", ".pytest_cache", ".hypothesis"))

    @property
    def package_dir(self) -> Path:
        return self.root / self.package_rel

    @property
    def baseline_path(self) -> Path:
        return self.root / self.baseline_rel

    @property
    def flow_cache_path(self) -> Path:
        return self.root / self.flow_cache_rel

    def rel(self, path: Path) -> str:
        """``path`` relative to the root, POSIX-style (finding identity)."""
        try:
            return path.resolve().relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    def package_rel_of(self, path: Path) -> str:
        """``path`` relative to the scanned package, or '' if outside."""
        try:
            return (path.resolve()
                    .relative_to(self.package_dir.resolve()).as_posix())
        except ValueError:
            return ""


def find_repo_root(start: Path) -> Path:
    """Walk up from ``start`` to the checkout root (pyproject marker)."""
    node = start.resolve()
    for candidate in (node, *node.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return start


def default_config(root: Path = None) -> LintConfig:
    """The configuration for this checkout (root auto-detected from the
    installed package location when not given)."""
    if root is None:
        root = find_repo_root(Path(__file__).parent)
    return LintConfig(root=Path(root))
