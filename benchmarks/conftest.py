"""Shared benchmark helpers.

Every benchmark regenerates one of the paper's tables or figures, prints
the same rows/series the paper reports, and appends the rendered output
to ``results/`` so EXPERIMENTS.md can be checked against a fresh run.
Run with ``pytest benchmarks/ --benchmark-only -s`` to see the tables.
"""

import contextlib
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


@pytest.fixture
def record_result():
    """Returns a writer: record_result(experiment_id, text)."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(experiment_id: str, text: str) -> None:
        path = RESULTS_DIR / f"{experiment_id}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return write


@pytest.fixture
def metrics_registry():
    """A private telemetry registry for the benchmark's measurements.

    Benchmarks pour their headline numbers into it (gauges/counters/
    histograms from the obs layer) and it is exported to
    ``results/<experiment_id>.jsonl`` via :func:`export_metrics`, giving
    future PRs a machine-readable perf trajectory alongside the tables.
    """
    from repro.obs import TelemetryRegistry

    return TelemetryRegistry()


@pytest.fixture
def export_metrics():
    """Returns a writer: export_metrics(experiment_id, registry) -> path."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(experiment_id: str, registry) -> pathlib.Path:
        from repro.obs import write_jsonl

        path = RESULTS_DIR / f"{experiment_id}.jsonl"
        n = write_jsonl(registry, str(path))
        print(f"[{n} metric records written to {path}]")
        return path

    return write


@contextlib.contextmanager
def _counting(targets):
    """Count calls of each ``name -> (class, method)`` in ``targets`` while
    the block runs; yields the ``name -> calls`` dict.  The wrappers go on
    the class, so install them before building what makes the calls."""
    counts = dict.fromkeys(targets, 0)
    patched = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    try:
        for name, (owner, attr) in targets.items():
            original = vars(owner)[attr]
            setattr(owner, attr, counted(name, original))
            patched.append((owner, attr, original))
        yield counts
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


@pytest.fixture
def count_calls():
    """Returns a context manager: ``with count_calls(targets) as counts``
    counts the calls of each ``name -> (class, method)`` in ``targets``
    made inside the block.  Work counts are exact where wall time on a
    shared host is not."""
    return _counting
