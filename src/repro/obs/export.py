"""Exporters: JSON-lines traces and the human-readable report.

The JSON-lines format is one record per line, every record carrying an
integer ``t`` (sim microseconds) and a ``kind``:

* ``event`` / ``span_begin`` / ``span_end`` — the trace, in timestamp
  order (the tracer appends in clock order, so the file is born sorted);
* ``counter`` / ``gauge`` / ``histogram`` — the final instrument
  snapshot, stamped with the clock value at export time.

``parse_jsonl`` + ``validate_records`` round-trip the format and are what
``python -m repro.obs.check`` (the ``make trace`` smoke check) runs.
"""

from __future__ import annotations

import json
from typing import IO, List, Union

from repro.obs.registry import TelemetryRegistry

TRACE_KINDS = ("event", "span_begin", "span_end")
METRIC_KINDS = ("counter", "gauge", "histogram")


def trace_records(registry: TelemetryRegistry,
                  include_snapshot: bool = True) -> List[dict]:
    """All records the exporter would write, as plain dicts."""
    records = [dict(r) for r in registry.tracer.records]
    if include_snapshot:
        now = registry.now
        for row in registry.snapshot():
            record = {"t": now}
            record.update(row)
            records.append(record)
    return records


def write_jsonl(registry: TelemetryRegistry, target: Union[str, IO],
                include_snapshot: bool = True) -> int:
    """Dump the registry to ``target`` (path or file); returns #records."""
    records = trace_records(registry, include_snapshot=include_snapshot)
    if hasattr(target, "write"):
        for record in records:
            target.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        with open(target, "w") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def parse_jsonl(source: Union[str, IO]) -> List[dict]:
    """Read a JSON-lines trace back into a record list.

    Raises ``ValueError`` on any unparseable line.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source) as fh:
            lines = fh.read().splitlines()
    records = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {number}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise ValueError(f"line {number}: record is not an object")
        records.append(record)
    return records


def validate_records(records: List[dict]) -> None:
    """Structural validation of a parsed trace (the smoke-check core).

    Asserts: non-empty; every record has an integer ``t >= 0``, a known
    ``kind`` and a ``name``; trace-kind timestamps are monotonically
    non-decreasing in file order.
    """
    if not records:
        raise ValueError("trace is empty")
    last_t = None
    for index, record in enumerate(records):
        where = f"record {index}"
        t = record.get("t")
        if not isinstance(t, int) or t < 0:
            raise ValueError(f"{where}: bad timestamp {t!r}")
        kind = record.get("kind")
        if kind not in TRACE_KINDS and kind not in METRIC_KINDS:
            raise ValueError(f"{where}: unknown kind {kind!r}")
        if not record.get("name"):
            raise ValueError(f"{where}: missing name")
        if kind in TRACE_KINDS:
            if last_t is not None and t < last_t:
                raise ValueError(
                    f"{where}: timestamp {t} regresses below {last_t}")
            last_t = t
        if kind == "span_end" and "dur_us" not in record:
            raise ValueError(f"{where}: span_end without dur_us")


def render_report(registry: TelemetryRegistry) -> str:
    """The human-readable summary (tables via repro.analysis.reporting).

    Imported here, not at module level: every run imports this module
    through ``repro.obs``, and only a run that renders a report needs the
    analysis package.
    """
    from repro.analysis.reporting import render_metrics_report

    return render_metrics_report(registry.snapshot(),
                                 registry.tracer.closed_spans,
                                 n_trace_records=len(registry.tracer.records))
